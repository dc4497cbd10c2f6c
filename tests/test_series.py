"""Iterates and the geometric series: the one entry and its request
checks, certified tails, the three methods, the exact families against
their exact rational series, and the inversion identities."""

import gc
import math
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from opgeom import operators, series
from opgeom.errors import (DegenerateOperatorError, DomainError,
                           NotInCpsiError)
from opgeom.funcspace import (Function01, default_grid, project_to_Cpsi, psi,
                              psi_norm, psi_sup, registry)
from opgeom.operators import (FAMILIES, NodeDiscretization, OperatorSpec,
                              node_discretization)
from opgeom.series import (check_inversion_identities, geometric_series,
                           iterate_apply, neumann_tail_terms)
from oracles import exact_series, factored_step, unsplit_krylov

GRID = default_grid(401)


def series_one(op, f, eps, method):
    """The entry's result for the single input f."""
    (res,) = geometric_series(op, [f], eps, GRID, method=method)
    return res


def brute_tail_terms(b, f, eps):
    k = 0
    while b ** (k + 1) / (1 - b) * f > eps:
        k += 1
    return k


def test_series_function_rejects_points_outside_the_unit_interval():
    res = series_one(OperatorSpec("bernstein", 8), registry("psi"), 1e-8, "krylov")
    for x in (-0.1, 1.5, math.nan):
        with pytest.raises(DomainError, match="0 <= x <= 1"):
            res.g(x)
    assert math.isfinite(res.g(0.5))


def test_held_result_pins_no_stack(monkeypatch):
    # a result keeps the carrier's image kernel, not the carrier: once the
    # carrier leaves the cache its stack is freed, and g still gives the
    # same bits and still refuses points outside [0, 1]
    monkeypatch.setattr(operators, "_DISC_CACHE", {})
    op = OperatorSpec("mkz-symmetric", 4, truncation_eps=1e-6)
    res = series_one(op, registry("psi"), 1e-6, "krylov")
    stack = weakref.ref(node_discretization(op)._stack)
    xs = np.linspace(0.0, 1.0, 33)
    want = res.g(xs)
    monkeypatch.setattr(operators, "_CACHE_BYTES_CAP", 0)
    node_discretization(OperatorSpec("bernstein", 4))  # op's carrier leaves
    assert list(operators._DISC_CACHE) == [OperatorSpec("bernstein", 4)]
    gc.collect()
    assert stack() is None
    assert np.array_equal(res.g(xs), want)
    for x in (-0.1, 1.5, math.nan):
        with pytest.raises(DomainError, match="0 <= x <= 1"):
            res.g(x)


class TestIterates:
    def test_identity(self):
        f = registry("exp")
        assert iterate_apply(OperatorSpec("bernstein", 5), 0, f, 0.37) == f(0.37)

    def test_eigen_decay(self):
        op = OperatorSpec("bernstein", 6)
        for k in (1, 3, 9):
            got = iterate_apply(op, k, registry("psi"), 0.3)
            assert got == pytest.approx((1 - 1 / 6) ** k * psi(0.3), abs=1e-12)

    def test_convergence_to_endpoint_interpolation(self):
        op = OperatorSpec("durrmeyer", 5, rho=1.0)
        f1 = project_to_Cpsi(registry("e3"))
        b = op.contraction_bound()
        norm0 = psi_norm(f1, GRID)
        for k in (5, 15, 30):
            vals = iterate_apply(op, k, f1, GRID.points)
            measured = np.max(np.abs(vals) / psi(GRID.points))
            assert measured <= b ** k * norm0 * (1 + 1e-9)

    def test_negative_order(self):
        with pytest.raises(DomainError):
            iterate_apply(OperatorSpec("bernstein", 4), -1, registry("psi"), 0.5)

    def test_order_and_points_are_checked_as_moment_checks_them(self):
        # 1.5 and 2.0 once raised TypeError, True ran as k = 1, and k = 0
        # returned f(1.5) = -1.0 where k >= 1 raised DomainError
        op = OperatorSpec("bernstein", 8)
        f = project_to_Cpsi(registry("sin_pi"))
        for k in (1.5, 2.0, True, False):
            with pytest.raises(DomainError, match="iterate order"):
                iterate_apply(op, k, f, 0.3)
        for k in (0, 1, 2):
            with pytest.raises(DomainError, match="0 <= x <= 1"):
                iterate_apply(op, k, f, 1.5)
            with pytest.raises(DomainError, match="0 <= x <= 1"):
                iterate_apply(op, k, f, np.array([0.3, 1.5]))
        assert iterate_apply(op, np.int64(2), f, 0.3) == iterate_apply(op, 2, f, 0.3)


class TestTailTerms:
    @pytest.mark.parametrize("b,f,eps", [
        (0.5, 1.0, 0.5), (7 / 8, 1.0, 1e-6), (0.9, 3.2, 1e-8),
        (0.03, 10.0, 1e-3), (0.999, 0.2, 1e-4)])
    def test_matches_brute_force(self, b, f, eps):
        assert neumann_tail_terms(b, f, eps) == brute_tail_terms(b, f, eps)

    def test_spec_examples(self):
        assert neumann_tail_terms(0.5, 1.0, 0.5) == 1
        assert neumann_tail_terms(1 - 1 / (2 * 4), 1.0, 1e-6) == \
            brute_tail_terms(1 - 1 / 8, 1.0, 1e-6)

    def test_zero_input(self):
        assert neumann_tail_terms(0.7, 0.0, 1e-9) == 0

    def test_domain(self):
        with pytest.raises(DomainError):
            neumann_tail_terms(1.0, 1.0, 1e-6)
        with pytest.raises(DomainError):
            neumann_tail_terms(0.5, 1.0, 0.0)

    @pytest.mark.parametrize("f,eps", [(1.0, math.nan), (1.0, math.inf),
                                       (math.nan, 1e-6), (math.inf, 1e-6)])
    def test_non_finite_input(self, f, eps):
        with pytest.raises(DomainError, match="finite"):
            neumann_tail_terms(0.5, f, eps)

    @pytest.mark.parametrize("b,f,eps", [(0.5, 1e-310, 1.0), (0.75, 1e-320, 1e-8)])
    def test_first_term_meets_eps_where_the_log_would_overflow(self, b, f, eps):
        # eps (1 - b) / |f| overflows to inf, but b / (1 - b) |f| <= eps
        assert neumann_tail_terms(b, f, eps) == 0

    @pytest.mark.parametrize("b,f,eps", [(0.5, 1.0, 5e-324), (0.5, 1e300, 1e-300),
                                         (0.04, 1e300, 1e-23)])
    def test_underflowing_ratio_is_a_domain_error(self, b, f, eps):
        # the ratio is 0, 0 and 1e-323; at the last, a subnormal b^(K+1)
        # would give K = 230, whose tail is 1.24 eps
        with pytest.raises(DomainError, match="underflows"):
            neumann_tail_terms(b, f, eps)

    @pytest.mark.parametrize("method", ["krylov", "neumann"])
    def test_subnormal_scale_input_takes_one_term(self, method):
        f = registry("psi").scaled(1e-310)
        (res,) = geometric_series(OperatorSpec("bernstein", 4), [f], 1.0, method=method)
        assert res.terms_used == 1 and res.tail_bound <= 1.0


class EntryContract:
    """Request checks every method shares; each subclass names its method."""

    method = None

    def test_zero_input(self):
        zero = Function01.polynomial((0.0,))
        res = series_one(OperatorSpec("bernstein", 4), zero, 1e-8, self.method)
        assert res.method == self.method
        assert res.terms_used == 0
        assert res.g(0.4) == 0.0

    def test_endpoint_gate(self):
        with pytest.raises(NotInCpsiError):
            series_one(OperatorSpec("bernstein", 4), registry("e2"), 1e-8,
                       self.method)

    def test_requires_contraction(self):
        with pytest.raises(DegenerateOperatorError):
            series_one(OperatorSpec("mkz", 4, truncation_eps=1e-8),
                       registry("psi"), 1e-6, self.method)
        with pytest.raises(DegenerateOperatorError):
            series_one(OperatorSpec("bernstein", 1), registry("psi"), 1e-8,
                       self.method)
        for eps in (0.0, math.nan, math.inf):
            with pytest.raises(DomainError, match="finite"):
                series_one(OperatorSpec("bernstein", 4), registry("psi"), eps,
                           self.method)

    def test_batch_empty(self):
        op = OperatorSpec("bernstein", 4)
        assert geometric_series(op, [], 1e-8, GRID, method=self.method) == []
        with pytest.raises(DomainError):
            geometric_series(op, [], 0.0, GRID, method=self.method)


def test_unknown_method():
    with pytest.raises(DomainError, match="unknown series method"):
        geometric_series(OperatorSpec("bernstein", 4), [registry("psi")],
                         1e-8, GRID, method="cg")


# inputs inside the endpoint gate with an affine residue: sin_pi(1) is
# 1.2e-16, not 0
RESIDUE_INPUTS = [registry("sin_pi"), registry("psi") + registry("e1").scaled(1e-13)]


@pytest.mark.parametrize("method,op", [
    ("krylov", OperatorSpec("bernstein", 64)),
    ("krylov", OperatorSpec("mkz-symmetric", 4, truncation_eps=1e-6)),
    ("neumann", OperatorSpec("durrmeyer", 16, rho=1.0)),
    ("neumann", OperatorSpec("mkz-symmetric", 4, truncation_eps=1e-6)),
    ("solve", OperatorSpec("bernstein", 8)),
    ("solve", OperatorSpec("durrmeyer", 8, rho=1.0)),
    ("solve", OperatorSpec("mkz-symmetric", 4, truncation_eps=1e-6))],
    ids=lambda v: v if isinstance(v, str) else f"{v.family}-{v.n}")
def test_each_input_is_projected_at_the_entry(method, op):
    # every method solves, certifies and returns the series of
    # project_to_Cpsi(f), so the residue reaches no engine
    eps = 1e-6 if op.record.series else 1e-8
    for f in RESIDUE_INPUTS:
        assert 0.0 < abs(f(1.0)) <= 1e-12
        got = series_one(op, f, eps, method)
        want = series_one(op, project_to_Cpsi(f), eps, method)
        assert (got.terms_used, got.tail_bound) == (want.terms_used, want.tail_bound)
        assert np.array_equal(got.grid_values, want.grid_values)


@pytest.mark.parametrize("op", [OperatorSpec("bernstein", 512),
                                OperatorSpec("durrmeyer", 512, rho=1.0)],
                         ids=lambda op: op.family)
def test_krylov_certifies_sin_pi_at_large_n(op, monkeypatch):
    # sin_pi(1) is 1.2e-16; left in the residual it alone would hold the
    # certificate above eps, and the row would go to the exact solve
    no_neumann(monkeypatch)
    (res,) = geometric_series(op, [registry("sin_pi")], 1e-8)
    assert res.method == "krylov"
    assert res.tail_bound <= 1e-8
    assert res.terms_used <= 20


@pytest.mark.parametrize("method,op", [
    ("krylov", OperatorSpec("mkz-symmetric", 4, truncation_eps=1e-6)),
    ("krylov", OperatorSpec("durrmeyer", 5, rho=1.0)),
    ("solve", OperatorSpec("bernstein", 8)),
    ("solve", OperatorSpec("durrmeyer", 8, rho=1.0)),
    ("solve", OperatorSpec("mkz-symmetric", 4, truncation_eps=1e-6))],
    ids=lambda v: v if isinstance(v, str) else v.family)
def test_multi_input_is_per_input(method, op):
    # the per-input methods treat each input exactly as a call of its own
    fs = [registry("psi"), registry("psi") * registry("sin_pi"),
          Function01.polynomial((0.0,)), project_to_Cpsi(registry("e3"))]
    eps = 1e-6 if op.record.series else 1e-8
    multi = geometric_series(op, fs, eps, GRID, method=method)
    pts = op.grid(GRID).points
    for f, res in zip(fs, multi):
        one = series_one(op, f, eps, method)
        assert (res.terms_used, res.tail_bound, res.residual_psi_norm) == \
            (one.terms_used, one.tail_bound, one.residual_psi_norm)
        assert np.array_equal(np.asarray(res.g(pts)), np.asarray(one.g(pts)))


class TestNeumann(EntryContract):
    method = "neumann"

    def test_eigenfunction_closed_form(self):
        for n in (2, 8, 17):
            op = OperatorSpec("bernstein", n)
            res = series_one(op, registry("psi"), 1e-8, "neumann")
            err = np.max(np.abs(np.asarray(res.g(GRID.points))
                                - n * psi(GRID.points)) / psi(GRID.points))
            assert err <= n * 1e-8
            assert res.tail_bound <= 1e-8
            assert res.residual_psi_norm <= 1e-7

    def test_norm_bound_product(self):
        # (1 - |b|) G(psi) <= psi within tolerance
        for op in (OperatorSpec("bernstein", 8),
                   OperatorSpec("durrmeyer", 6, rho=1.0)):
            res = series_one(op, registry("psi"), 1e-8, "neumann")
            lhs = (1 - op.contraction_bound()) * psi_norm(res.g, GRID)
            assert lhs <= 1.0 + 1e-6

    def test_positivity_and_linearity(self):
        op = OperatorSpec("bernstein", 6)
        disc = node_discretization(op)
        f = registry("psi") * registry("abs_half")
        res = series_one(op, f, 1e-9, "neumann")
        assert np.min(np.asarray(res.g(disc.nodes))) >= -1e-10
        g2 = registry("psi")
        ra = series_one(op, f.scaled(2.0) + g2.scaled(-0.5), 1e-9, "neumann")
        parts = (2.0 * np.asarray(res.g(disc.nodes))
                 - 0.5 * np.asarray(series_one(
                     op, g2, 1e-9, "neumann").g(disc.nodes)))
        assert np.max(np.abs(np.asarray(ra.g(disc.nodes)) - parts)) <= 1e-7

    def test_tail_bound_sound_pointwise(self):
        # partial sums applied to psi against the geometric envelope
        n = 4
        op = OperatorSpec("bernstein", n)
        b = 1 - 1 / n
        disc = node_discretization(op)
        v = disc.rep(registry("psi"))
        acc = v.copy()
        pts = GRID.points
        for k in range(200):
            ref = n * psi(pts)
            approx_vals = psi(pts) * sum(b ** j for j in range(k + 1))
            bound = b ** (k + 1) / (1 - b)
            assert np.max(np.abs(approx_vals - ref) / psi(pts)) <= bound + 1e-12
            v = disc.advance(v)
            acc += v

    def test_batch_matches_single(self):
        op = OperatorSpec("durrmeyer", 5, rho=1.0)
        fs = [registry("psi"), project_to_Cpsi(registry("e3"))]
        singles = [series_one(op, f, 1e-8, "neumann") for f in fs]
        batch = geometric_series(op, fs, 1e-8, GRID, method="neumann")
        x = GRID.points[::16]
        for s, b_ in zip(singles, batch):
            assert np.max(np.abs(np.asarray(s.g(x)) - np.asarray(b_.g(x)))) <= 1e-9

    def test_batch_residuals_are_the_per_column_ones(self, monkeypatch):
        op = OperatorSpec("mkz-symmetric", 4, truncation_eps=1e-6)
        disc = node_discretization(op)
        fs = [registry("psi"), registry("psi") * registry("sin_pi"),
              registry("sin_pi")]
        products, sums = [], []
        advance, product = NodeDiscretization.advance, NodeDiscretization.product
        defect = series._defect
        monkeypatch.setattr(NodeDiscretization, "product",
                            lambda d, v: products.append(v.shape) or product(d, v))
        monkeypatch.setattr(series, "_defect",
                            lambda d, acc, rep0: sums.append(acc.copy())
                            or defect(d, acc, rep0))
        batch = geometric_series(op, fs, 1e-6, GRID, method="neumann")
        # the sums make no exact product (they take the factored step): one
        # exact product, with all the columns, serves all the residuals
        assert products == [(disc.nodes.size, len(fs))]
        # terms_used is K + 1 (g = f + L(acc)), and acc is K - 1 factored
        # steps summed, to rounding
        reps = np.column_stack([disc.rep(f) for f in fs])
        step = factored_step(disc)
        term, want = reps, reps.copy()
        for _ in range(batch[0].terms_used - 2):
            term = step(term)
            want += term
        (acc,) = sums
        idx = np.flatnonzero(disc.interior)
        w = psi(disc.nodes[idx])[:, None]
        assert np.all(np.max(np.abs(acc - want)[idx] / w, axis=0)
                      <= 1e-13 * np.max(np.abs(reps[idx]) / w, axis=0))
        pts = op.grid(GRID).points
        acc = reps + advance(disc, reps)
        got_norms, _ = series._residual_norms(disc, series._defect(disc, acc, reps),
                                              op.grid(GRID), [])
        for i, got in enumerate(got_norms):
            defect = acc[:, i] - reps[:, i] - advance(disc, acc[:, i])
            want = psi_sup(disc.apply_rep(defect, pts), pts)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_batch_of_one_matches_single_without_a_sweep(self):
        # the first tail bound already meets eps: K = 0, so G f ~ f alone
        op = OperatorSpec("bernstein", 8)
        f = registry("psi").scaled(1e-9)
        single = series_one(op, f, 1e-8, "neumann")
        (batch,) = geometric_series(op, [f], 1e-8, GRID, method="neumann")
        assert single.terms_used == batch.terms_used == 1
        assert single.tail_bound == batch.tail_bound
        x = GRID.points
        assert np.array_equal(np.asarray(batch.g(x)), np.asarray(single.g(x)))
        assert np.array_equal(np.asarray(single.g(x)), f(x))


SWEEP_INPUTS = [registry("psi"), registry("psi") * registry("e1"),
                registry("psi") * registry("sin_pi"), registry("sin_pi")]


def exact_sweep(monkeypatch):
    """Make every Neumann sweep sum exact carrier products."""
    monkeypatch.setattr(NodeDiscretization, "sweep_sums",
                        NodeDiscretization.advance_sums)


def no_neumann(monkeypatch):
    """Make any Neumann sweep fail the test."""
    def refuse(*args):
        raise AssertionError("a Neumann sweep ran")

    monkeypatch.setattr(series, "_neumann_sweep", refuse)


def count_gmres(monkeypatch):
    """The list to which each later _gmres call appends its products."""
    gmres, used = series._gmres, []

    def counted(*args):
        x, matvecs = gmres(*args)
        used.append(matvecs)
        return x, matvecs

    monkeypatch.setattr(series, "_gmres", counted)
    return used


def assert_identical(got, want, pts):
    for a, b in zip(got, want):
        assert (a.terms_used, a.tail_bound, a.residual_psi_norm) == \
            (b.terms_used, b.tail_bound, b.residual_psi_norm)
        assert np.array_equal(np.asarray(a.g(pts)), np.asarray(b.g(pts)))


class TestCompressedSweep:
    """The mkz-symmetric Neumann sweep sums the factored step of
    NodeDiscretization.sweep_sums once and reports the certificate of
    those sums, whatever it is."""

    op = OperatorSpec("mkz-symmetric", 8, truncation_eps=1e-6)

    def test_within_the_compression_term_of_the_exact_sweep(self, monkeypatch):
        # the same K; each certificate is the larger of the a-priori tail
        # (the exact sweep's) and the residual certificate, and the two
        # sums differ, by at most both certificates
        eps = 1e-6
        b = self.op.contraction_bound()
        got = geometric_series(self.op, SWEEP_INPUTS, eps, GRID, method="neumann")
        with monkeypatch.context() as m:
            exact_sweep(m)
            want = geometric_series(self.op, SWEEP_INPUTS, eps, GRID,
                                    method="neumann")
        pts = self.op.grid(GRID).points
        for a, e in zip(got, want):
            assert a.terms_used == e.terms_used
            assert a.tail_bound == max(e.tail_bound,
                                       a.residual_psi_norm / (1 - b))
            assert a.tail_bound <= eps
            assert 0.0 < weighted_gap(a, e, pts) <= a.tail_bound + e.tail_bound

    def test_spoiled_factors_are_reported(self, monkeypatch):
        # factors off by 1e-3 leave residual certificates far above eps:
        # the sums are made once, by the factored step, and their
        # certificates say that eps is missed; nothing is summed again
        op = OperatorSpec("mkz-symmetric", 4, truncation_eps=1e-6)
        b = op.contraction_bound()
        low_rank, spoiled, exact = operators._low_rank_pairs, [], []

        def spoil(*args):
            y, z = low_rank(*args)
            spoiled.append(z.shape)
            return y, z * (1 + 1e-3)

        monkeypatch.setattr(operators, "_low_rank_pairs", spoil)
        monkeypatch.setattr(NodeDiscretization, "advance_sums",
                            lambda d, v, k: exact.append(k))
        got = geometric_series(op, SWEEP_INPUTS, 1e-6, GRID, method="neumann")
        assert len(spoiled) == 1 and not exact
        assert max(res.tail_bound for res in got) > 1e-6
        for res in got:
            assert res.method == "neumann"
            assert res.tail_bound >= res.residual_psi_norm / (1 - b)

    def test_tight_eps_keeps_the_compressed_sums(self, monkeypatch):
        # at n = 4 and eps 1e-12 the residual certificates still meet eps,
        # so the compressed sums stand, within both certificates of the
        # exact sweep
        op = OperatorSpec("mkz-symmetric", 4, truncation_eps=1e-6)
        exact_sums, calls = NodeDiscretization.advance_sums, []
        with monkeypatch.context() as m:
            m.setattr(NodeDiscretization, "advance_sums",
                      lambda d, v, k: calls.append(k) or exact_sums(d, v, k))
            got = geometric_series(op, SWEEP_INPUTS, 1e-12, GRID,
                                   method="neumann")
        assert not calls
        assert all(res.tail_bound <= 1e-12 for res in got)
        exact_sweep(monkeypatch)
        want = geometric_series(op, SWEEP_INPUTS, 1e-12, GRID, method="neumann")
        pts = op.grid(GRID).points
        for a, e in zip(got, want):
            assert a.terms_used == e.terms_used
            assert weighted_gap(a, e, pts) <= a.tail_bound + e.tail_bound

    def test_runs_agree_bit_for_bit(self):
        disc = node_discretization(self.op)
        v = np.random.default_rng(3).standard_normal((disc.nodes.size, 4))
        v[~disc.interior] = 0.0  # the factored step takes weighted-space inputs
        sums1, sums2 = disc.sweep_sums(v, 50), disc.sweep_sums(v, 50)
        assert np.array_equal(sums1, sums2)
        assert not np.array_equal(sums1, disc.advance_sums(v, 50))  # factored
        runs = [geometric_series(self.op, SWEEP_INPUTS, 1e-6, GRID,
                                 method="neumann") for _ in range(2)]
        assert_identical(*runs, self.op.grid(GRID).points)

    @pytest.mark.parametrize("op", [OperatorSpec("bernstein", 8),
                                    OperatorSpec("durrmeyer", 7, rho=0.5)],
                             ids=lambda op: op.family)
    def test_exact_carriers_sum_the_plain_series(self, op):
        # the sweep of the exact carriers: K from the a-priori tail alone,
        # K - 1 exact products, no compression term, and the one
        # certificate rule (for psi the two terms agree up to rounding)
        fs = [registry("psi"), project_to_Cpsi(registry("e3"))]
        got = geometric_series(op, fs, 1e-8, GRID, method="neumann")
        disc = node_discretization(op)
        b = op.contraction_bound()
        norms = [psi_norm(f, op.grid(GRID)) for f in fs]
        k_max = max(neumann_tail_terms(b, v, 1e-8) for v in norms)
        v = np.column_stack([disc.rep(f) for f in fs])
        acc = np.zeros_like(v)
        for k in range(k_max):
            if k:
                v = disc.transfer @ v
            acc += v
        pts = op.grid(GRID).points
        for i, (f, res) in enumerate(zip(fs, got)):
            assert res.terms_used == k_max + 1
            assert res.tail_bound == max(b ** (k_max + 1) / (1 - b) * norms[i],
                                         res.residual_psi_norm / (1 - b))
            want = np.asarray(f(pts)) + disc.apply_rep(acc[:, i], pts)
            assert np.array_equal(np.asarray(res.g(pts)), want)


    def test_quarter_width_gate_takes_the_exact_sweep(self, monkeypatch):
        # n = 3 at truncation_eps 0.1 has 224 pair columns, a quarter of
        # which (56) is less than the first sample (76 distinct columns):
        # no factors and no sample made, so the sweep is the exact one
        # from the start
        op = OperatorSpec("mkz-symmetric", 3, truncation_eps=0.1)
        disc = node_discretization(op)
        assert disc._pairs[0].size == 224
        fill, sampled = operators._mkz_paired_stack, []
        with monkeypatch.context() as m:
            m.setattr(operators, "_mkz_paired_stack",
                      lambda *args: sampled.append(args) or fill(*args))
            assert operators._low_rank_pairs(disc) == (None, None)
        assert sampled == []
        v = np.random.default_rng(3).standard_normal((disc.nodes.size, 2))
        v[~disc.interior] = 0.0
        assert np.array_equal(disc.sweep_sums(v, 20), disc.advance_sums(v, 20))
        got = geometric_series(op, SWEEP_INPUTS, 1e-6, GRID, method="neumann")
        exact_sweep(monkeypatch)
        want = geometric_series(op, SWEEP_INPUTS, 1e-6, GRID, method="neumann")
        assert_identical(got, want, op.grid(GRID).points)


@pytest.mark.parametrize("op", [OperatorSpec("bernstein", 8),
                                OperatorSpec("durrmeyer", 7, rho=0.5),
                                OperatorSpec("mkz-symmetric", 4,
                                             truncation_eps=1e-6)],
                         ids=lambda op: op.family)
def test_every_certificate_covers_its_residual(op):
    # one rule for every method: tail_bound is at least the residual
    # certificate |(I - L) g - f|_psi / (1 - b)
    b = op.contraction_bound()
    eps = 1e-6 if op.record.series else 1e-8
    for method in ("krylov", "neumann", "solve"):
        for res in geometric_series(op, SWEEP_INPUTS, eps, GRID, method=method):
            assert res.tail_bound >= res.residual_psi_norm / (1 - b)


def test_exact_sweep_reports_its_rounding():
    # at eps 1e-13 the exact sum's residual certificate (about 1.1e-12)
    # is above its a-priori tail and above eps: the result reports it
    op = OperatorSpec("bernstein", 32)
    b = op.contraction_bound()
    res = series_one(op, registry("psi") * registry("e1"), 1e-13, "neumann")
    assert res.tail_bound >= res.residual_psi_norm / (1 - b) > 1e-13


class TestSolve(EntryContract):
    method = "solve"

    def test_hand_solved_scalar_system(self):
        res = series_one(OperatorSpec("bernstein", 2), registry("psi"), 1e-8,
                         "solve")
        assert res.g(0.5) == pytest.approx(0.5, abs=1e-13)
        assert res.residual_psi_norm <= 1e-10

    def test_eigenfunction(self):
        for n in (2, 8, 17):
            res = series_one(OperatorSpec("bernstein", n), registry("psi"),
                             1e-8, "solve")
            err = np.max(np.abs(np.asarray(res.g(GRID.points))
                                - n * psi(GRID.points)) / psi(GRID.points))
            assert err <= 1e-10

    def test_method_agreement(self):
        for op in (OperatorSpec("bernstein", 8),
                   OperatorSpec("durrmeyer", 7, rho=0.5)):
            f = project_to_Cpsi(registry("e3"))
            sol = series_one(op, f, 1e-8, "solve")
            neu = series_one(op, f, 1e-8, "neumann")
            diff = np.max(np.abs(np.asarray(sol.g(GRID.points))
                                 - np.asarray(neu.g(GRID.points)))
                          / psi(GRID.points))
            assert diff <= 1e-8 / (1 - op.contraction_bound()) + 1e-9

    def test_tail_bound_is_the_residual_certificate(self):
        # the residual is nonzero, so a zero tail bound would certify nothing
        op = OperatorSpec("bernstein", 8)
        res = series_one(op, registry("psi"), 1e-8, "solve")
        assert res.residual_psi_norm > 0.0
        assert res.tail_bound == \
            res.residual_psi_norm / (1 - op.contraction_bound())

    def test_terms_used_is_the_residual_product(self):
        # one carrier product, the residual's, like every other method's count
        res = series_one(OperatorSpec("durrmeyer", 7, rho=0.5), registry("psi"),
                         1e-8, "solve")
        assert res.terms_used == 1

    @pytest.mark.parametrize("op", [OperatorSpec("bernstein", 33),
                                    OperatorSpec("durrmeyer", 16, rho=0.5)],
                             ids=lambda op: op.family)
    def test_interior_block_is_the_identity_minus_t(self, op, monkeypatch):
        # the block is formed in place, 1 + (0 - t) on the diagonal and
        # 0 - t off it: the bytes of np.eye(m) - T, and so the same series
        disc = node_discretization(op)
        idx = np.flatnonzero(disc.interior)
        want = np.eye(idx.size) - disc.transfer[np.ix_(idx, idx)]
        blocks, solve = [], np.linalg.solve

        def kept(a, rhs):
            blocks.append(a.copy())
            return solve(a, rhs)

        monkeypatch.setattr(np.linalg, "solve", kept)
        f = project_to_Cpsi(registry("e3"))
        res = series_one(op, f, 1e-8, "solve")
        assert len(blocks) == 1 and blocks[0].tobytes() == want.tobytes()
        rep0 = disc.rep(f)
        acc = np.zeros(rep0.size)
        acc[idx] = solve(want, rep0[idx])
        pts = op.grid(GRID).points
        assert np.array_equal(np.asarray(res.g(pts)),
                              np.asarray(f(pts)) + disc.apply_rep(acc, pts))



BATCH_INPUTS = [registry("psi"), registry("psi") * registry("e1"),
                registry("psi") * registry("sin_pi"),
                registry("psi") * registry("osc"), registry("sin_pi")]


class TestFactoredSolve:
    """The mkz-symmetric solve, that family's default engine: Woodbury's
    identity on the factors of its stack, whose products stream it."""

    def test_default_engine_holds_no_stack(self, monkeypatch):
        # with default arguments every input is solved, within eps / 2, in
        # one pass over the stack (the certificate: the factors take none),
        # and no carrier holds a stack afterwards
        monkeypatch.setattr(operators, "_DISC_CACHE", {})
        for n in (4, 8, 16):
            op = OperatorSpec("mkz-symmetric", n, truncation_eps=1e-6)
            for res in geometric_series(op, BATCH_INPUTS, 1e-6, GRID):
                assert (res.method, res.terms_used) == ("solve", 1)
                assert res.tail_bound <= 1e-6 / 2
        assert len(operators._DISC_CACHE) == 3
        assert all(d._filled is None for d in operators._DISC_CACHE.values())

    def test_traced_peak_is_the_factors_and_a_block(self, monkeypatch):
        # numpy's traced allocations, not RSS, so no allocator enters: on a
        # fresh n = 16 carrier a default solve holds y and z (5.0 MB) beside
        # at most one gathered copy of z's columns or one block of the
        # streamed pass, and so does the five-input Neumann sum (8.5 and
        # 9.0 MB with numpy 2 on x86-64 Linux; 14.3 and 14.8 MB with copies
        # of the sample, basis and right factor beside them)
        op = OperatorSpec("mkz-symmetric", 16, truncation_eps=1e-6)
        grid = default_grid()
        geometric_series(OperatorSpec("mkz-symmetric", 4, truncation_eps=1e-6),
                         BATCH_INPUTS, 1e-6, grid)  # the code paths, warm
        for fs, method in (([BATCH_INPUTS[1]], None), (BATCH_INPUTS, "neumann")):
            monkeypatch.setattr(operators, "_DISC_CACHE", {})
            tracemalloc.start()
            try:
                geometric_series(op, fs, 1e-6, grid, method=method)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 10e6, (method, peak)

    def test_one_streamed_pass_per_unrefined_input(self, monkeypatch):
        # the factors take no pass over the stack: factored_step on a fresh
        # carrier streams nothing and fills nothing; a default call then
        # streams the stack once per unrefined input, for its certificate
        stream, calls = operators._mkz_paired_product, []

        def counted(*args):
            calls.append(args)
            return stream(*args)

        monkeypatch.setattr(operators, "_mkz_paired_product", counted)
        monkeypatch.setattr(operators, "_DISC_CACHE", {})
        for n in (4, 8, 16):
            op = OperatorSpec("mkz-symmetric", n, truncation_eps=1e-6)
            fresh = operators._mkz_disc(op)
            assert fresh.factored_step() is not None
            assert not calls and fresh._filled is None
            results = geometric_series(op, BATCH_INPUTS, 1e-6, GRID)
            assert [r.terms_used for r in results] == [1] * len(BATCH_INPUTS)
            assert len(calls) == len(BATCH_INPUTS)
            assert node_discretization(op)._filled is None
            calls.clear()

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_agrees_with_krylov(self, n):
        # the five batch-mkz inputs: within the sum of both certificates
        op = OperatorSpec("mkz-symmetric", n, truncation_eps=1e-6)
        pts = op.grid(GRID).points
        solved = geometric_series(op, BATCH_INPUTS, 1e-6, GRID)
        kry = geometric_series(op, BATCH_INPUTS, 1e-6, GRID, method="krylov")
        for a, k in zip(solved, kry):
            assert (a.method, k.method) == ("solve", "krylov")
            assert weighted_gap(a, k, pts) <= a.tail_bound + k.tail_bound

    def test_agrees_with_the_exact_neumann_sum(self, monkeypatch):
        op = OperatorSpec("mkz-symmetric", 4, truncation_eps=1e-6)
        pts = op.grid(GRID).points
        solved = geometric_series(op, BATCH_INPUTS, 1e-6, GRID)
        exact_sweep(monkeypatch)
        summed = geometric_series(op, BATCH_INPUTS, 1e-6, GRID, method="neumann")
        for a, e in zip(solved, summed):
            assert weighted_gap(a, e, pts) <= a.tail_bound + e.tail_bound

    def test_a_result_alone_is_the_batch_one(self):
        op = OperatorSpec("mkz-symmetric", 8, truncation_eps=1e-6)
        batch = geometric_series(op, BATCH_INPUTS, 1e-6, GRID)
        alone = [series_one(op, f, 1e-6, "solve") for f in BATCH_INPUTS]
        assert_identical(alone, batch, op.grid(GRID).points)
        for a, b in zip(alone, batch):
            assert np.array_equal(a.grid_values, b.grid_values)

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_refinement_never_raises_the_certificate(self, n, monkeypatch):
        # a certificate above eps / 2 is refined once, on the defect the
        # certificate formed: a second pass, and the smaller certificate
        # stands.  At eps 1e-6 no input takes it (the first certificates
        # are at most 4.8e-12); at eps 1e-12 the refinement is what meets
        # eps at n = 16, where sin_pi's first certificate is 4.8e-12
        op = OperatorSpec("mkz-symmetric", n, truncation_eps=1e-6)
        certify, tails = series._certify, []

        def recorded(*args, **kw):
            out = certify(*args, **kw)
            tails.append(out[0].tail_bound)
            return out

        monkeypatch.setattr(series, "_certify", recorded)
        for eps in (1e-6, 1e-12, 1e-13):
            firsts, results = [], geometric_series(op, BATCH_INPUTS, eps, GRID)
            for res in results:
                firsts.append(tails.pop(0))
                if firsts[-1] > eps / 2:
                    assert res.terms_used == 2
                    assert res.tail_bound == min(firsts[-1], tails.pop(0))
                else:
                    assert (res.terms_used, res.tail_bound) == (1, firsts[-1])
            assert not tails
            if eps == 1e-6:
                assert max(firsts) <= eps / 2
            if eps == 1e-12 and n == 16:
                assert max(firsts) > eps
                assert all(res.tail_bound <= eps for res in results)

    def test_quarter_width_gate_solves_the_unfolded_block(self, monkeypatch):
        # n = 3 at truncation_eps 0.1: the stack is not factored (its
        # sample would pass a quarter of its 224 columns); the interior
        # block of I - T, unfolded by one streamed product of the unit
        # vectors, is solved by dense LU: two passes, no fill, no Krylov
        # cycle, and the exact Neumann sum within both certificates
        monkeypatch.setattr(operators, "_DISC_CACHE", {})
        monkeypatch.setattr(series, "_gmres", lambda *args: pytest.fail("Krylov ran"))
        op = OperatorSpec("mkz-symmetric", 3, truncation_eps=0.1)
        solved = geometric_series(op, SWEEP_INPUTS, 1e-6, GRID)
        assert node_discretization(op)._filled is None
        exact_sweep(monkeypatch)
        summed = geometric_series(op, SWEEP_INPUTS, 1e-6, GRID, method="neumann")
        pts = op.grid(GRID).points
        for a, e in zip(solved, summed):
            assert (a.method, a.terms_used) == ("solve", 2)
            assert a.tail_bound <= 1e-6 / 2
            assert weighted_gap(a, e, pts) <= a.tail_bound + e.tail_bound


ORACLE_INPUTS = [pytest.param(name, q, id=name) for name, q in
                 (("psi", [1]), ("psi*e1", [0, 1]), ("psi*e3", [0, 0, 0, 1]))]
EXACT_OPS = [pytest.param("bernstein", None, id="bernstein"),
             pytest.param("durrmeyer", 0.5, id="durrmeyer-0.5"),
             pytest.param("durrmeyer", 1.0, id="durrmeyer-1")]


def oracle_error(family, n, rho, name, q, method):
    """The weighted grid error of the series result for psi q against
    exact_series, with its tail_bound."""
    op = OperatorSpec(family, n, rho=rho)
    f = registry("psi")
    if name != "psi":
        f = f * registry(name.split("*")[1])
    res = series_one(op, f, 1e-8, method)
    pts = op.grid(GRID).points
    inner = psi(pts) > 0.0
    gap = res.grid_values[inner] - exact_series(family, n, rho, q)(pts[inner])
    return float(np.max(np.abs(gap) / psi(pts[inner]))), res.tail_bound


@pytest.mark.parametrize("family, rho", EXACT_OPS)
@pytest.mark.parametrize("name, q", ORACLE_INPUTS)
class TestExactOracle:
    """The exact families' series of polynomial inputs against exact
    rational arithmetic (oracles.exact_series), in the weighted grid norm,
    within eps = 1e-8."""

    @pytest.mark.parametrize("n", [64, 512])
    def test_solve(self, family, rho, name, q, n):
        err, _ = oracle_error(family, n, rho, name, q, "solve")
        assert err <= 1e-8

    def test_default_method(self, family, rho, name, q):
        err, _ = oracle_error(family, 64, rho, name, q, "krylov")
        assert err <= 1e-8


def test_exact_oracle_bernstein_past_exact_binomials():
    # the transfer rows come from the exact ratio of neighbouring entries,
    # not from x^k at the rounded node k/n, whose entry error the series
    # amplified to 2.0e-8 here
    err, _ = oracle_error("bernstein", 1100, None, "psi", [1], "solve")
    assert err <= 1e-8


def assert_solved(res, op, f, eps):
    """res is the solve path's result for f, bit for bit."""
    want = series_one(op, f, eps, "solve")
    assert res.method == want.method
    assert_identical([res], [want], op.grid(GRID).points)
    assert np.array_equal(res.grid_values, want.grid_values)


def weighted_gap(res_a, res_b, pts):
    return float(np.max(np.abs(np.asarray(res_a.g(pts))
                               - np.asarray(res_b.g(pts))) / psi(pts)))


class TestKrylov(EntryContract):
    method = "krylov"

    @pytest.mark.parametrize("op", [
        OperatorSpec("bernstein", 8), OperatorSpec("bernstein", 32),
        OperatorSpec("durrmeyer", 7, rho=0.5)])
    def test_agrees_with_solve(self, op):
        f = project_to_Cpsi(registry("e3"))
        kry = series_one(op, f, 1e-8, "krylov")
        sol = series_one(op, f, 1e-8, "solve")
        one_minus_b = 1 - op.contraction_bound()
        assert kry.method == "krylov"
        assert kry.tail_bound <= 1e-8
        assert kry.tail_bound == pytest.approx(
            kry.residual_psi_norm / one_minus_b, rel=1e-15)
        assert weighted_gap(kry, sol, GRID.points) <= \
            kry.tail_bound + sol.residual_psi_norm / one_minus_b

    def test_agrees_with_neumann_mkz_symmetric(self):
        op = OperatorSpec("mkz-symmetric", 4, truncation_eps=1e-6)
        f = registry("psi") * registry("e1")
        kry = series_one(op, f, 1e-6, "krylov")
        neu = series_one(op, f, 1e-6, "neumann")
        assert kry.method == "krylov"
        assert kry.terms_used < neu.terms_used
        pts = op.grid(GRID).points
        assert weighted_gap(kry, neu, pts) <= kry.tail_bound + neu.tail_bound

    def test_one_cycle_then_solve(self, monkeypatch):
        # psi*osc on bernstein 32 takes 10 GMRES products (the weighted
        # stop; 11 to the 2-norm target); capped at 3 the one cycle ends
        # short of eps and the exact carrier solves the input
        op = OperatorSpec("bernstein", 32)
        f = registry("psi") * registry("osc")
        used = count_gmres(monkeypatch)
        assert series_one(op, f, 1e-8, "krylov").terms_used == 11
        monkeypatch.setattr(series, "_GMRES_MAX", 3)
        no_neumann(monkeypatch)
        res = series_one(op, f, 1e-8, "krylov")
        assert used == [10, 3]
        assert res.method == "solve"
        assert res.terms_used == 1 and res.tail_bound <= 1e-8
        assert_solved(res, op, f, 1e-8)

    def test_falls_back_to_solve(self, monkeypatch):
        monkeypatch.setattr(series, "_gmres",
                            lambda matvec, rhs, budget, psis, threshold:
                            (np.zeros_like(rhs), 0))
        no_neumann(monkeypatch)
        op = OperatorSpec("durrmeyer", 5, rho=1.0)
        res = series_one(op, registry("psi"), 1e-8, "krylov")
        assert res.method == "solve"
        assert res.tail_bound <= 1e-8
        assert_solved(res, op, registry("psi"), 1e-8)

    def test_solve_answers_past_exact_binomials(self, monkeypatch):
        # bernstein n = 1100: Krylov's certificate for sin_pi misses eps
        # (1 / (1 - b) = 1100 times the rounding of its residual), and the
        # exact solve meets it, with no Neumann sweep (which once summed
        # about 28,000 terms here and still missed eps)
        op = OperatorSpec("bernstein", 1100)
        f = registry("sin_pi")
        no_neumann(monkeypatch)
        (res,) = geometric_series(op, [f], 1e-8)
        assert res.method == "solve" and res.tail_bound <= 1e-8
        (want,) = geometric_series(op, [f], 1e-8, method="solve")
        assert_identical([res], [want], op.grid(None).points)
        assert np.array_equal(res.grid_values, want.grid_values)

    @pytest.mark.parametrize("n,name,cap,eps", [
        (4, "psi*e1", 3, 1e-6), (6, "sin_pi", 8, 1e-8), (12, "sin_pi", 10, 1e-8)],
        ids=["4", "6", "12"])
    def test_mkz_symmetric_capped_miss_is_answered_by_the_solve(
            self, n, name, cap, eps, monkeypatch):
        # the one cycle, capped at cap products, ends short of eps (psi*e1
        # at n = 4 misses 1e-6 after 3; sin_pi misses 1e-8 at n = 6 with
        # 4.1e-5 and at n = 12 with 6.2e-5); the input's solve on the
        # stack's factors answers it with its own certificate within
        # eps / 2, as on an exact carrier, with no second cycle and no sweep
        op = OperatorSpec("mkz-symmetric", n, truncation_eps=1e-6)
        f = registry("sin_pi") if name == "sin_pi" else registry("psi") * registry("e1")
        used = count_gmres(monkeypatch)
        monkeypatch.setattr(series, "_GMRES_MAX", cap)
        no_neumann(monkeypatch)
        res = series_one(op, f, eps, "krylov")
        assert used == [cap]
        assert res.method == "solve", "a capped miss goes to the solve"
        assert res.tail_bound <= eps / 2
        assert_solved(res, op, f, eps)

LAMBDA_CARRIERS = [OperatorSpec("bernstein", 8), OperatorSpec("bernstein", 33),
                   OperatorSpec("durrmeyer", 7, rho=2.0),
                   OperatorSpec("durrmeyer", 16, rho=1.0),
                   OperatorSpec("mkz-symmetric", 4, truncation_eps=1e-6),
                   OperatorSpec("mkz-symmetric", 8, truncation_eps=1e-6)]
MIXED_INPUTS = ["e1", "e3", "osc"]  # each times psi: both parities
SINGLE_PARITY_INPUTS = [registry("psi"), registry("sin_pi"),
                        registry("psi") * registry("sin_pi")]


@pytest.mark.parametrize("family", FAMILIES)
def test_every_lambda_class_carrier_is_mirror_symmetric(family):
    # the parity split of the Krylov path rests on this: the interior
    # coordinates reverse under x -> 1 - x and advance commutes with that
    # reversal; a family outside the class never reaches the series
    record = operators.family_record(family)
    for n in (4, 7):
        op = OperatorSpec(family, n, rho=record.default_rho,
                          truncation_eps=1e-6 if record.series else None)
        if not op.in_lambda_class:
            assert family in ("mkz", "mkz-reflected")
            with pytest.raises(DegenerateOperatorError):
                geometric_series(op, [registry("psi")], 1e-6, GRID)
            continue
        disc = node_discretization(op)
        nodes = disc.nodes[disc.interior]
        assert np.max(np.abs(nodes[::-1] - (1.0 - nodes))) <= 2.0**-52
        v = np.random.default_rng(n).standard_normal(disc.nodes.size)
        v[~disc.interior] = 0.0
        assert np.max(np.abs(disc.advance(v[::-1]) - disc.advance(v)[::-1])) \
            <= 1e-15 * np.max(np.abs(v))


@pytest.mark.parametrize("op", LAMBDA_CARRIERS, ids=lambda s: f"{s.family}-{s.n}")
class TestParitySplit:
    def test_never_more_products_than_one_gmres(self, op):
        eps = 1e-6 if op.record.series else 1e-8
        for name in MIXED_INPUTS + ["sin_pi"]:
            f = registry("psi") * registry(name)
            split = series_one(op, f, eps, "krylov")
            whole = unsplit_krylov(op, f, eps, GRID)
            assert split.method == whole.method == "krylov"
            assert split.terms_used <= whole.terms_used
            assert split.tail_bound <= eps

    def test_single_parity_input_agrees_with_one_gmres(self, op):
        # the half below the target gets no basis, so the split GMRES is
        # one GMRES on the other half: the same products, and the same
        # series within the two certificates
        eps = 1e-6 if op.record.series else 1e-8
        pts = op.grid(GRID).points
        for f in SINGLE_PARITY_INPUTS:
            split = series_one(op, f, eps, "krylov")
            whole = unsplit_krylov(op, project_to_Cpsi(f), eps, GRID)
            assert split.method == whole.method == "krylov"
            assert split.terms_used == whole.terms_used
            assert weighted_gap(split, whole, pts) <= \
                split.tail_bound + whole.tail_bound

    def test_weighted_stop_lands_within_half_eps(self, op, monkeypatch):
        # each cycle ends at the first of its two stops, so no result
        # takes more products than with the 2-norm target alone (stop
        # dropped); a result that the weighted stop ended sooner reads
        # tail_bound <= eps / 2
        eps = 1e-6 if op.record.series else 1e-8
        fs = [registry("psi") * registry(name) for name in MIXED_INPUTS]
        fs += SINGLE_PARITY_INPUTS
        got = [series_one(op, f, eps, "krylov") for f in fs]
        gmres = series._gmres
        monkeypatch.setattr(series, "_gmres", lambda matvec, rhs, budget, psis, _:
                            gmres(matvec, rhs, budget, psis, 0.0))
        plain = [series_one(op, f, eps, "krylov") for f in fs]
        sooner = []
        for res, alone in zip(got, plain):
            assert res.method == alone.method == "krylov"
            assert res.terms_used <= alone.terms_used
            if res.terms_used < alone.terms_used:
                sooner.append(res.tail_bound)
        # bernstein 8 and durrmeyer 7 (7 and 6 interior nodes) exhaust
        # each half's Krylov space before either stop
        assert bool(sooner) == (op.record.series or op.n > 8)
        assert max(sooner, default=0.0) <= eps / 2

    def test_within_the_certificates_of_neumann(self, op):
        eps = 1e-6 if op.record.series else 1e-8
        pts = op.grid(GRID).points
        for name in MIXED_INPUTS:
            f = registry("psi") * registry(name)
            split = series_one(op, f, eps, "krylov")
            neu = series_one(op, f, eps, "neumann")
            assert split.tail_bound <= eps and neu.tail_bound <= eps
            assert weighted_gap(split, neu, pts) <= split.tail_bound + neu.tail_bound


@pytest.mark.parametrize("op,name,eps", [
    (OperatorSpec("mkz-symmetric", 4, truncation_eps=1e-6), "e1", 1e-6),
    (OperatorSpec("bernstein", 32), "osc", 1e-8)],
    ids=["mkz-symmetric-4", "bernstein-32"])
def test_weighted_stop_reads_the_explicit_residual(op, name, eps, monkeypatch):
    # at the step where the weighted stop fires, the residual it formed
    # from the bases, with no product, equals rhs - A x formed by one
    # explicit product, to 1e-12 of rhs in the weighted sup over the
    # interior nodes
    gmres, arnoldi = series._gmres, series._arnoldi_residual
    cycles, residuals = [], []

    def recorded(matvec, rhs, budget, psis, threshold):
        x, used = gmres(matvec, rhs, budget, psis, threshold)
        cycles.append((matvec, rhs, psis, threshold, x, used))
        return x, used

    monkeypatch.setattr(series, "_gmres", recorded)
    monkeypatch.setattr(series, "_arnoldi_residual", lambda bases, shorts:
                        residuals.append(arnoldi(bases, shorts)) or residuals[-1])
    res = series_one(op, registry("psi") * registry(name), eps, "krylov")
    ((matvec, rhs, psis, threshold, x, used),) = cycles
    assert threshold == (1 - op.contraction_bound()) * eps / 2
    d = residuals[-1]
    assert np.max(np.abs(d) / psis) <= threshold  # the rule fired here
    explicit = (rhs - matvec(x)).sum(axis=0)
    scale = np.max(np.abs(rhs.sum(axis=0)) / psis)
    assert np.max(np.abs(d - explicit) / psis) <= 1e-12 * scale
    assert (res.method, res.terms_used) == ("krylov", used + 1)
    assert res.tail_bound <= eps / 2


@pytest.mark.parametrize("n", [4, 8])
def test_split_takes_fewer_products_on_mkz_symmetric(n):
    op = OperatorSpec("mkz-symmetric", n, truncation_eps=1e-6)
    f = registry("psi") * registry("e1")
    split = series_one(op, f, 1e-6, "krylov")
    assert split.terms_used < unsplit_krylov(op, f, 1e-6, GRID).terms_used


@pytest.mark.parametrize("op", [OperatorSpec("bernstein", 8),
                                OperatorSpec("bernstein", 9),
                                OperatorSpec("durrmeyer", 9, rho=1.0),
                                OperatorSpec("mkz-symmetric", 3, truncation_eps=1e-6)],
                         ids=lambda s: f"{s.family}-{s.n}")
def test_halves_keep_exact_parity(op):
    # the even half equals its reverse and the odd half minus its reverse,
    # bit for bit, for odd and even interior sizes, and so does every row
    # _gmres builds from them: its products and Arnoldi steps act on
    # mirror entries alike
    disc = node_discretization(op)
    idx = np.flatnonzero(disc.interior)

    def matvec(u):
        v = np.zeros(disc.nodes.size)
        v[idx] = u.sum(axis=0)
        return u - series._halves(disc.advance(v)[idx])

    def assert_parity(rows):
        even, odd = rows
        assert np.array_equal(even, even[::-1])
        assert np.array_equal(odd, -odd[::-1])
        if idx.size % 2:
            assert odd[idx.size // 2] == 0.0

    t = np.random.default_rng(op.n).standard_normal(idx.size)
    halves = series._halves(t)
    assert_parity(halves)
    sol, used = series._gmres(matvec, halves, 3, psi(disc.nodes[idx]), 0.0)
    assert used == 3 and np.any(sol, axis=1).all()
    assert_parity(sol)


@pytest.mark.parametrize("n", [3, 4, 6, 8])
def test_one_cycle_meets_eps_away_from_rounding(n, monkeypatch):
    # at eps 1e-11 every input of the batch-mkz workload is answered by
    # one GMRES cycle, certified about ten times inside eps
    op = OperatorSpec("mkz-symmetric", n, truncation_eps=1e-6)
    fs = [registry("psi"), registry("psi") * registry("e1"),
          registry("psi") * registry("sin_pi"),
          registry("psi") * registry("osc"), registry("sin_pi")]
    used = count_gmres(monkeypatch)
    no_neumann(monkeypatch)
    for res in geometric_series(op, fs, 1e-11, method="krylov"):
        assert res.method == "krylov" and res.tail_bound <= 1e-11
    assert len(used) == len(fs)


@pytest.mark.parametrize("method,op", [
    ("krylov", OperatorSpec("mkz-symmetric", 4, truncation_eps=1e-6)),
    ("krylov", OperatorSpec("bernstein", 8)),
    ("neumann", OperatorSpec("mkz-symmetric", 4, truncation_eps=1e-6)),
    ("solve", OperatorSpec("durrmeyer", 8, rho=1.0)),
    ("solve", OperatorSpec("mkz-symmetric", 4, truncation_eps=1e-6))],
    ids=lambda v: v if isinstance(v, str) else v.family)
def test_grid_values_are_g_on_the_family_grid(method, op):
    # the residual's evaluation of the grid basis also gives g there
    fs = [registry("psi") * registry("e1"), Function01.polynomial((0.0,)),
          registry("psi") * registry("osc")]
    pts = op.grid(GRID).points
    for res in geometric_series(op, fs, 1e-6, GRID, method=method):
        assert np.array_equal(res.grid_values, np.asarray(res.g(pts)))


@pytest.mark.parametrize("method", ["krylov", "neumann"])
def test_series_value_alone_matches_batch(method):
    # g = f + L(acc) sums each point's series to the point's own depth, so
    # a point's value does not depend on the other points of the call;
    # mkz-symmetric is the one series tag with a contraction below one
    op = OperatorSpec("mkz-symmetric", 8, truncation_eps=1e-6)
    fs = [registry("psi"), registry("psi") * registry("sin_pi"),
          registry("psi") * registry("osc")]
    pts = np.concatenate((op.grid(GRID).points[::4], [0.0, 1.0, 1e-12]))
    for res in geometric_series(op, fs, 1e-6, GRID, method=method):
        batch = np.asarray(res.g(pts))
        alone = np.array([res.g(x) for x in pts])
        assert np.max(np.abs(alone - batch)) <= 1e-14


class TestInversionIdentities:
    def test_bernstein_psi(self):
        r1, r2 = check_inversion_identities(OperatorSpec("bernstein", 6),
                                            registry("psi"), 1e-8, GRID)
        assert r1 <= 1e-7 and r2 <= 1e-7

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_eps_must_be_finite(self, eps):
        with pytest.raises(DomainError, match="finite"):
            check_inversion_identities(OperatorSpec("bernstein", 6),
                                       registry("psi"), eps, GRID)

    def test_zero(self):
        zero = Function01.polynomial((0.0,))
        r1, r2 = check_inversion_identities(OperatorSpec("bernstein", 6),
                                            zero, 1e-8, GRID)
        assert r1 == 0.0 and r2 == 0.0

    def test_durrmeyer_negative_psi(self):
        r1, r2 = check_inversion_identities(
            OperatorSpec("durrmeyer", 6, rho=1.0),
            registry("psi").scaled(-1.0), 1e-8, GRID)
        assert r1 <= 1e-7 and r2 <= 1e-7

    def test_one_representation(self, monkeypatch):
        # a durrmeyer representation is n - 1 Beta functionals; both
        # sweeps start from the one computed
        calls = []
        rep = NodeDiscretization.rep
        monkeypatch.setattr(NodeDiscretization, "rep",
                            lambda self, f: calls.append(f) or rep(self, f))
        r1, r2 = check_inversion_identities(
            OperatorSpec("durrmeyer", 9, rho=0.5),
            registry("psi") * registry("sin_pi"), 1e-8, GRID)
        assert len(calls) == 1
        assert r1 <= 1e-7 and r2 <= 1e-7

    def test_mkz_symmetric_within_budget(self):
        op = OperatorSpec("mkz-symmetric", 4, truncation_eps=1e-6)
        tau = node_discretization(op).truncation_error_bound
        r1, r2 = check_inversion_identities(op, registry("psi"), 1e-6, GRID)
        assert max(r1, r2) <= 10 * (1e-6 + tau)

    def test_mkz_symmetric_fills_no_stack(self, monkeypatch):
        # rep(h) streams the stack as the sweep and the certificates do, so
        # a fresh carrier still holds nothing after the call (an advance
        # filled 23.5 MB at n = 8); its residuals, about 5.5e-9, are those of a
        # carrier that holds its stack to well within their rounding
        monkeypatch.setattr(operators, "_DISC_CACHE", {})
        op = OperatorSpec("mkz-symmetric", 8, truncation_eps=1e-6)
        f = registry("psi") * registry("e1")
        streamed = check_inversion_identities(op, f, 1e-6, GRID)
        disc = node_discretization(op)
        assert disc.matrix_bytes == 0
        disc.advance(np.zeros(disc.nodes.size))
        held = check_inversion_identities(op, f, 1e-6, GRID)
        assert disc.matrix_bytes == disc.stack_bytes
        assert all(0.0 < r <= 1e-7 for r in held)
        assert np.all(np.abs(np.subtract(streamed, held)) <= 1e-12)


@pytest.mark.skipif(operators._openblas_threads() is None,
                    reason="numpy's BLAS thread count cannot be set here")
class TestOneBlasThread:
    """The scope that runs the paired series and the Gauss-Jacobi rules on
    one BLAS thread, and gives the process its count back on exit."""

    @staticmethod
    def count():
        return operators._openblas_threads()[0]()

    def test_restores_the_count_on_exit_error_and_nesting(self):
        start = self.count()
        with operators._one_blas_thread():
            assert self.count() == 1
        assert self.count() == start
        with pytest.raises(KeyError):
            with operators._one_blas_thread():
                raise KeyError("inside")
        assert self.count() == start
        with operators._one_blas_thread():
            with operators._one_blas_thread():
                assert self.count() == 1
            assert self.count() == 1
        assert self.count() == start
        with operators._one_blas_thread(False):
            assert self.count() == start
        assert operators._blas_scopes[0] == 0

    def test_overlapping_scopes_of_two_threads_restore_the_count(self):
        # each thread opens its scope, both wait inside, then one leaves
        # first while the other is still inside
        start, inside, errors = self.count(), threading.Barrier(2), []
        first_out = threading.Event()

        def work(leaves_first):
            try:
                with operators._one_blas_thread():
                    inside.wait(timeout=30)
                    if not leaves_first:
                        first_out.wait(timeout=30)
                        assert self.count() == 1
                if leaves_first:
                    first_out.set()
            except BaseException as exc:  # reported in the main thread
                errors.append(exc)

        workers = [threading.Thread(target=work, args=(k == 0,)) for k in range(2)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        assert errors == []
        assert self.count() == start and operators._blas_scopes[0] == 0

    def test_without_the_setter_the_scope_is_a_noop(self, monkeypatch):
        # with no count to set, the scope leaves it alone, and the series
        # run on a count pinned to 1 by hand gives the scoped results
        op = OperatorSpec("mkz-symmetric", 4, truncation_eps=1e-6)
        f = registry("psi") * registry("e1")
        want = geometric_series(op, [f], 1e-6, GRID)[0]
        get, put = operators._openblas_threads()
        start = get()
        monkeypatch.setattr(operators, "_openblas_threads", lambda: None)
        with operators._one_blas_thread():
            assert get() == start
        put(1)
        try:
            got = geometric_series(op, [f], 1e-6, GRID)[0]
        finally:
            put(start)
        assert got.tail_bound == want.tail_bound
        assert got.residual_psi_norm == want.residual_psi_norm
        assert np.array_equal(got.grid_values, want.grid_values)

    @pytest.mark.parametrize("held", [False, True])
    def test_paired_factors_run_on_one_thread(self, held, monkeypatch):
        # held or not: a stack one caller filled must not leave another
        # caller's series on the process count
        monkeypatch.setattr(operators, "_DISC_CACHE", {})
        op = OperatorSpec("mkz-symmetric", 4, truncation_eps=1e-6)
        disc = node_discretization(op)
        if held:
            disc.advance(np.zeros(disc.nodes.size))
        seen, inner = [], operators._low_rank_pairs
        monkeypatch.setattr(operators, "_low_rank_pairs",
                            lambda d: seen.append(self.count()) or inner(d))
        start = self.count()
        geometric_series(op, [registry("psi")], 1e-6, GRID)
        assert (disc._filled is not None) == held
        check_inversion_identities(op, registry("psi"), 1e-6, GRID)
        assert seen == [1, 1] and self.count() == start

    def test_gauss_jacobi_rules_run_on_one_thread(self, monkeypatch):
        seen, inner = [], np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda a: seen.append(self.count()) or inner(a))
        start = self.count()
        operators._beta_rules(np.array([2.0, 3.5]), np.array([3.0, 4.0]), 12)
        assert seen == [1] and self.count() == start

    def test_held_stack_iterates_keep_the_process_count(self, monkeypatch):
        monkeypatch.setattr(operators, "_DISC_CACHE", {})
        op = OperatorSpec("mkz-symmetric", 4, truncation_eps=1e-6)
        seen, inner = [], NodeDiscretization.advance
        monkeypatch.setattr(NodeDiscretization, "advance",
                            lambda d, v: seen.append(self.count()) or inner(d, v))
        start = self.count()
        iterate_apply(op, 4, registry("psi"), 0.3)
        assert seen == [start] * 3
        assert node_discretization(op)._filled is not None
