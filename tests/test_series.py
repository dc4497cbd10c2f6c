"""Iterates and the geometric series: the one entry and its request
checks, certified tails, the three methods, and the inversion
identities."""

import numpy as np
import pytest

from opgeom import series
from opgeom.errors import (DegenerateOperatorError, DomainError,
                           NotInCpsiError)
from opgeom.funcspace import (Function01, default_grid, project_to_Cpsi, psi,
                              psi_norm, registry)
from opgeom.operators import OperatorSpec, node_discretization
from opgeom.series import (check_inversion_identities, geometric_series,
                           iterate_apply, neumann_tail_terms)

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
        norm0 = psi_norm(f1, GRID).value
        for k in (5, 15, 30):
            vals = iterate_apply(op, k, f1, GRID.points)
            measured = np.max(np.abs(vals) / psi(GRID.points))
            assert measured <= b ** k * norm0 * (1 + 1e-9)

    def test_negative_order(self):
        with pytest.raises(DomainError):
            iterate_apply(OperatorSpec("bernstein", 4), -1, registry("psi"), 0.5)


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
        with pytest.raises(DomainError):
            series_one(OperatorSpec("bernstein", 4), registry("psi"), 0.0,
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


@pytest.mark.parametrize("method,op", [
    ("krylov", OperatorSpec("mkz-symmetric", 4, truncation_eps=1e-6)),
    ("krylov", OperatorSpec("durrmeyer", 5, rho=1.0)),
    ("solve", OperatorSpec("bernstein", 8)),
    ("solve", OperatorSpec("durrmeyer", 8, rho=1.0))],
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
            lhs = (1 - op.contraction_bound()) * psi_norm(res.g, GRID).value
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

    def test_rejects_series_family(self):
        with pytest.raises(DomainError, match="exact finite carrier"):
            series_one(OperatorSpec("mkz-symmetric", 4, truncation_eps=1e-8),
                       registry("psi"), 1e-8, "solve")


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

    def test_falls_back_to_neumann(self, monkeypatch):
        monkeypatch.setattr(series, "_gmres",
                            lambda matvec, rhs, budget: (np.zeros_like(rhs), 0))
        op = OperatorSpec("durrmeyer", 5, rho=1.0)
        res = series_one(op, registry("psi"), 1e-8, "krylov")
        assert res.method == "neumann"
        assert res.tail_bound <= 1e-8
        ref = series_one(op, registry("psi"), 1e-8, "neumann")
        assert res.terms_used == ref.terms_used
        assert weighted_gap(res, ref, GRID.points) == 0.0


class TestInversionIdentities:
    def test_bernstein_psi(self):
        r1, r2 = check_inversion_identities(OperatorSpec("bernstein", 6),
                                            registry("psi"), 1e-8, GRID)
        assert r1 <= 1e-7 and r2 <= 1e-7

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

    def test_mkz_symmetric_within_budget(self):
        op = OperatorSpec("mkz-symmetric", 4, truncation_eps=1e-6)
        tau = node_discretization(op).truncation_error_bound
        r1, r2 = check_inversion_identities(op, registry("psi"), 1e-6, GRID)
        assert max(r1, r2) <= 10 * (1e-6 + tau)
