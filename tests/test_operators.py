"""Operator families: pointwise application, functionals, moments, the
contraction profile, and the node carriers."""

import math
from fractions import Fraction

import numpy as np
import pytest

from opgeom import operators
from opgeom.errors import DomainError, TruncationBudgetError
from opgeom.funcspace import default_grid, psi, registry
from opgeom.operators import (OperatorSpec, _mkz_node_depth, alpha_profile,
                              bernstein_apply, condition_report,
                              durrmeyer_apply, durrmeyer_functional,
                              mkz_apply, mkz_truncation_index, moment,
                              node_discretization)
from opgeom.special import mkz_weight_row

GRID = default_grid(401)
X = GRID.points[::8]


class TestSpecValidation:
    def test_family_and_order(self):
        with pytest.raises(DomainError):
            OperatorSpec("szasz", 4)
        with pytest.raises(DomainError):
            OperatorSpec("bernstein", 0)
        with pytest.raises(DomainError):
            OperatorSpec("durrmeyer", 4)  # missing rho
        with pytest.raises(DomainError):
            OperatorSpec("mkz", 4)  # missing truncation_eps
        with pytest.raises(DomainError):
            OperatorSpec("mkz-symmetric", 2, truncation_eps=1e-8)

    def test_order_must_be_an_integer(self):
        for n in (4.5, 4.0, "4", True):
            with pytest.raises(DomainError):
                OperatorSpec("bernstein", n)
            with pytest.raises(DomainError):
                OperatorSpec("mkz-symmetric", n, truncation_eps=1e-8)
        assert OperatorSpec("bernstein", np.int64(4)).n == 4

    def test_lambda_membership(self):
        assert not OperatorSpec("bernstein", 1).in_lambda_class
        assert OperatorSpec("bernstein", 2).in_lambda_class
        assert OperatorSpec("durrmeyer", 2, rho=0.5).in_lambda_class
        assert not OperatorSpec("mkz", 4, truncation_eps=1e-8).in_lambda_class
        assert OperatorSpec("mkz-symmetric", 4, truncation_eps=1e-8).in_lambda_class

    def test_family_grid_caps(self):
        base = default_grid(801)
        n = 8
        for family, lo, hi in [
            ("mkz", 0.0, 1.0 - 1 / 32), ("mkz-reflected", 1 / 32, 1.0),
                ("mkz-symmetric", 1 / 32, 1.0 - 1 / 32)]:
            g = OperatorSpec(family, n, truncation_eps=1e-8).grid(base)
            assert g.points[0] >= lo and g.points[-1] <= hi


class TestBernstein:
    def test_order_one_is_endpoint_interpolation(self):
        f = registry("exp")
        got = bernstein_apply(1, f, 0.3)
        assert got == pytest.approx(0.7 * f(0.0) + 0.3 * f(1.0), rel=1e-15)

    def test_linear_reproduction(self):
        assert np.max(np.abs(bernstein_apply(13, registry("e1"), X) - X)) <= 1e-14

    def test_e2_value(self):
        assert bernstein_apply(2, registry("e2"), 0.5) == pytest.approx(0.375)

    def test_eigenfunction(self):
        for n in (2, 9, 32):
            got = bernstein_apply(n, registry("psi"), X)
            assert np.max(np.abs(got - (1 - 1 / n) * psi(X))) <= 1e-12

    def test_endpoint_interpolation_exact(self):
        f = registry("sin_pi")
        assert bernstein_apply(7, f, 0.0) == f(0.0)
        assert bernstein_apply(7, f, 1.0) == f(1.0)


class TestDurrmeyerFunctional:
    def test_unit_and_mean(self):
        for (n, k, rho) in [(6, 1, 0.5), (6, 3, 1.0), (9, 8, 2.0)]:
            assert durrmeyer_functional(n, k, rho, registry("e0")) == pytest.approx(
                1.0, rel=1e-13)
            assert durrmeyer_functional(n, k, rho, registry("e1")) == pytest.approx(
                k / n, rel=1e-13)

    def test_second_moment_fraction_oracle(self):
        # Beta(2,2): E t^2 = a(a+1)/((a+b)(a+b+1)) = 6/20
        exact = Fraction(2 * 3, 4 * 5)
        assert durrmeyer_functional(4, 2, 1.0, registry("e2")) == pytest.approx(
            float(exact), rel=1e-14)

    def test_closed_vs_quadrature(self):
        for name in ("e0", "e1", "e2", "e3", "e4", "psi"):
            f = registry(name)
            for (n, k, rho) in [(6, 2, 0.5), (8, 5, 1.0), (5, 1, 2.0)]:
                a = durrmeyer_functional(n, k, rho, f, method="closed-form")
                b = durrmeyer_functional(n, k, rho, f, method="quadrature")
                assert a == pytest.approx(b, abs=1e-8)

    def test_kinked_input_routes_to_composite(self):
        got = durrmeyer_functional(6, 3, 1.0, registry("abs_half"))
        # integral of |t-1/2| against Beta(3,3), split at the kink
        from scipy.integrate import quad
        b33 = math.gamma(3) ** 2 / math.gamma(6)
        ref = sum(quad(lambda t: abs(t - 0.5) * t ** 2 * (1 - t) ** 2, a, b,
                       epsabs=1e-14)[0] for (a, b) in [(0, 0.5), (0.5, 1)]) / b33
        assert got == pytest.approx(ref, abs=1e-10)

    def test_parameter_errors(self):
        with pytest.raises(DomainError):
            durrmeyer_functional(6, 0, 1.0, registry("e0"))
        with pytest.raises(DomainError):
            durrmeyer_functional(6, 6, 1.0, registry("e0"))
        with pytest.raises(DomainError):
            durrmeyer_functional(6, 2, -1.0, registry("e0"))
        with pytest.raises(DomainError):
            durrmeyer_functional(6, 2, 1.0, registry("sin_pi"), method="closed-form")


class TestDurrmeyerApply:
    def test_linear_and_unit(self):
        for rho in (0.5, 1.0, 2.0):
            got = durrmeyer_apply(7, rho, registry("e1"), X)
            assert np.max(np.abs(got - X)) <= 1e-10
            got0 = durrmeyer_apply(7, rho, registry("e0"), X)
            assert np.max(np.abs(got0 - 1.0)) <= 1e-10

    def test_psi_eigen_form(self):
        n, rho = 9, 0.5
        got = durrmeyer_apply(n, rho, registry("psi"), X)
        ref = (1.0 - (rho + 1) / (n * rho + 1)) * psi(X)
        assert np.max(np.abs(got - ref)) <= 1e-12


class TestMkzApply:
    def test_unit_and_linear(self):
        xs = np.array([0.0, 0.2, 0.5, 0.85])
        assert np.max(np.abs(mkz_apply(5, registry("e0"), xs, 1e-10) - 1.0)) <= 1e-10
        assert np.max(np.abs(mkz_apply(5, registry("e1"), xs, 1e-10) - xs)) <= 1e-10

    def test_exact_branch_at_one(self):
        assert mkz_apply(4, registry("exp"), 1.0, 1e-10) == math.e

    def test_truncation_budget(self):
        with pytest.raises(TruncationBudgetError):
            mkz_truncation_index(4, 1.0 - 1e-9, 1e-10)
        with pytest.raises(TruncationBudgetError):
            mkz_apply(4, registry("e0"), 1.0 - 1e-9, 1e-10)

    def test_reflection_identity(self):
        f = registry("exp")
        for x in (0.1, 0.45, 0.9):
            lhs = OperatorSpec("mkz-reflected", 5, truncation_eps=1e-11).apply(f, x)
            rhs = mkz_apply(5, f.reflected(), 1.0 - x, 1e-11)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_symmetric_basics(self):
        xs = np.array([0.1, 0.5, 0.9])
        sym = OperatorSpec("mkz-symmetric", 5, truncation_eps=1e-10)
        got = sym.apply(registry("e1"), xs)
        assert np.max(np.abs(got - xs)) <= 1e-10
        # symmetric input at the symmetry point reduces to the plain value
        f = registry("psi")
        a = OperatorSpec("mkz-symmetric", 6, truncation_eps=1e-11).apply(f, 0.5)
        b = mkz_apply(6, f, 0.5, 1e-11)
        assert a == pytest.approx(b, abs=1e-11)

    def test_symmetric_endpoints(self):
        f = registry("exp")
        sym = OperatorSpec("mkz-symmetric", 4, truncation_eps=1e-10)
        assert sym.apply(f, 0.0) == pytest.approx(f(0.0), abs=1e-15)
        assert sym.apply(f, 1.0) == pytest.approx(f(1.0), abs=1e-15)


class TestMoments:
    def test_first_moment_vanishes(self):
        for spec in (OperatorSpec("bernstein", 7),
                     OperatorSpec("durrmeyer", 7, rho=1.5),
                     OperatorSpec("mkz", 7, truncation_eps=1e-12),
                     OperatorSpec("mkz-symmetric", 7, truncation_eps=1e-12)):
            for x in (0.2, 0.5, 0.8):
                assert abs(moment(spec, 1, x)) <= 1e-12

    def test_bernstein_m2(self):
        spec = OperatorSpec("bernstein", 11)
        for x in X:
            assert moment(spec, 2, float(x)) == pytest.approx(
                psi(x) / 11, abs=1e-13)

    def test_durrmeyer_m2(self):
        spec = OperatorSpec("durrmeyer", 8, rho=2.0)
        for x in X:
            assert moment(spec, 2, float(x)) == pytest.approx(
                3.0 * psi(x) / 17.0, abs=1e-12)

    def test_mkz_m2_rational_oracle(self):
        # short exact-rational partial sum plus a certified tail bound
        n, x = 3, Fraction(1, 4)
        partial = Fraction(0)
        w = (1 - x) ** (n + 1)
        for k in range(120):
            partial += w * (Fraction(k, n + k) - x) ** 2
            w = w * x * (n + k + 1) / (k + 1)
        tail = float(w) / (1.0 - float((1 + x) / 2))
        got = moment(OperatorSpec("mkz", n, truncation_eps=1e-14), 2, 0.25)
        assert abs(got - float(partial)) <= tail + 1e-13

    def test_symmetric_even_moment_identity(self):
        spec = OperatorSpec("mkz-symmetric", 5, truncation_eps=1e-12)
        plain = OperatorSpec("mkz", 5, truncation_eps=1e-12)
        for x in (0.2, 0.5, 0.7):
            lhs = moment(spec, 2, x)
            rhs = 0.5 * (moment(plain, 2, x) + moment(plain, 2, 1.0 - x))
            assert lhs == pytest.approx(rhs, abs=1e-13)


class TestAlphaProfile:
    def test_bernstein_constant(self):
        prof = alpha_profile(OperatorSpec("bernstein", 9), GRID)
        assert np.max(np.abs(prof.alpha_values - 1 / 9)) <= 1e-13
        assert prof.nu == pytest.approx(1 / 9, rel=1e-13)
        assert prof.eta <= 1e-10
        assert prof.b_norm == pytest.approx(1 - 1 / 9, rel=1e-13)

    def test_durrmeyer_constant(self):
        prof = alpha_profile(OperatorSpec("durrmeyer", 6, rho=2.0), GRID)
        assert prof.nu == pytest.approx(3.0 / 13.0, rel=1e-12)
        assert prof.eta <= 1e-10

    def test_reflected_mirrors_plain(self):
        # the zero-share plain branch of mkz-reflected is never evaluated,
        # so its grid may reach 1 as closely as the plain grid reaches 0
        plain = alpha_profile(OperatorSpec("mkz", 5, truncation_eps=1e-8), GRID)
        refl = alpha_profile(
            OperatorSpec("mkz-reflected", 5, truncation_eps=1e-8), GRID)
        mirrored = plain.alpha(1.0 - refl.grid.points[refl.grid.points < 0.99])
        got = refl.alpha_values[refl.grid.points < 0.99]
        assert np.max(np.abs(got - mirrored)) <= 1e-12

    def test_symmetric_bounds(self):
        # the lower contraction bound and the oscillation-ratio bound
        # hold; the mirrored upper alpha bound (n+2)/(2(n+1)^2) is violated
        # by the exact moment (see the acceptance suite)
        for n in (4, 8):
            prof = alpha_profile(
                OperatorSpec("mkz-symmetric", n, truncation_eps=1e-10), GRID)
            assert prof.nu >= 1.0 / (2 * (n + 1)) - 1e-12
            assert prof.eta <= 1.0 / (n + 1) + 1e-12
            assert prof.b_norm < 1.0


class TestNodeDiscretization:
    def test_bernstein_middle_row(self):
        disc = node_discretization(OperatorSpec("bernstein", 2))
        assert np.allclose(disc.nodes, [0.0, 0.5, 1.0])
        assert np.allclose(disc.transfer[1], [0.25, 0.5, 0.25])

    def test_durrmeyer_row_sums_and_means(self):
        disc = node_discretization(OperatorSpec("durrmeyer", 7, rho=0.5))
        sums = disc.transfer.sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) <= 1e-12
        means = disc.transfer @ disc.nodes
        assert np.max(np.abs(means - disc.nodes)) <= 1e-12
        assert np.min(disc.transfer) >= 0.0

    def test_mkz_row_sums(self):
        disc = node_discretization(OperatorSpec("mkz", 3, truncation_eps=1e-8))
        sums = disc.transfer.sum(axis=1)
        assert np.all(sums >= 1.0 - 1e-8)
        assert np.all(sums <= 1.0 + 1e-12)
        assert np.min(disc.transfer) >= 0.0
        assert disc.truncation_error_bound <= 1e-8

    def test_mkz_linear_preservation_certified_rows(self):
        spec = OperatorSpec("mkz", 4, truncation_eps=1e-8)
        disc = node_discretization(spec)
        cap = 1.0 - 1.0 / 16.0
        rows = disc.nodes <= cap
        means = (disc.transfer @ disc.nodes)[rows]
        err = np.abs(means - disc.nodes[rows])
        assert np.max(err) <= disc.truncation_error_bound + 1e-12

    def test_consistency_one_application(self):
        f = registry("exp")
        for spec in (OperatorSpec("bernstein", 8),
                     OperatorSpec("durrmeyer", 6, rho=1.0),
                     OperatorSpec("mkz", 5, truncation_eps=1e-9),
                     OperatorSpec("mkz-reflected", 5, truncation_eps=1e-9),
                     OperatorSpec("mkz-symmetric", 5, truncation_eps=1e-9)):
            disc = node_discretization(spec)
            lo, hi = spec.certified_interval()
            mask = disc.interior & (disc.nodes >= lo) & (disc.nodes <= hi)
            nodes = disc.nodes[mask][:: max(1, mask.sum() // 25)]
            direct = np.asarray(spec.apply(f, nodes))
            via = disc.apply_rep(disc.rep(f), nodes)
            tol = disc.truncation_error_bound * math.e + 1e-10
            assert np.max(np.abs(via - direct)) <= tol

    def test_positivity_on_nonnegative_input(self):
        f = registry("abs_half")
        for spec in (OperatorSpec("bernstein", 6),
                     OperatorSpec("mkz-symmetric", 5, truncation_eps=1e-9)):
            vals = np.asarray(spec.apply(f, spec.grid(GRID).points[::16]))
            assert np.min(vals) >= -1e-12

    def test_contraction_of_psi(self):
        for spec in (OperatorSpec("bernstein", 6),
                     OperatorSpec("durrmeyer", 6, rho=1.0),
                     OperatorSpec("mkz", 6, truncation_eps=1e-12),
                     OperatorSpec("mkz-symmetric", 6, truncation_eps=1e-12)):
            pts = spec.grid(GRID).points[::16]
            vals = np.asarray(spec.apply(registry("psi"), pts))
            assert np.max(vals - psi(pts)) <= 1e-12


def _dense_series_carrier(spec, xs=None):
    """(nodes, rows, routed mass per row) of a series family, built row by
    row at the points xs (by default the nodes, whose rows are the
    transfer): each branch scatters share * mkz_weight_row onto its nodes
    k/(n+k) (plain) or n/(n+k) (reflected) and routes the row's omitted
    mass to its hard endpoint (1 plain, 0 reflected).

    With equal shares the carrier computes a node row above 1/2 as the
    mirror of its partner's row at the node x' < 1/2, and the float
    1 - x' can differ from x by an ulp, which moves the routed mass of a
    row near 1 by about 1e-14.  So the node rows above 1/2 are mirrors here
    too: the node set is symmetric, and reversing it maps each node to its
    partner.  Rows at other points are computed directly, as apply_rep
    does."""
    n, depth = spec.n, _mkz_node_depth(spec)
    k = np.arange(depth + 1)
    used = [(s, r) for s, r in zip(spec.record.shares, (False, True)) if s]
    nodes = np.unique(np.concatenate(
        [n / (n + k) if r else k / (n + k) for _, r in used] + [[0.0, 1.0]]))
    at = nodes if xs is None else xs
    rows = np.zeros((at.size, nodes.size))
    routed = np.zeros(at.size)
    for share, reflect in used:
        cols = np.searchsorted(nodes, n / (n + k) if reflect else k / (n + k))
        end = 0 if reflect else -1
        for i, x in enumerate(at):
            t = 1.0 - x if reflect else x
            mass = share
            if t < 1.0:
                w = share * mkz_weight_row(n, t, depth)
                rows[i, cols] += w
                mass = max(0.0, share - w.sum())
            rows[i, end] += mass
            routed[i] += mass
    if xs is None and spec.record.shares[0] == spec.record.shares[1]:
        high = nodes > 0.5
        rows[high] = rows[::-1, ::-1][high]
        routed[high] = routed[::-1][high]
    return nodes, rows, routed


SERIES_CARRIERS = [OperatorSpec(fam, n, truncation_eps=eps)
                   for fam in ("mkz", "mkz-reflected", "mkz-symmetric")
                   for n in (3, 4, 6, 8) for eps in (1e-6, 1e-10)]


@pytest.mark.parametrize("spec", SERIES_CARRIERS,
                         ids=lambda s: f"{s.family}-{s.n}-{s.truncation_eps:g}")
class TestSeriesCarrier:
    """The branch-coordinate carrier against a row-by-row dense build;
    n = 4 and 6 have merged nodes p_j = r_m (j m = n^2)."""

    def test_matches_dense_build(self, spec):
        disc = node_discretization(spec)
        nodes, transfer, routed = _dense_series_carrier(spec)
        assert np.array_equal(disc.nodes, nodes)
        assert np.max(np.abs(disc.transfer - transfer)) <= 1e-14
        lo, hi = spec.certified_interval()
        certified = (nodes >= lo) & (nodes <= hi)
        assert abs(disc.truncation_error_bound
                   - np.max(routed[certified])) <= 1e-15

    def test_apply_rep_matches_basis_matrix(self, spec):
        # the basis matrix here is the dense build's rows at the points
        disc = node_discretization(spec)
        # more points than one 512-point block, endpoints included
        xs = np.concatenate(([0.0, 1.0, 0.5], np.linspace(0.0, 1.0, 601)))
        _, rows, _ = _dense_series_carrier(spec, xs)
        rng = np.random.default_rng(spec.n)
        for rep in (rng.standard_normal(disc.nodes.size),
                    rng.standard_normal((disc.nodes.size, 3))):
            got = disc.apply_rep(rep, xs)
            assert got.shape == (xs.size,) + rep.shape[1:]
            assert np.max(np.abs(got - rows @ rep)) <= 1e-13


class TestCarrierMemoryBudget:
    def test_oversized_carriers_raise_before_building(self):
        for family in ("mkz", "mkz-symmetric"):
            with pytest.raises(TruncationBudgetError, match="GiB"):
                node_discretization(OperatorSpec(family, 64, truncation_eps=1e-6))

    @pytest.mark.parametrize("family", ["mkz", "mkz-reflected"])
    def test_one_branch_build_counts_weights_and_transfer(self, family,
                                                          monkeypatch):
        # the one-branch build holds the N x (depth+1) weights next to the
        # N x N transfer, N = depth + 2; a cap that fits the transfer alone
        # must refuse it
        spec = OperatorSpec(family, 4, truncation_eps=1e-6)
        depth = _mkz_node_depth(spec)
        transfer = 8 * (depth + 2) ** 2
        weights = 8 * (depth + 2) * (depth + 1)
        monkeypatch.setattr(operators, "_DISC_CACHE", {})
        monkeypatch.setattr(operators, "_CARRIER_BYTES_CAP",
                            transfer + weights - 1)
        with pytest.raises(TruncationBudgetError, match="GiB"):
            node_discretization(spec)
        monkeypatch.setattr(operators, "_CARRIER_BYTES_CAP", transfer + weights)
        assert node_discretization(spec).transfer.shape == (depth + 2,) * 2


class TestConditionReport:
    def test_bernstein_columns(self):
        rows = condition_report("bernstein", (4, 8, 16), GRID)
        for row in rows:
            n = row["n"]
            assert row["sup_m4_over_m2"] <= 0.75 / n - 0.5 / n ** 2 + 1e-12
            assert row["eta"] <= 1e-12
            assert row["cond55"] == 0.0
        sups = [row["sup_m4_over_m2"] for row in rows]
        assert all(b < a for a, b in zip(sups, sups[1:]))

    def test_durrmeyer_columns(self):
        rows = condition_report("durrmeyer", (4, 8), GRID, rho=1.0)
        sups = [row["sup_m4_over_m2"] for row in rows]
        assert all(b < a for a, b in zip(sups, sups[1:]))
        assert all(row["eta"] <= 1e-12 for row in rows)

    def test_symmetric_columns_decreasing(self):
        small = default_grid(201)
        rows = condition_report("mkz-symmetric", (4, 8), small,
                                truncation_eps=1e-8)
        for col in ("sup_m4_over_m2", "eta", "cond55"):
            vals = [row[col] for row in rows]
            assert vals[1] < vals[0], col
        assert all(row["eta"] <= 1.0 / (row["n"] + 1) + 1e-12 for row in rows)
