"""Iterates and the geometric series: certified tails, the three
computation paths, and the inversion identities."""

import numpy as np
import pytest

from opgeom import series
from opgeom.errors import (DegenerateOperatorError, DomainError,
                           NotInCpsiError)
from opgeom.funcspace import (Function01, default_grid, project_to_Cpsi, psi,
                              psi_norm, registry)
from opgeom.operators import OperatorSpec, node_discretization
from opgeom.series import (check_inversion_identities,
                           geometric_series_krylov,
                           geometric_series_neumann,
                           geometric_series_neumann_batch,
                           geometric_series_solve, iterate_apply,
                           neumann_tail_terms)

GRID = default_grid(401)


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


class TestNeumann:
    def test_eigenfunction_closed_form(self):
        for n in (2, 8, 17):
            op = OperatorSpec("bernstein", n)
            res = geometric_series_neumann(op, registry("psi"), 1e-8, GRID)
            err = np.max(np.abs(np.asarray(res.g(GRID.points))
                                - n * psi(GRID.points)) / psi(GRID.points))
            assert err <= n * 1e-8
            assert res.tail_bound <= 1e-8
            assert res.residual_psi_norm <= 1e-7

    def test_zero_input(self):
        zero = Function01.polynomial((0.0,))
        res = geometric_series_neumann(OperatorSpec("bernstein", 4), zero,
                                       1e-8, GRID)
        assert res.terms_used == 0
        assert res.g(0.4) == 0.0

    def test_endpoint_gate(self):
        with pytest.raises(NotInCpsiError):
            geometric_series_neumann(OperatorSpec("bernstein", 4),
                                     registry("e2"), 1e-8, GRID)

    def test_requires_contraction(self):
        with pytest.raises(DegenerateOperatorError):
            geometric_series_neumann(OperatorSpec("mkz", 4, truncation_eps=1e-8),
                                     registry("psi"), 1e-6, GRID)
        with pytest.raises(DegenerateOperatorError):
            geometric_series_neumann(OperatorSpec("bernstein", 1),
                                     registry("psi"), 1e-8, GRID)

    def test_norm_bound_product(self):
        # (1 - |b|) G(psi) <= psi within tolerance
        for op in (OperatorSpec("bernstein", 8),
                   OperatorSpec("durrmeyer", 6, rho=1.0)):
            res = geometric_series_neumann(op, registry("psi"), 1e-8, GRID)
            lhs = (1 - op.contraction_bound()) * psi_norm(res.g, GRID).value
            assert lhs <= 1.0 + 1e-6

    def test_positivity_and_linearity(self):
        op = OperatorSpec("bernstein", 6)
        disc = node_discretization(op)
        f = registry("psi") * registry("abs_half")
        res = geometric_series_neumann(op, f, 1e-9, GRID)
        assert np.min(np.asarray(res.g(disc.nodes))) >= -1e-10
        g2 = registry("psi")
        ra = geometric_series_neumann(op, f.scaled(2.0) + g2.scaled(-0.5),
                                      1e-9, GRID)
        parts = (2.0 * np.asarray(res.g(disc.nodes))
                 - 0.5 * np.asarray(geometric_series_neumann(
                     op, g2, 1e-9, GRID).g(disc.nodes)))
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
        singles = [geometric_series_neumann(op, f, 1e-8, GRID) for f in fs]
        batch = geometric_series_neumann_batch(op, fs, 1e-8, GRID)
        x = GRID.points[::16]
        for s, b_ in zip(singles, batch):
            assert np.max(np.abs(np.asarray(s.g(x)) - np.asarray(b_.g(x)))) <= 1e-9

    def test_batch_of_one_matches_single_without_a_sweep(self):
        # the first tail bound already meets eps: K = 0, so G f ~ f alone
        op = OperatorSpec("bernstein", 8)
        f = registry("psi").scaled(1e-9)
        single = geometric_series_neumann(op, f, 1e-8, GRID)
        (batch,) = geometric_series_neumann_batch(op, [f], 1e-8, GRID)
        assert single.terms_used == batch.terms_used == 1
        assert single.tail_bound == batch.tail_bound
        x = GRID.points
        assert np.array_equal(np.asarray(batch.g(x)), np.asarray(single.g(x)))
        assert np.array_equal(np.asarray(single.g(x)), f(x))

    def test_batch_empty(self):
        op = OperatorSpec("bernstein", 4)
        assert geometric_series_neumann_batch(op, [], 1e-8, GRID) == []
        with pytest.raises(DomainError):
            geometric_series_neumann_batch(op, [], 0.0, GRID)


class TestSolve:
    def test_hand_solved_scalar_system(self):
        res = geometric_series_solve(OperatorSpec("bernstein", 2),
                                     registry("psi"), GRID)
        assert res.g(0.5) == pytest.approx(0.5, abs=1e-13)
        assert res.residual_psi_norm <= 1e-10

    def test_eigenfunction(self):
        for n in (2, 8, 17):
            res = geometric_series_solve(OperatorSpec("bernstein", n),
                                         registry("psi"), GRID)
            err = np.max(np.abs(np.asarray(res.g(GRID.points))
                                - n * psi(GRID.points)) / psi(GRID.points))
            assert err <= 1e-10

    def test_method_agreement(self):
        for op in (OperatorSpec("bernstein", 8),
                   OperatorSpec("durrmeyer", 7, rho=0.5)):
            f = project_to_Cpsi(registry("e3"))
            sol = geometric_series_solve(op, f, GRID)
            neu = geometric_series_neumann(op, f, 1e-8, GRID)
            diff = np.max(np.abs(np.asarray(sol.g(GRID.points))
                                 - np.asarray(neu.g(GRID.points)))
                          / psi(GRID.points))
            assert diff <= 1e-8 / (1 - op.contraction_bound()) + 1e-9

    def test_tail_bound_is_the_residual_certificate(self):
        # the residual is nonzero, so a zero tail bound would certify nothing
        op = OperatorSpec("bernstein", 8)
        res = geometric_series_solve(op, registry("psi"), GRID)
        assert res.residual_psi_norm > 0.0
        assert res.tail_bound == \
            res.residual_psi_norm / (1 - op.contraction_bound())

    def test_rejects_series_family(self):
        with pytest.raises(DomainError):
            geometric_series_solve(
                OperatorSpec("mkz-symmetric", 4, truncation_eps=1e-8),
                registry("psi"), GRID)


def weighted_gap(res_a, res_b, pts):
    return float(np.max(np.abs(np.asarray(res_a.g(pts))
                               - np.asarray(res_b.g(pts))) / psi(pts)))


class TestKrylov:
    @pytest.mark.parametrize("op", [
        OperatorSpec("bernstein", 8), OperatorSpec("bernstein", 32),
        OperatorSpec("durrmeyer", 7, rho=0.5)])
    def test_agrees_with_solve(self, op):
        f = project_to_Cpsi(registry("e3"))
        kry = geometric_series_krylov(op, f, 1e-8, GRID)
        sol = geometric_series_solve(op, f, GRID)
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
        kry = geometric_series_krylov(op, f, 1e-6, GRID)
        neu = geometric_series_neumann(op, f, 1e-6, GRID)
        assert kry.method == "krylov"
        assert kry.terms_used < neu.terms_used
        pts = op.grid(GRID).points
        assert weighted_gap(kry, neu, pts) <= kry.tail_bound + neu.tail_bound

    def test_zero_input(self):
        zero = Function01.polynomial((0.0,))
        res = geometric_series_krylov(OperatorSpec("bernstein", 4), zero,
                                      1e-8, GRID)
        assert res.terms_used == 0
        assert res.g(0.4) == 0.0

    def test_endpoint_gate(self):
        with pytest.raises(NotInCpsiError):
            geometric_series_krylov(OperatorSpec("bernstein", 4),
                                    registry("e2"), 1e-8, GRID)

    def test_requires_contraction(self):
        with pytest.raises(DegenerateOperatorError):
            geometric_series_krylov(OperatorSpec("mkz", 4, truncation_eps=1e-8),
                                    registry("psi"), 1e-6, GRID)
        with pytest.raises(DegenerateOperatorError):
            geometric_series_krylov(OperatorSpec("bernstein", 1),
                                    registry("psi"), 1e-8, GRID)
        with pytest.raises(DomainError):
            geometric_series_krylov(OperatorSpec("bernstein", 4),
                                    registry("psi"), 0.0, GRID)

    def test_falls_back_to_neumann(self, monkeypatch):
        monkeypatch.setattr(series, "_gmres",
                            lambda matvec, rhs, budget: (np.zeros_like(rhs), 0))
        op = OperatorSpec("durrmeyer", 5, rho=1.0)
        res = geometric_series_krylov(op, registry("psi"), 1e-8, GRID)
        assert res.method == "neumann"
        assert res.tail_bound <= 1e-8
        ref = geometric_series_neumann(op, registry("psi"), 1e-8, GRID)
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
