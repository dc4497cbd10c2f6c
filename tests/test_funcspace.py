"""Function space: the weight, the weighted norm, endpoint interpolation,
the kernel transform, and the registry."""

import math

import numpy as np
import pytest

from opgeom import funcspace
from opgeom.errors import DomainError, QuadratureError, StepSizeError
from opgeom.funcspace import (EvaluationGrid, F_transform, Function01,
                              apply_B1, check_F_second_derivative,
                              default_grid, modulus_of_continuity,
                              project_to_Cpsi, psi, psi_norm, registry,
                              registry_names)


def test_psi_values():
    assert psi(0.0) == 0.0
    assert psi(0.5) == 0.25
    assert psi(0.3) == pytest.approx(0.21, rel=1e-15)
    assert np.allclose(psi(np.array([0.0, 0.5])), [0.0, 0.25])


def test_registry_names_exact():
    assert registry_names() == ("abs_half", "e0", "e1", "e2", "e3", "e4",
                                "exp", "osc", "psi", "sin_pi")
    with pytest.raises(KeyError):
        registry("nope")


def test_registry_second_derivatives():
    x = np.linspace(0.05, 0.95, 7)
    assert np.allclose(registry("e2").second_derivative()(x), 2.0)
    assert np.allclose(registry("e3").second_derivative()(x), 6.0 * x)
    assert np.allclose(registry("psi").second_derivative()(x), -2.0)
    assert np.allclose(registry("sin_pi").second_derivative()(x),
                       -math.pi ** 2 * np.sin(math.pi * x))
    assert registry("abs_half").second_derivative() is None
    assert registry("osc").second_derivative() is None


def test_osc_endpoint_convention():
    f = registry("osc")
    assert f(0.0) == 0.0 and f(1.0) == 0.0
    assert abs(f(0.5)) <= 1.0


class TestGrid:
    def test_schemes(self):
        g = EvaluationGrid.chebyshev_interior(101)
        assert g.count == 101 and 0.0 < g.points[0] and g.points[-1] < 1.0
        u = EvaluationGrid.uniform_interior(9)
        assert np.allclose(u.points, np.arange(1, 10) / 10.0)

    def test_validation(self):
        with pytest.raises(DomainError):
            EvaluationGrid(points=np.array([0.1, 0.2]), scheme="uniform-interior")
        with pytest.raises(DomainError):
            EvaluationGrid(points=np.array([0.0, 0.2, 0.4]), scheme="uniform-interior")

    def test_restricted_and_refined(self):
        g = default_grid(201)
        r = g.restricted(0.25, 0.75)
        assert r.points[0] >= 0.25 and r.points[-1] <= 0.75
        assert g.refined().count == 2 * g.count


class TestPsiNorm:
    def test_eigen_ratio(self):
        assert psi_norm(registry("psi")).value == pytest.approx(1.0, rel=1e-14)
        scaled = registry("psi").scaled(0.3)
        assert psi_norm(scaled).value == pytest.approx(0.3, rel=1e-14)

    def test_unattained_sup(self):
        # f/psi = (1+x)/6 has sup 1/3 approached only at x -> 1
        f = registry("psi") * Function01.polynomial((1 / 6, 1 / 6))
        est = psi_norm(f)
        grid_max = (1.0 + est.grid.points[-1]) / 6.0
        assert est.value == pytest.approx(grid_max, rel=1e-14)
        assert est.value < 1.0 / 3.0
        assert est.argmax_point == est.grid.points[-1]
        # grid refinement moves the estimate toward the sup by < 1%
        refined = psi_norm(f, est.grid.refined())
        assert abs(refined.value - est.value) / est.value < 0.01

    def test_homogeneity_and_triangle(self):
        rng = np.random.default_rng(3)
        f = registry("sin_pi")
        g = registry("psi")
        base = psi_norm(f).value
        for c in rng.uniform(-4, 4, 12):
            assert psi_norm(f.scaled(float(c))).value == pytest.approx(
                abs(c) * base, rel=1e-13)
        assert psi_norm(f + g).value <= psi_norm(f).value + psi_norm(g).value + 1e-12

    def test_overflow_signal(self):
        huge = Function01.polynomial((1e303,))
        with pytest.raises(OverflowError):
            psi_norm(huge)


class TestB1AndProjection:
    def test_b1_examples(self):
        x = np.linspace(0, 1, 11)
        assert np.allclose(apply_B1(registry("e2"))(x), x, atol=1e-15)
        assert np.allclose(apply_B1(registry("e0"))(x), 1.0, atol=1e-15)
        assert np.allclose(apply_B1(registry("sin_pi"))(x), 0.0, atol=1e-15)

    def test_b1_idempotent(self):
        x = np.linspace(0, 1, 23)
        f = registry("exp")
        once = apply_B1(f)
        twice = apply_B1(once)
        assert np.max(np.abs(once(x) - twice(x))) <= 1e-15

    def test_projection(self):
        x = np.linspace(0, 1, 23)
        assert np.allclose(project_to_Cpsi(registry("e1"))(x), 0.0, atol=1e-15)
        assert np.allclose(project_to_Cpsi(registry("e2"))(x), -psi(x), atol=1e-15)
        both = registry("e0") + registry("e2")
        assert np.allclose(project_to_Cpsi(both)(x), -psi(x), atol=1e-14)
        for name in registry_names():
            p = project_to_Cpsi(registry(name))
            assert p(0.0) == 0.0 and p(1.0) == 0.0


class TestFTransform:
    def test_closed_forms(self):
        x = default_grid().points
        assert np.max(np.abs(F_transform(registry("e0"))(x) - psi(x) / 2)) <= 1e-10
        ref = psi(x) * (1 + x) / 6
        assert np.max(np.abs(F_transform(registry("e1"))(x) - ref)) <= 1e-10
        assert F_transform(registry("e1"))(0.5) == pytest.approx(0.0625, abs=1e-12)
        assert F_transform(registry("e0"))(0.5) == pytest.approx(0.125, abs=1e-12)

    def test_quartic_oracle(self):
        # solving u'' = -psi with vanishing endpoint values gives
        # u = psi (1 + psi) / 12
        x = default_grid().points
        got = F_transform(registry("psi"))(x)
        assert np.max(np.abs(got - psi(x) * (1 + psi(x)) / 12)) <= 1e-12

    def test_endpoints_vanish(self):
        for name in ("e0", "exp", "abs_half", "osc"):
            F = F_transform(registry(name))
            assert F(0.0) == 0.0 and F(1.0) == 0.0

    def test_linearity(self):
        x = default_grid(301).points
        f, g = registry("e1"), registry("sin_pi")
        combo = f.scaled(2.0) + g.scaled(-0.5)
        grid = default_grid(301)
        lhs = F_transform(combo, grid=grid)(x)
        rhs = 2.0 * F_transform(f, grid=grid)(x) - 0.5 * F_transform(g, grid=grid)(x)
        assert np.max(np.abs(lhs - rhs)) <= 1e-11

    def test_maps_into_weighted_space(self):
        grid = default_grid(301)
        for name in registry_names():
            f = registry(name)
            F = F_transform(f, grid=grid)
            absf = Function01(lambda t, ff=f: np.abs(np.asarray(ff(t))))
            Fabs = F_transform(absf, grid=grid)
            est = psi_norm(F, grid)
            assert np.isfinite(est.value)
            x = grid.points
            assert np.all(np.abs(F(x)) <= Fabs(x) + 1e-12)

    def test_second_difference(self):
        assert check_F_second_derivative(registry("e0"), 0.5, 1e-3) == pytest.approx(
            -1.0, abs=1e-5)
        assert check_F_second_derivative(registry("e1"), 0.25, 1e-3) == pytest.approx(
            -0.25, abs=1e-5)
        assert check_F_second_derivative(registry("psi"), 0.5, 1e-3) == pytest.approx(
            -0.25, abs=1e-5)

    def test_step_errors(self):
        with pytest.raises(StepSizeError):
            check_F_second_derivative(registry("e0"), 0.5, 1e-9)
        with pytest.raises(DomainError):
            check_F_second_derivative(registry("e0"), 0.01, 0.05)

    def test_oscillatory_budget(self):
        F = F_transform(registry("osc"))
        assert F.quad_error_bound <= 1e-3
        assert np.isfinite(psi_norm(F).value)

    def test_oscillatory_stall_bound_and_budget(self, monkeypatch):
        bound = F_transform(registry("osc")).quad_error_bound
        assert 0.0 < bound <= 1e-6
        monkeypatch.setattr(funcspace, "_STALL_BUDGET", 0.5 * bound)
        with pytest.raises(QuadratureError):
            F_transform(registry("osc"))

    def test_weighted_closed_forms(self):
        # |F - F_exact| / psi on the default grid, whose end points lie
        # 6e-7 from 0 and 1; the exact forms are evaluated in y = min(x,
        # 1-x) where they are symmetric, so they carry no cancellation
        x = default_grid().points
        y = np.minimum(x, 1.0 - x)
        exact = {"e0": psi(x) / 2, "e1": psi(x) * (1 + x) / 6,
                 "psi": psi(x) * (1 + psi(x)) / 12,
                 "sin_pi": np.sin(math.pi * y) / math.pi ** 2,
                 # u'' = -|x - 1/2| with u(0) = u(1) = 0
                 "abs_half": y / 8 - y ** 2 / 4 + y ** 3 / 6}
        for name, ref in exact.items():
            got = F_transform(registry(name))(x)
            assert np.max(np.abs(got - ref) / psi(x)) <= 1e-13, name

    def test_off_grid_points(self):
        x = np.linspace(0.0, 1.0, 52)[1:-1] + 1e-3 / 7
        got = F_transform(registry("sin_pi"))(x)
        assert np.max(np.abs(got - np.sin(math.pi * x) / math.pi ** 2)) <= 1e-14

    def test_few_integrand_calls(self):
        # every grid segment goes through the one batched panel rule, so a
        # cubic integrand settles after two levels of one call each
        calls = []
        e1 = registry("e1")
        f = Function01.from_callable(lambda t: calls.append(t.size) or e1(t))
        F_transform(f)
        assert 0 < len(calls) <= 8


class TestNodeTable:
    def test_interp_and_extension(self):
        f = Function01.from_nodes([0.2, 0.4, 0.8], [1.0, 3.0, 2.0])
        assert f(0.3) == pytest.approx(2.0)
        assert f(0.05) == 1.0   # constant extrapolation below the first node
        assert f(0.95) == 2.0

    def test_validation(self):
        with pytest.raises(DomainError):
            Function01.from_nodes([0.4, 0.2], [1.0, 2.0])
        with pytest.raises(DomainError):
            Function01.from_nodes([0.2, 1.4], [1.0, 2.0])


def test_modulus_of_continuity():
    grid = default_grid(501)
    assert modulus_of_continuity(registry("e0"), 0.1, grid) == 0.0
    # lower estimates, limited by the grid resolution
    m1 = modulus_of_continuity(registry("e1"), 0.1, grid)
    assert 0.085 <= m1 <= 0.1 + 1e-12
    mp_ = modulus_of_continuity(registry("psi"), 0.1, grid)
    assert 0.085 <= mp_ <= 0.1 + 1e-12
    with pytest.raises(DomainError):
        modulus_of_continuity(registry("e1"), 0.0, grid)
