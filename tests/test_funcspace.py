"""Function space: the weight, the weighted norm, the projection onto the
weighted space, the kernel transform, and the registry."""

import math

import numpy as np
import pytest

from opgeom import funcspace
from opgeom.errors import DomainError, QuadratureError
from opgeom.funcspace import (EvaluationGrid, F_transform, Function01,
                              default_grid, project_to_Cpsi, psi, psi_norm,
                              registry)

NAMES = ("abs_half", "e0", "e1", "e2", "e3", "e4", "exp", "osc", "psi", "sin_pi")


def test_psi_values():
    assert psi(0.0) == 0.0
    assert psi(0.5) == 0.25
    assert psi(0.3) == pytest.approx(0.21, rel=1e-15)
    assert np.allclose(psi(np.array([0.0, 0.5])), [0.0, 0.25])


def test_registry_names_exact():
    assert tuple(sorted(funcspace._REGISTRY)) == NAMES
    with pytest.raises(KeyError, match="abs_half"):
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
        assert g.points.size == 101 and 0.0 < g.points[0] and g.points[-1] < 1.0

    def test_validation(self):
        with pytest.raises(DomainError):
            EvaluationGrid(points=np.array([0.1, 0.2]))
        with pytest.raises(DomainError):
            EvaluationGrid(points=np.array([0.0, 0.2, 0.4]))

    def test_restricted(self):
        g = default_grid(201)
        r = g.restricted(0.25, 0.75)
        assert r.points[0] >= 0.25 and r.points[-1] <= 0.75
        assert np.array_equal(r.points, g.points[(g.points >= 0.25) & (g.points <= 0.75)])


class TestPsiNorm:
    def test_eigen_ratio(self):
        assert psi_norm(registry("psi")) == pytest.approx(1.0, rel=1e-14)
        scaled = registry("psi").scaled(0.3)
        assert psi_norm(scaled) == pytest.approx(0.3, rel=1e-14)

    def test_unattained_sup(self):
        # f/psi = (1+x)/6 has sup 1/3 approached only at x -> 1
        f = registry("psi") * Function01.polynomial((1 / 6, 1 / 6))
        est = psi_norm(f)
        grid_max = (1.0 + default_grid().points[-1]) / 6.0
        assert est == pytest.approx(grid_max, rel=1e-14)
        assert est < 1.0 / 3.0
        # grid refinement moves the estimate toward the sup by < 1%
        refined = psi_norm(f, EvaluationGrid.chebyshev_interior(2002))
        assert abs(refined - est) / est < 0.01

    def test_homogeneity_and_triangle(self):
        rng = np.random.default_rng(3)
        f = registry("sin_pi")
        g = registry("psi")
        base = psi_norm(f)
        for c in rng.uniform(-4, 4, 12):
            assert psi_norm(f.scaled(float(c))) == pytest.approx(
                abs(c) * base, rel=1e-13)
        assert psi_norm(f + g) <= psi_norm(f) + psi_norm(g) + 1e-12

    def test_overflow_signal(self):
        huge = Function01.polynomial((1e303,))
        with pytest.raises(OverflowError):
            psi_norm(huge)


class TestB1AndProjection:
    def test_projection(self):
        x = np.linspace(0, 1, 23)
        assert np.allclose(project_to_Cpsi(registry("e1"))(x), 0.0, atol=1e-15)
        assert np.allclose(project_to_Cpsi(registry("e2"))(x), -psi(x), atol=1e-15)
        both = registry("e0") + registry("e2")
        assert np.allclose(project_to_Cpsi(both)(x), -psi(x), atol=1e-14)
        for name in NAMES:
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
        for name in NAMES:
            f = registry(name)
            F = F_transform(f, grid=grid)
            absf = Function01(lambda t, ff=f: np.abs(np.asarray(ff(t))))
            Fabs = F_transform(absf, grid=grid)
            assert np.isfinite(psi_norm(F, grid))
            x = grid.points
            assert np.all(np.abs(F(x)) <= Fabs(x) + 1e-12)

    def test_second_difference(self):
        # F'' = -f: the central second difference at h = 1e-3
        h = 1e-3
        for name, x, want in (("e0", 0.5, -1.0), ("e1", 0.25, -0.25),
                              ("psi", 0.5, -0.25)):
            F = F_transform(registry(name))
            got = (F(x - h) - 2.0 * F(x) + F(x + h)) / (h * h)
            assert got == pytest.approx(want, abs=1e-5), name

    def test_oscillatory_budget(self):
        F = F_transform(registry("osc"))
        assert F.quad_error_bound <= 1e-3
        assert np.isfinite(psi_norm(F))

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
        f = Function01(lambda t: calls.append(t.size) or e1(t))
        F_transform(f)
        assert 0 < len(calls) <= 8

