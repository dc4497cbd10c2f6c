"""Operator families: pointwise application, functionals, moments, the
contraction profile, and the node carriers."""

import ast
import math
import re
import sys
import threading
import time
import tracemalloc
from dataclasses import replace
from functools import partial
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from opgeom import operators
from opgeom.errors import (DomainError, QuadratureError,
                           TruncationBudgetError)
from opgeom.funcspace import default_grid, psi, registry
from opgeom.operators import (FAMILIES, OperatorSpec, _mkz_node_depth,
                              alpha_profile, condition_report, family_record,
                              mkz_truncation_index, moment,
                              node_discretization)
from oracles import (coordinate_map, factored_step, fill_rows, log_binomial,
                     mkz_second_moment, mkz_tail_mp, mkz_weight_row, single_stack,
                     single_stack_advance, transfer)

GRID = default_grid(401)
X = GRID.points[::8]


def bernstein(n):
    return OperatorSpec("bernstein", n)


def durrmeyer(n, rho):
    return OperatorSpec("durrmeyer", n, rho=rho)


def mkz(n, eps):
    return OperatorSpec("mkz", n, truncation_eps=eps)


def durrmeyer_routes(n, rho, f, ks):
    """The Beta functionals of a polynomial f at the indices ks by the two
    routes: exact monomial moments and the batched Gauss-Jacobi kernel."""
    coeffs = np.asarray(f.poly_coeffs)
    closed = operators._durrmeyer_monomial_moments(n, rho, len(coeffs) - 1)
    return (closed[np.asarray(ks) - 1] @ coeffs,
            operators._durrmeyer_quadrature(n, rho, f, np.asarray(ks)))


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
        # a parameter must be finite and positive: nan once reached the
        # depth formula as a NaN depth, and inf overflowed it
        for value in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DomainError, match="finite"):
                OperatorSpec("durrmeyer", 4, rho=value)
            for family in ("mkz", "mkz-reflected", "mkz-symmetric"):
                with pytest.raises(DomainError, match="finite"):
                    OperatorSpec(family, 4, truncation_eps=value)

    def test_parameters_outside_the_family_are_refused(self):
        # a parameter the family does not take was once ignored, and made
        # a second cached carrier of the same operator
        for family in FAMILIES:
            param = operators.family_record(family).param
            given = {} if param is None else {param: 0.5}
            for name in ("rho", "truncation_eps"):
                if name != param:
                    with pytest.raises(DomainError,
                                       match=f"^{family} takes no {name}$"):
                        OperatorSpec(family, 4, **given, **{name: 0.5})

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
        got = bernstein(1).apply(f, 0.3)
        assert got == pytest.approx(0.7 * f(0.0) + 0.3 * f(1.0), rel=1e-15)

    def test_linear_reproduction(self):
        assert np.max(np.abs(bernstein(13).apply(registry("e1"), X) - X)) <= 1e-14

    def test_e2_value(self):
        assert bernstein(2).apply(registry("e2"), 0.5) == pytest.approx(0.375)

    def test_eigenfunction(self):
        for n in (2, 9, 32):
            got = bernstein(n).apply(registry("psi"), X)
            assert np.max(np.abs(got - (1 - 1 / n) * psi(X))) <= 1e-12

    def test_endpoint_interpolation_exact(self):
        f = registry("sin_pi")
        assert bernstein(7).apply(f, 0.0) == f(0.0)
        assert bernstein(7).apply(f, 1.0) == f(1.0)


class TestDurrmeyerFunctional:
    def test_unit_and_mean(self):
        # a polynomial input's coefficients are its exact monomial moments
        for (n, k, rho) in [(6, 1, 0.5), (6, 3, 1.0), (9, 8, 2.0)]:
            coeffs = operators._durrmeyer_coeffs(n, rho, registry("e0"))
            assert coeffs[k] == pytest.approx(1.0, rel=1e-13)
            coeffs = operators._durrmeyer_coeffs(n, rho, registry("e1"))
            assert coeffs[k] == pytest.approx(k / n, rel=1e-13)

    def test_second_moment_fraction_oracle(self):
        # Beta(2,2): E t^2 = a(a+1)/((a+b)(a+b+1)) = 6/20
        exact = Fraction(2 * 3, 4 * 5)
        assert operators._durrmeyer_coeffs(4, 1.0, registry("e2"))[2] == \
            pytest.approx(float(exact), rel=1e-14)

    def test_closed_vs_quadrature(self):
        for name in ("e0", "e1", "e2", "e3", "e4", "psi"):
            f = registry(name)
            for (n, k, rho) in [(6, 2, 0.5), (8, 5, 1.0), (5, 1, 2.0)]:
                (a,), (b,) = durrmeyer_routes(n, rho, f, [k])
                assert a == pytest.approx(b, abs=1e-8)

    def test_kinked_input_routes_to_composite(self):
        got = operators._durrmeyer_quadrature(6, 1.0, registry("abs_half"),
                                              np.array([3]))[0]
        # integral of |t-1/2| against Beta(3,3), split at the kink
        from scipy.integrate import quad
        b33 = math.gamma(3) ** 2 / math.gamma(6)
        ref = sum(quad(lambda t: abs(t - 0.5) * t ** 2 * (1 - t) ** 2, a, b,
                       epsabs=1e-14)[0] for (a, b) in [(0, 0.5), (0.5, 1)]) / b33
        assert got == pytest.approx(ref, abs=1e-10)

    @pytest.mark.parametrize("n", [64, 512])
    @pytest.mark.parametrize("rho,tol", [(0.1, 1e-11), (0.5, 1e-12),
                                         (1.0, 1e-12), (2.0, 1e-12)])
    def test_quadrature_of_psi_matches_closed_form(self, n, rho, tol):
        # the edge rows, whose mass sits next to an endpoint, are the hard
        # ones; the middle is sampled
        ks = sorted(set(range(1, 9)) | set(range(n - 8, n)) | set(range(1, n, 29)))
        exact, got = durrmeyer_routes(n, rho, registry("psi"), ks)
        for k, a, b in zip(ks, exact, got):
            assert abs(b / a - 1.0) <= tol, (k, b, a)

    @pytest.mark.parametrize("rho", [0.5, 1.0])
    @pytest.mark.parametrize("name", ["sin_pi", "psi*sin_pi"])
    def test_batch_row_is_the_functional(self, name, rho):
        f = registry("psi") * registry("sin_pi") if "*" in name else registry(name)
        coeffs = operators._durrmeyer_coeffs(33, rho, f)
        for k in range(1, 33):
            assert coeffs[k] == operators._durrmeyer_quadrature(
                33, rho, f, np.array([k]))[0]

    @pytest.mark.parametrize("n", [31, 32])
    @pytest.mark.parametrize("rho", [0.3, 1.0, 2.5])
    def test_mirror_rows_share_rules_exactly(self, n, rho):
        # rows k and n - k share one rule, reflected for one of them; at
        # n = 32 row 16 is its own mirror, and the partial ks holds rows 1
        # and 5 without their mirrors
        f = registry("exp") * registry("sin_pi")
        alone = np.array([operators._durrmeyer_quadrature(n, rho, f, np.array([k]))[0]
                          for k in range(1, n)])
        full = operators._durrmeyer_quadrature(n, rho, f, np.arange(1, n))
        assert np.array_equal(full, alone)
        part = np.array([1, 2, 5, n // 2, n - 2])
        assert np.array_equal(operators._durrmeyer_quadrature(n, rho, f, part),
                              alone[part - 1])

    @pytest.mark.parametrize("name", ["exp", "abs_half"])
    def test_one_jacobi_solve_per_mirror_pair(self, monkeypatch, name):
        # each order solves one Jacobi matrix per distinct min(a, b) among
        # its open rows; a row is open at an order where it is alone
        n, rho, f = 32, 1.0, registry(name)
        inner, solved = operators._beta_rules, []

        def counting(a, b, m):
            assert np.all(a <= b)
            solved.append((m, a.copy()))
            return inner(a, b, m)

        monkeypatch.setattr(operators, "_beta_rules", counting)
        expected = {}
        for k in range(1, n):
            solved.clear()
            operators._durrmeyer_quadrature(n, rho, f, np.array([k]))
            for m, _ in solved:
                expected.setdefault(m, set()).add(min(k, n - k) * rho)
        solved.clear()
        operators._durrmeyer_quadrature(n, rho, f, np.arange(1, n))
        for m, keys in expected.items():
            got = np.concatenate([a for order, a in solved if order == m])
            assert sorted(got) == sorted(keys), m
        assert {m for m, _ in solved} == set(expected)
        if name == "abs_half":  # the kink keeps rows open to the last order
            assert len(expected) == len(operators._GAUSS_ORDERS)

    @pytest.mark.parametrize("n", [4, 8, 16, 64, 256])
    @pytest.mark.parametrize("rho", [0.01, 0.05, 0.1, 0.5, 1.0, 2.0, 5.0])
    def test_exp_functionals_match_kummer(self, rho, n):
        # E exp(X) = 1F1(a; a + b; 1) for X ~ Beta(a, b) (Kummer), at 30
        # digits: every accepted functional within the 1e-13 settle
        # tolerance.  A row that climbed to 48 points read 3.4e-12 off at
        # rho = 0.01, n = 4, and 1.6e-13 at n = 16.  Every row up to
        # n = 16; the edge rows and a spread of about 25 beyond
        ks = (list(range(1, n)) if n <= 16 else
              sorted({*range(1, 5), *range(n - 4, n), *range(1, n, n // 16)}))
        got = operators._durrmeyer_quadrature(n, rho, registry("exp"), np.array(ks))
        with mp.workdps(30):
            for k, value in zip(ks, got):
                a, b = mp.mpf(k * rho), mp.mpf((n - k) * rho)
                ref = mp.hyp1f1(a, a + b, 1)
                assert abs(value / ref - 1) <= 1e-13, (k, value, ref)

    @pytest.mark.parametrize("n", [5, 32, 128])
    @pytest.mark.parametrize("rho", [0.5, 1.0, 2.0])
    def test_smooth_rows_settle_on_the_first_pair(self, n, rho, monkeypatch):
        # an analytic input settles every row on the 12/24-point pair: no
        # rule of 48 points or more is solved.  A kinked one still climbs
        # the whole ladder, and its open rows take the composite panels
        solved = counting_rules(monkeypatch)
        for f in (registry("sin_pi"), registry("exp"),
                  registry("exp") * registry("sin_pi")):
            solved.clear()
            operators._durrmeyer_quadrature(n, rho, f, np.arange(1, n))
            assert {m for m, _ in solved} == {12, 24}
        composite = []
        inner = operators._beta_integral_composite
        monkeypatch.setattr(operators, "_beta_integral_composite",
                            lambda a, b, f: composite.append(a) or inner(a, b, f))
        solved.clear()
        operators._durrmeyer_quadrature(n, rho, registry("abs_half"), np.arange(1, n))
        assert max(m for m, _ in solved) == 192 and composite

    def test_kinked_input_composite_rows_in_batch(self, monkeypatch):
        from scipy.integrate import quad
        n, rho = 16, 1.0
        composite = []
        inner = operators._beta_integral_composite
        monkeypatch.setattr(operators, "_beta_integral_composite",
                            lambda a, b, f: composite.append(a) or inner(a, b, f))
        got = operators._durrmeyer_coeffs(n, rho, registry("abs_half"))
        assert composite, "no row fell back to the composite panels"
        for k in range(1, n):
            a, b = k * rho, (n - k) * rho
            norm = math.gamma(a) * math.gamma(b) / math.gamma(a + b)
            ref = sum(quad(lambda t: abs(t - 0.5) * t ** (a - 1) * (1 - t) ** (b - 1),
                           lo, hi, epsabs=1e-14)[0]
                      for (lo, hi) in [(0, 0.5), (0.5, 1)]) / norm
            assert got[k] == pytest.approx(ref, abs=1e-10)

    def test_composite_rows_need_no_log_gamma(self, monkeypatch):
        # no module can call a log-Gamma (test_no_module_has_a_log_gamma)
        composite = []
        inner = operators._beta_integral_composite
        monkeypatch.setattr(operators, "_beta_integral_composite",
                            lambda a, b, f: composite.append(a) or inner(a, b, f))
        got = operators._durrmeyer_coeffs(16, 1.0, registry("abs_half"))
        assert composite and np.all(np.isfinite(got))

    @pytest.mark.parametrize("n", [16, 64, 512])
    def test_composite_rows_match_closed_form(self, n):
        # E|X - 1/2| for X ~ Beta(a, b) through the regularized incomplete
        # Beta function I: (a/(a+b) - 1/2) + 2 (I(a, b) / 2 - a/(a+b) I(a+1, b))
        # at 1/2.  Rows 1 and n - 1 have a == 1 and b == 1.
        f = registry("abs_half")
        with mp.workdps(40):
            for k in sorted({1, 2, n // 3, n // 2, n - 1}):
                a, b, half = mp.mpf(k), mp.mpf(n - k), mp.mpf(1) / 2
                ia, ia1 = (mp.betainc(a + s, b, 0, half, regularized=True)
                           for s in (0, 1))
                ref = a / (a + b) - half + 2 * (half * ia - a / (a + b) * ia1)
                got = operators._beta_integral_composite(float(k), float(n - k), f)
                assert abs(got / float(ref) - 1.0) <= 1e-12, (n, k)

    def test_oscillating_rows_refine_their_grading(self, monkeypatch):
        # sin(1/(t(1-t))) against Beta(1, 5) and Beta(5, 1) misses the 1e-6
        # panel bound on the first grading (1.06e-6), which once made
        # durrmeyer n = 6 raise QuadratureError at any point; the next
        # grading meets it.  Reference: on each half of [0, 1],
        # u = 1/(t(1-t)) gives t = (1 -+ r)/2, r = sqrt(1 - 4/u), and
        # |dt| = du / (u^2 r): an integral of sin(u) over [8, oo) (QAWF),
        # and u = 4 + s^2 on [4, 8], where 1/r is singular
        from scipy.integrate import quad
        f = registry("osc")
        for a, b in ((1.0, 5.0), (5.0, 1.0)):
            def density(t):
                return 5.0 * (t if a > b else 1.0 - t) ** 4

            ref = 0.0
            for side in (-1.0, 1.0):
                def near(s):
                    u = 4.0 + s * s
                    t = 0.5 * (1.0 + side * s / math.sqrt(u))
                    return 2.0 * math.sin(u) * density(t) / u ** 1.5

                def far(u):
                    r = math.sqrt(1.0 - 4.0 / u)
                    return density(0.5 * (1.0 + side * r)) / (u * u * r)

                ref += quad(near, 0.0, 2.0, epsabs=1e-14, epsrel=1e-13)[0]
                ref += quad(far, 8.0, math.inf, weight="sin", wvar=1.0,
                            epsabs=1e-12)[0]
            got = operators._beta_integral_composite(a, b, f)
            assert abs(got - ref) <= 1e-6, (a, b)
        got = durrmeyer(6, 1.0).apply(f, np.array([0.25, 0.5]))
        assert np.all(np.isfinite(got))
        monkeypatch.setattr(operators, "_COMPOSITE_GRADINGS",
                            operators._COMPOSITE_GRADINGS[:1])
        with pytest.raises(QuadratureError):
            operators._beta_integral_composite(1.0, 5.0, f)

    def test_parameter_errors(self):
        # the functionals' order and shape are checked once, by the spec:
        # n >= 2 (at least one interior functional) and a finite rho > 0
        with pytest.raises(DomainError):
            durrmeyer(1, 1.0)
        with pytest.raises(DomainError):
            durrmeyer(6, -1.0)
        assert durrmeyer(2, 0.1).apply(registry("e1"), 0.5) == pytest.approx(0.5)


def rule_inputs():
    return {"sin_pi": registry("sin_pi"),
            "psi*sin_pi": registry("psi") * registry("sin_pi"),
            "exp": registry("exp"), "abs_half": registry("abs_half")}


def counting_rules(monkeypatch):
    """Record each (m, min(a, b)) that _beta_rules solves."""
    inner, solved = operators._beta_rules, []

    def counting(a, b, m):
        solved.extend((m, key) for key in a.tolist())
        return inner(a, b, m)

    monkeypatch.setattr(operators, "_beta_rules", counting)
    return solved


class TestDurrmeyerRuleTable:
    """A Durrmeyer carrier keeps the Gauss-Jacobi rules its reps solve;
    each carrier below is built directly, so its table starts empty."""

    @pytest.mark.parametrize("n,rho", [(32, 1.0), (33, 0.5), (256, 1.0)])
    def test_warm_rep_is_the_fresh_functional(self, n, rho, monkeypatch):
        composite = []
        inner = operators._beta_integral_composite
        monkeypatch.setattr(operators, "_beta_integral_composite",
                            lambda a, b, f: composite.append(a) or inner(a, b, f))
        disc = operators._durrmeyer_disc(durrmeyer(n, rho))
        inputs = rule_inputs()
        # each input once on a cold table, then again in reverse on a warm one
        for name in [*inputs, *reversed(inputs)]:
            composite.clear()
            got = disc.rep(inputs[name])
            expected = operators._durrmeyer_coeffs(n, rho, inputs[name])
            assert np.array_equal(got, expected), name
            if name == "abs_half":  # the fallback rows are in the comparison
                assert composite
        table = disc.matrix_bytes  # the rules alone: no product has run
        assert table > 0 and disc._filled is None
        disc.transfer  # the first product fills the transfer
        assert disc.matrix_bytes == table + disc.stack_bytes

    @pytest.mark.parametrize("first,second", [
        ("psi*sin_pi", "sin_pi"), ("sin_pi", "abs_half"), ("abs_half", "exp")])
    def test_second_input_solves_only_new_rules(self, first, second,
                                                monkeypatch):
        n, rho, inputs = 64, 1.0, rule_inputs()
        solved = counting_rules(monkeypatch)
        operators._durrmeyer_coeffs(n, rho, inputs[second])
        alone = set(solved)  # what the second input needs on its own
        disc = operators._durrmeyer_disc(durrmeyer(n, rho))
        solved.clear()
        disc.rep(inputs[first])
        before = set(solved)
        solved.clear()
        disc.rep(inputs[second])
        assert len(solved) == len(set(solved))  # no rule solved twice
        assert set(solved) == alone - before
        if (first, second) == ("psi*sin_pi", "sin_pi"):
            assert solved == []

    @pytest.mark.parametrize("n,rho,cells", [(32, 1.0, 1), (33, 0.5, 1),
                                             (5, 1.0, None)])
    def test_block_shape_changes_no_bit(self, n, rho, cells, monkeypatch):
        # one Jacobi cell per block puts one row in each block at every
        # order, so mirror rows meet only through the table; at n = 5 and
        # the default cells one block holds both rows of each mirror pair
        inputs, ks = rule_inputs(), np.arange(1, n)
        solved = counting_rules(monkeypatch)
        default = {}
        for name in ("sin_pi", "psi*sin_pi", "abs_half"):
            solved.clear()
            default[name] = (operators._durrmeyer_quadrature(n, rho, inputs[name], ks),
                             set(solved))
        if cells is not None:
            monkeypatch.setattr(operators, "_GAUSS_CELLS", cells)
        for name, (expected, keys) in default.items():
            solved.clear()
            got = operators._durrmeyer_quadrature(n, rho, inputs[name], ks)
            assert np.array_equal(got, expected), name
            assert len(solved) == len(set(solved)) and set(solved) == keys, name

    def test_failed_rep_leaves_a_correct_table(self):
        n, rho = 4, 0.1
        disc = operators._durrmeyer_disc(durrmeyer(n, rho))
        for _ in range(2):
            with pytest.raises(QuadratureError):
                disc.rep(registry("osc"))
        f = registry("sin_pi")
        assert np.array_equal(disc.rep(f), operators._durrmeyer_coeffs(n, rho, f))

    def test_threads_sharing_a_carrier_solve_each_rule_once(self,
                                                            monkeypatch):
        # more threads than cores, switching often, each rep on its own
        # input and then on the others' on one shared carrier
        n, rho, inputs = 32, 0.5, rule_inputs()
        fresh = {name: operators._durrmeyer_coeffs(n, rho, f)
                 for name, f in inputs.items()}
        solved = counting_rules(monkeypatch)
        disc = operators._durrmeyer_disc(durrmeyer(n, rho))
        names = list(inputs)
        got = {}

        def work(i):
            for name in names[i:] + names[:i]:
                got[i, name] = disc.rep(inputs[name])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,))
                       for i in range(len(names))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(got) == len(names) ** 2
        assert all(np.array_equal(rep, fresh[name])
                   for (_, name), rep in got.items())
        assert len(solved) == len(set(solved))

    def test_cache_holds_the_table_bytes(self, monkeypatch):
        monkeypatch.setattr(operators, "_DISC_CACHE", {})
        disc = node_discretization(durrmeyer(32, 1.0))
        assert disc.matrix_bytes == 0  # no rule solved, no transfer filled
        disc.rep(registry("sin_pi"))
        table = disc.matrix_bytes
        assert table > 0
        disc.advance(np.ones(disc.nodes.size))
        assert disc.matrix_bytes == table + disc.transfer.nbytes
        assert operators._DISC_CACHE[disc.spec] is disc


class TestDurrmeyerApply:
    def test_linear_and_unit(self):
        for rho in (0.5, 1.0, 2.0):
            got = durrmeyer(7, rho).apply(registry("e1"), X)
            assert np.max(np.abs(got - X)) <= 1e-10
            got0 = durrmeyer(7, rho).apply(registry("e0"), X)
            assert np.max(np.abs(got0 - 1.0)) <= 1e-10

    def test_psi_eigen_form(self):
        n, rho = 9, 0.5
        got = durrmeyer(n, rho).apply(registry("psi"), X)
        ref = (1.0 - (rho + 1) / (n * rho + 1)) * psi(X)
        assert np.max(np.abs(got - ref)) <= 1e-12


class TestMkzApply:
    def test_unit_and_linear(self):
        xs = np.array([0.0, 0.2, 0.5, 0.85])
        assert np.max(np.abs(mkz(5, 1e-10).apply(registry("e0"), xs) - 1.0)) <= 1e-10
        assert np.max(np.abs(mkz(5, 1e-10).apply(registry("e1"), xs) - xs)) <= 1e-10

    def test_exact_branch_at_one(self):
        assert mkz(4, 1e-10).apply(registry("exp"), 1.0) == math.e

    def test_truncation_budget(self):
        with pytest.raises(TruncationBudgetError):
            mkz_truncation_index(4, 1.0 - 1e-9, 1e-10)
        with pytest.raises(TruncationBudgetError):
            operators._mkz_depths(4, np.array([0.5, 1.0 - 1e-9]), 1e-10)
        with pytest.raises(DomainError):
            operators._mkz_depths(4, np.array([0.5, 1.5]), 1e-10)
        with pytest.raises(TruncationBudgetError):
            mkz(4, 1e-10).apply(registry("e0"), 1.0 - 1e-9)

    def test_truncation_index_needs_a_point_below_one(self):
        with pytest.raises(DomainError, match="0 <= x < 1"):
            mkz_truncation_index(4, 1.0, 1e-6)

    @pytest.mark.parametrize("tail", [math.nan, math.inf, -math.inf, 0.0, -1e-6])
    def test_tail_must_be_finite_and_positive(self, tail):
        with pytest.raises(DomainError, match="finite and positive"):
            mkz_truncation_index(4, 0.5, tail)
        with pytest.raises(DomainError, match="finite and positive"):
            operators._mkz_depths(4, np.array([0.25, 0.5]), tail)

    @pytest.mark.parametrize("family", ["mkz", "mkz-reflected", "mkz-symmetric"])
    def test_depths_are_the_scalar_formula(self, family):
        # the depths at every default-grid point and every carrier node,
        # both branches, at the apply and the moment tail, bit for bit
        def scalar(n, x, tail):
            if x in (0.0, 1.0):
                return 0
            xp = 0.5 * (1.0 + x)
            k0 = max(0, math.ceil((x * (n + 1.0) - xp) / (xp - x)))
            log_w_k0 = (log_binomial(n + k0, k0) + (n + 1.0) * math.log1p(-x)
                        + k0 * math.log(x))
            log_target = math.log(tail) + math.log1p(-xp) - math.log(xp)
            if log_w_k0 <= log_target:
                return k0
            return k0 + math.ceil((log_target - log_w_k0) / math.log(xp))

        eps = 1e-6
        grid = default_grid().points
        for n in (4, 8, 16, 32):
            spec = OperatorSpec(family, n, truncation_eps=eps)
            lo, hi = spec.certified_interval()
            k = np.arange(_mkz_node_depth(spec) + 1)
            pts = grid[(grid >= lo) & (grid <= hi)]
            ts = np.unique(np.concatenate((pts, 1.0 - pts, k / (n + k), n / (n + k))))
            for tail in (0.5 * eps, 0.1 * eps):
                ref = [scalar(n, t, tail) for t in ts.tolist()]
                keep = np.array(ref) <= operators._SERIES_CAP
                got = operators._mkz_depths(n, ts[keep], tail)
                assert got.tolist() == np.array(ref)[keep].tolist()

    def test_reflection_identity(self):
        f = registry("exp")
        for x in (0.1, 0.45, 0.9):
            lhs = OperatorSpec("mkz-reflected", 5, truncation_eps=1e-11).apply(f, x)
            rhs = mkz(5, 1e-11).apply(f.reflected(), 1.0 - x)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_symmetric_basics(self):
        xs = np.array([0.1, 0.5, 0.9])
        sym = OperatorSpec("mkz-symmetric", 5, truncation_eps=1e-10)
        got = sym.apply(registry("e1"), xs)
        assert np.max(np.abs(got - xs)) <= 1e-10
        # symmetric input at the symmetry point reduces to the plain value
        f = registry("psi")
        a = OperatorSpec("mkz-symmetric", 6, truncation_eps=1e-11).apply(f, 0.5)
        b = mkz(6, 1e-11).apply(f, 0.5)
        assert a == pytest.approx(b, abs=1e-11)

    def test_symmetric_endpoints(self):
        f = registry("exp")
        sym = OperatorSpec("mkz-symmetric", 4, truncation_eps=1e-10)
        assert sym.apply(f, 0.0) == pytest.approx(f(0.0), abs=1e-15)
        assert sym.apply(f, 1.0) == pytest.approx(f(1.0), abs=1e-15)


class TestMoments:
    def test_order_must_be_a_nonnegative_integer(self):
        for spec in (OperatorSpec("bernstein", 5),
                     OperatorSpec("mkz-symmetric", 5, truncation_eps=1e-8)):
            for k in (-1, 2.0, True):
                with pytest.raises(DomainError):
                    moment(spec, k, 0.3)
            assert moment(spec, np.int64(0), 0.3) == pytest.approx(1.0, abs=1e-8)

    def test_first_moment_vanishes(self):
        for spec in (OperatorSpec("bernstein", 7),
                     OperatorSpec("durrmeyer", 7, rho=1.5),
                     OperatorSpec("mkz", 7, truncation_eps=1e-12),
                     OperatorSpec("mkz-symmetric", 7, truncation_eps=1e-12)):
            xs = np.array([0.2, 0.5, 0.8])
            assert np.max(np.abs(moment(spec, 1, xs))) <= 1e-12

    def test_bernstein_m2(self):
        spec = OperatorSpec("bernstein", 11)
        assert np.max(np.abs(moment(spec, 2, X) - psi(X) / 11)) <= 1e-13

    def test_durrmeyer_m2(self):
        spec = OperatorSpec("durrmeyer", 8, rho=2.0)
        assert np.max(np.abs(moment(spec, 2, X) - 3.0 * psi(X) / 17.0)) <= 1e-12

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

    @pytest.mark.parametrize("n, eps, xs", [
        (4, 1e-14, [0.1, 0.5, 0.9, 0.99]),
        (16, 1e-14, [0.1, 0.5, 0.9, 0.99]),
        (16, 1e-6, OperatorSpec("mkz-symmetric", 16,
                                truncation_eps=1e-6).grid().points)],
        ids=["4-1e-14", "16-1e-14", "16-1e-6-grid"])
    def test_mkz_m2_hypergeometric_oracle(self, n, eps, xs):
        # the plain moment and the mkz-symmetric average of the plain one
        # at x and 1 - x against the exact closed form: M2 is the closed
        # form whatever eps, within 8 ulps
        xs = np.asarray(xs, dtype=float)
        plain = mkz_second_moment(n, xs)
        mirror = mkz_second_moment(n, 1.0 - xs)
        for family, want in (("mkz", plain),
                             ("mkz-symmetric", 0.5 * (plain + mirror))):
            got = moment(OperatorSpec(family, n, truncation_eps=eps), 2, xs)
            gap = np.abs(got - want)
            assert np.all(gap <= 8 * np.finfo(float).eps * want), family

    @pytest.mark.parametrize("n", [1, 16, 64])
    def test_second_moment_oracle_matches_hyp2f1(self, n):
        # the oracle's finite form, which it takes from 1/2 on, against
        # mpmath's hyp2f1 at 40 digits, bit for bit
        xs = [0.5, 0.6, 0.8, 0.8 + 2.0**-52, 0.95, 0.999, 1.0 - 2.0**-30]
        with mp.workdps(40):
            want = [float(mp.mpf(x) * (1 - mp.mpf(x)) ** 2 / (n + 1)
                          * mp.hyp2f1(1, 2, n + 2, mp.mpf(x))) for x in xs]
        assert mkz_second_moment(n, xs).tolist() == want

    def test_symmetric_even_moment_identity(self):
        spec = OperatorSpec("mkz-symmetric", 5, truncation_eps=1e-12)
        plain = OperatorSpec("mkz", 5, truncation_eps=1e-12)
        xs = np.array([0.2, 0.5, 0.7])
        lhs = moment(spec, 2, xs)
        rhs = 0.5 * (moment(plain, 2, xs) + moment(plain, 2, 1.0 - xs))
        assert np.max(np.abs(lhs - rhs)) <= 1e-13

    def test_point_value_does_not_depend_on_the_batch(self):
        # alpha at 0.8 once read 3.4e-12 higher in a call whose deepest
        # point set the series depth of all; M2 is now the closed form,
        # whose value at 0.8 is 0.114395635176077641... (mpmath, 40 digits)
        spec = OperatorSpec("mkz-symmetric", 4, truncation_eps=1e-6)
        inner = node_discretization(spec).nodes[1:-1]

        def alpha(xs):
            return moment(spec, 2, xs) / psi(xs)

        alone = float(alpha(np.array([0.8]))[0])
        assert alone == pytest.approx(0.11439563517607764, rel=1e-15, abs=0.0)
        for batch in (np.concatenate(([0.8], inner)),
                      np.concatenate((inner, [0.8], 1.0 - inner))):
            at = int(np.flatnonzero(batch == 0.8)[0])
            assert alpha(batch)[at] == pytest.approx(alone, rel=1e-15, abs=0.0)


def point_calls(family):
    """The family at n = 8 and the three calls that take points: apply,
    moment and a carrier's apply_rep, each of sin_pi or its order 2."""
    param = family_record(family).param
    values = {"rho": 1.0, "truncation_eps": 1e-6}
    spec = OperatorSpec(family, 8, **({param: values[param]} if param else {}))
    disc = node_discretization(spec)
    rep = disc.rep(registry("sin_pi"))
    return spec, (lambda p: spec.apply(registry("sin_pi"), p),
                  lambda p: moment(spec, 2, p),
                  lambda p: disc.apply_rep(rep, p))


@pytest.mark.parametrize("family", FAMILIES)
def test_points_outside_the_unit_interval_raise(family):
    # bernstein and durrmeyer once extrapolated (bernstein n = 8 gave
    # -0.3196 at -0.1), and a series carrier summed meaningless weights
    spec, calls = point_calls(family)
    for x in (-0.1, 1.5, math.nan):
        for call in calls:
            with pytest.raises(DomainError, match="0 <= x <= 1"):
                call(x)
            with pytest.raises(DomainError, match="0 <= x <= 1"):
                call(np.array([0.0, 0.5, x]))
    assert np.isfinite(spec.apply(registry("sin_pi"), np.array([0.0, 0.5, 1.0]))).all()


@pytest.mark.parametrize("family", FAMILIES)
def test_point_arrays_of_two_dimensions_raise(family):
    # bernstein and durrmeyer once failed to broadcast them, the series
    # families indexed out of bounds
    _, calls = point_calls(family)
    for call in calls:
        for x in (np.array([[0.2, 0.3]]), np.array([[0.2], [0.3]])):
            with pytest.raises(DomainError, match="1-D array"):
                call(x)


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
        mirrored = np.interp(1.0 - refl.grid.points[refl.grid.points < 0.99],
                             plain.grid.points, plain.alpha_values)
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

    @pytest.mark.parametrize("rho", [0.1, 1.0])
    def test_durrmeyer_rows_are_unit_mass_beta_binomials(self, rho):
        n = 512
        transfer = node_discretization(OperatorSpec("durrmeyer", n, rho=rho)).transfer
        assert np.max(np.abs(transfer.sum(axis=1) - 1.0)) <= 1e-14
        with mp.workdps(40):
            for i in (1, 2, 171, 256, 510, 511):
                a, b = mp.mpf(i * rho), mp.mpf((n - i) * rho)
                for j in sorted({0, 1, i - 1, i, i + 1, n - 1, n} | set(range(0, n, 37))):
                    ref = mp.binomial(n, j) * mp.beta(a + j, b + n - j) / mp.beta(a, b)
                    assert abs(transfer[i, j] - float(ref)) <= 1e-14, (i, j)

    def test_durrmeyer_transfer_needs_no_log_gamma(self):
        # no module can call a log-Gamma (test_no_module_has_a_log_gamma)
        disc = operators._durrmeyer_disc(OperatorSpec("durrmeyer", 9, rho=0.3))
        assert np.max(np.abs(disc.transfer.sum(axis=1) - 1.0)) <= 1e-15

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
    """(nodes, rows) of a series family, built row by row at the points
    xs (by default the nodes, whose rows are the transfer): each branch
    scatters share * mkz_weight_row onto its nodes k/(n+k) (plain) or
    n/(n+k) (reflected) and routes the row's omitted mass to its hard
    endpoint (1 plain, 0 reflected).

    With equal shares the carrier computes a node row above 1/2 as the
    mirror of its partner's row at the node x' < 1/2, and the float
    1 - x' can differ from x by an ulp, which moves the routed mass of a
    row near 1 by about 1e-14.  So the node rows above 1/2 are mirrors here
    too: the node set is symmetric, and reversing it maps each node to its
    partner.  Rows at other points are computed directly, as apply_rep
    does."""
    n, depth = spec.n, _mkz_node_depth(spec)
    k = np.arange(depth + 1)
    used = spec.record.branches
    nodes = np.unique(np.concatenate(
        [n / (n + k) if r else k / (n + k) for _, r in used] + [[0.0, 1.0]]))
    at = nodes if xs is None else xs
    rows = np.zeros((at.size, nodes.size))
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
    if xs is None and spec.record.shares[0] == spec.record.shares[1]:
        high = nodes > 0.5
        rows[high] = rows[::-1, ::-1][high]
    return nodes, rows


def carrier_branches(spec, disc):
    """(at, branches) of the series carrier disc: the nodes its bound is
    taken at (the low nodes of the mirror pairs for mkz-symmetric) and,
    for each branch in use, (share, reflect, rows it keeps); a branch
    makes its weights at at, or at 1 - at if reflect."""
    if disc._pairs is None:
        return disc.nodes, [(share, reflect, disc.nodes.size - 1)
                            for share, reflect in spec.record.branches]
    at = disc.nodes[disc._pairs[0]]
    p_share, r_share = spec.record.shares
    return at, [(p_share, False, operators._mkz_plain_rows(spec, at.size - 1)),
                (r_share, True, at.size)]


def exact_bound_range(spec, disc):
    """(lo, hi), mpmath numbers around the largest exact omitted weight
    mass at the certified nodes of the series carrier disc (mkz_tail_mp),
    from the tails at the two ends t_min, t_max of those nodes.  The
    plain branch's tail rises in t and the reflected branch's, at 1 - t,
    falls, so a one-branch carrier's largest is at its hard end
    (lo == hi), and the mkz-symmetric sum of both is at least its value
    at either end and at most the plain tail at t_max plus the reflected
    one at t_min."""
    at, branches = carrier_branches(spec, disc)
    lo, hi = spec.certified_interval()
    certified = at[(at >= lo) & (at <= hi)]
    ends = certified.min(), certified.max()

    def tail(end, share, reflect, count):
        t = 1.0 - end if reflect else end
        return share * mkz_tail_mp(spec.n, float(t), count)

    at_ends = [sum(tail(end, *branch) for branch in branches) for end in ends]
    hardest = sum(tail(ends[0 if branch[1] else 1], *branch) for branch in branches)
    return max(at_ends), hardest


def assert_bound_is_the_exact_tail(spec, disc):
    # the bound is at or above the exact omitted mass and within 1e-9 of it
    lo, hi = exact_bound_range(spec, disc)
    bound = mp.mpf(disc.truncation_error_bound)
    assert lo <= hi <= bound <= lo * (1 + mp.mpf(1e-9)), (float(lo), float(bound))


SERIES_CARRIERS = [OperatorSpec(fam, n, truncation_eps=eps)
                   for fam in ("mkz", "mkz-reflected", "mkz-symmetric")
                   for n in (3, 4, 6, 8) for eps in (1e-6, 1e-10)]


@pytest.fixture(scope="class")
def dense_nodes(spec):
    """The dense build at the nodes, made once per spec for the tests of
    TestSeriesCarrier that read it."""
    return _dense_series_carrier(spec)


@pytest.mark.parametrize("spec", SERIES_CARRIERS, scope="class",
                         ids=lambda s: f"{s.family}-{s.n}-{s.truncation_eps:g}")
class TestSeriesCarrier:
    """The branch-coordinate carrier against a row-by-row dense build;
    n = 4 and 6 have merged nodes p_j = r_m (j m = n^2)."""

    def test_matches_dense_build(self, spec, dense_nodes):
        disc = node_discretization(spec)
        nodes, dense = dense_nodes
        assert np.array_equal(disc.nodes, nodes)
        assert np.max(np.abs(transfer(disc) - dense)) <= 1e-14
        assert_bound_is_the_exact_tail(spec, disc)

    def test_apply_rep_matches_basis_matrix(self, spec):
        # the basis matrix here is the dense build's rows at the points
        disc = node_discretization(spec)
        # endpoints, points next to them (whose own depth is a few terms
        # at one branch and the carrier's at the other), the floats on
        # either side of the cap point 1 - 1/(4n) (own depth up to it,
        # the carrier's beyond), and more points than fit in one block
        cap = 1.0 - 1.0 / (4.0 * spec.n)
        xs = np.concatenate(([0.0, 1.0, 0.5, 1e-12, 1.0 - 1e-12,
                              np.nextafter(cap, 0.0), np.nextafter(cap, 2.0),
                              1.0 - cap, np.nextafter(1.0 - cap, 0.0)],
                             np.linspace(0.0, 1.0, 601)))
        _, rows = _dense_series_carrier(spec, xs)
        rng = np.random.default_rng(spec.n)
        for rep in (rng.standard_normal(disc.nodes.size),
                    rng.standard_normal((disc.nodes.size, 3))):
            got = disc.apply_rep(rep, xs)
            assert got.shape == (xs.size,) + rep.shape[1:]
            assert np.max(np.abs(got - rows @ rep)) <= 1e-13


    def test_advance_matches_dense_build(self, spec, dense_nodes):
        disc = node_discretization(spec)
        _, transfer = dense_nodes
        v = np.random.default_rng(spec.n).standard_normal((disc.nodes.size, 5))
        got = disc.advance(v)
        assert got.shape == v.shape
        assert np.max(np.abs(got - transfer @ v)) <= 1e-13
        assert np.max(np.abs(disc.advance(v[:, 2]) - got[:, 2])) <= 1e-14


@pytest.mark.parametrize("spec", [bernstein(9), OperatorSpec("durrmeyer", 6, rho=1.0),
                                  OperatorSpec("mkz", 5, truncation_eps=1e-6),
                                  OperatorSpec("mkz-symmetric", 5, truncation_eps=1e-6),
                                  bernstein(1100),
                                  OperatorSpec("durrmeyer", 1100, rho=1.0)],
                         ids=lambda s: s.family if s.n < 1000 else f"{s.family}-{s.n}")
def test_apply_reps_is_apply_rep_of_each(spec):
    # one evaluation of the basis or blocks, each rep applied on its own;
    # n = 1100 runs the Bernstein-form values over 35 slabs
    disc = node_discretization(spec)
    rng = np.random.default_rng(5)
    reps = [rng.standard_normal(disc.nodes.size),
            rng.standard_normal((disc.nodes.size, 3)),
            rng.standard_normal(disc.nodes.size)]
    for rep, got in zip(reps, disc.apply_reps(reps, X)):
        assert np.array_equal(got, disc.apply_rep(rep, X))


@pytest.mark.parametrize("family", ["mkz", "mkz-reflected", "mkz-symmetric"])
def test_apply_rep_point_alone_matches_batch(family):
    # apply_rep sums each point to its own depth and zeroes every weight
    # past it, so a point's value does not depend on the other points of
    # the call, only on the rounding of the block it lands in
    spec = OperatorSpec(family, 8, truncation_eps=1e-6)
    disc = node_discretization(spec)
    cap = 1.0 - 1.0 / (4.0 * spec.n)
    xs = np.concatenate((X, [0.0, 1.0, 1e-12, 1.0 - 1e-12, np.nextafter(cap, 0.0),
                             np.nextafter(cap, 2.0), 1.0 - cap]))
    rng = np.random.default_rng(3)
    for rep in (rng.standard_normal(disc.nodes.size),
                rng.standard_normal((disc.nodes.size, 3))):
        batch = disc.apply_rep(rep, xs)
        alone = np.array([disc.apply_rep(rep, x)[0] for x in xs])
        assert alone.shape == batch.shape
        assert np.max(np.abs(alone - batch)) <= 1e-14


SYMMETRIC_CARRIERS = [s for s in SERIES_CARRIERS if s.family == "mkz-symmetric"]


@pytest.mark.parametrize("spec", SYMMETRIC_CARRIERS
                         + [OperatorSpec("mkz-symmetric", 3, truncation_eps=1e300)],
                         ids=lambda s: f"{s.n}-{s.truncation_eps:g}")
def test_symmetric_plain_block_is_cut_where_its_weights_underflow(spec):
    # the plain rows stop at the midpoint's own depth: P = 1 + the depth
    # apply_rep sums t = 1/2 to at share * 2^-64, capped at depth + 1
    # (eps 1e300 at n = 3 gives depth 66 and P = 67, and the plain block
    # keeps every row); below the cap the plain weights dropped past P,
    # summed exactly 3000 rows further, are at most share * 2^-64 at every
    # low node min(p_k, r_k).  The stack is the one
    # (P + depth + 1) x (depth + 1) array
    n, depth = spec.n, _mkz_node_depth(spec)
    share = spec.record.shares[0]
    tail = share * operators._EVAL_TAIL
    plain = 1 + min(depth, mkz_truncation_index(n, 0.5, tail))
    if spec.truncation_eps == 1e300:
        assert (depth, plain) == (66, 67)
    else:
        assert plain < depth + 1
        k = np.arange(depth + 1)
        for t in np.minimum(k / (n + k), n / (n + k)):
            dropped = share * mkz_weight_row(n, float(t), plain + 3000)[plain:]
            assert math.fsum(dropped.tolist()) <= tail
    disc = operators._mkz_disc(spec)  # no unfolded transfer
    assert disc._stack.shape == (plain + depth + 1, depth + 1)
    assert disc.matrix_bytes == 8 * (plain + depth + 1) * (depth + 1)


STEP_GAP = 1e-12  # weighted error of one factored sweep step, relative


def weighted_inputs(disc, cols, seed):
    """Random columns on the nodes that vanish at the endpoints, each once
    scaled by psi like a weighted-space input and once not."""
    idx = np.flatnonzero(disc.interior)
    w = psi(disc.nodes[idx])[:, None]
    rng = np.random.default_rng(seed)
    for scale in (w, 1.0):
        v = np.zeros((disc.nodes.size, cols))
        v[idx] = rng.standard_normal((idx.size, cols)) * scale
        yield v


def weighted_max(disc, v):
    """Per column, the psi-weighted max of v over the interior nodes."""
    idx = np.flatnonzero(disc.interior)
    return np.max(np.abs(v[idx]) / psi(disc.nodes[idx])[:, None], axis=0)


GEOM_16 = OperatorSpec("mkz-symmetric", 16, truncation_eps=1e-6)  # geom's largest default


@pytest.mark.parametrize("spec", SYMMETRIC_CARRIERS + [GEOM_16],
                         ids=lambda s: f"{s.n}-{s.truncation_eps:g}")
def test_cut_row_changes_no_number(spec):
    # the stack, cut at the plain row P, is the oracle's row-by-row build
    # bit for bit, with the same routed masses, the truncation bound is the
    # exact tail rounded up, and the pair map's nodes and reads are the
    # oracle's; advance, which reads the nodes straight, stays within
    # rounding of the oracle's parity form, also at n = 16 with one column
    # (a Krylov product) and five (a batched sweep)
    nodes, pairs, reads, stack, m_p, m_r = single_stack(spec)
    disc = operators._mkz_disc(spec)
    assert np.array_equal(disc.nodes, nodes)
    low, high, got_reads = disc._pairs
    assert np.array_equal(low, pairs[0]) and np.array_equal(high, pairs[1])
    assert np.array_equal(got_reads, reads)
    plain = stack.shape[0] - low.size  # P
    got, got_p, got_r = operators._mkz_paired_stack(spec, nodes[pairs[0]], plain)
    assert np.array_equal(got, stack) and np.array_equal(disc._stack, stack)
    assert np.array_equal(got_p, m_p) and np.array_equal(got_r, m_r)
    assert_bound_is_the_exact_tail(spec, disc)
    for cols in ((1, 5) if spec is GEOM_16 else (4,)):
        for v in weighted_inputs(disc, cols, spec.n):
            gap = np.abs(disc.advance(v) - single_stack_advance(pairs, stack, v))
            assert np.all(gap.max(axis=0) <= 1e-15 * np.abs(v).max(axis=0))


@pytest.mark.parametrize("spec", SERIES_CARRIERS,
                         ids=lambda s: f"{s.family}-{s.n}-{s.truncation_eps:g}")
def test_fill_routes_the_exactly_summed_missing_mass(spec):
    # routed = max(0, share - sum of the weights written) to within 8 ulps
    # of share, against math.fsum of the stored weights, at every third
    # node of the carrier, for both branches at the family's share (1
    # where the family leaves the branch out)
    n, depth = spec.n, _mkz_node_depth(spec)
    nodes = node_discretization(spec).nodes
    ulp = np.finfo(float).eps / 2
    for reflect, share in enumerate(spec.record.shares):
        share = share or 1.0
        t = 1.0 - nodes if reflect else nodes
        rows = np.empty((depth + 1, t.size))
        routed = operators._mkz_fill(n, t, share, rows)
        exact = np.array([math.fsum(col.tolist()) for col in rows.T[::3]])
        want = np.maximum(0.0, share - exact)
        assert np.all(np.abs(routed[::3] - want) <= 8 * ulp * share)


@pytest.mark.parametrize("n", [3, 4, 8])
def test_fill_flushes_like_the_cell_by_cell_oracle(n, monkeypatch):
    # the fill flushes only the columns whose first or last row in a
    # block is below the smallest normal float; the oracle flushes every
    # cell, row by row.  Same weights and routed masses bit for bit, on
    # both branches at the carrier's nodes and depths, with a t = 1
    # column (no weights, its whole share routed).  Without any flush the
    # weights of the plain branch (at n = 8 both) differ, so the flush is
    # exercised
    spec = OperatorSpec("mkz-symmetric", n, truncation_eps=1e-10)
    at, branches = carrier_branches(spec, operators._mkz_disc(spec))
    flushed = []
    for share, reflect, count in branches:
        t = np.append(1.0 - at if reflect else at, 1.0)
        got, want = np.empty((2, count, t.size))
        routed = operators._mkz_fill(n, t, share, got)
        assert np.array_equal(routed, fill_rows(want, n, t, share))
        assert np.array_equal(got, want)
        assert routed[-1] == share and not got[:, -1].any()
        with monkeypatch.context() as m:
            m.setattr(operators, "_TINY", 0.0)
            operators._mkz_fill(n, t, share, want)
        flushed.append(not np.array_equal(got, want))
    assert flushed == [True, n == 8]


@pytest.mark.parametrize("spec", SYMMETRIC_CARRIERS + [GEOM_16],
                         ids=lambda s: f"{s.n}-{s.truncation_eps:g}")
def test_filled_weights_are_unimodal_in_j(spec):
    # what the fill's column flush rests on: every column of each branch
    # of the stack rises, then falls, in j, so a block's smallest weight
    # sits in its first or last row
    at, branches = carrier_branches(spec, operators._mkz_disc(spec))
    for share, reflect, count in branches:
        rows = np.empty((count, at.size))
        operators._mkz_fill(spec.n, 1.0 - at if reflect else at, share, rows)
        steps = np.diff(rows, axis=0)
        fallen = np.logical_or.accumulate(steps < 0.0, axis=0)
        assert not np.any(fallen & (steps > 0.0))


def test_default_geom_carriers_store_pinned_bytes():
    # the stored bytes of the stacks that geom builds by default, so that
    # a change of the plain-row rule or of the fill shows.  A carrier
    # holds none of them until its first product fills the stack
    for n, stored in ((4, 4753800), (8, 23544000), (16, 141092352)):
        spec = OperatorSpec("mkz-symmetric", n, truncation_eps=1e-6)
        disc = operators._mkz_disc(spec)
        assert disc.matrix_bytes == 0
        disc.advance(np.zeros(disc.nodes.size))
        assert disc.matrix_bytes == stored


@pytest.mark.parametrize("spec", [
    OperatorSpec("bernstein", 6), OperatorSpec("durrmeyer", 6, rho=1.0),
    OperatorSpec("mkz", 4, truncation_eps=1e-6),
    OperatorSpec("mkz-reflected", 4, truncation_eps=1e-6),
    OperatorSpec("mkz-symmetric", 4, truncation_eps=1e-6)],
    ids=lambda s: s.family)
def test_stack_bytes_are_the_bytes_the_fill_allocates(spec):
    # recorded as the carrier is made, from the shape the budget guard
    # counts, before any fill
    disc = spec.record.carrier(spec)
    recorded = disc.stack_bytes
    assert disc._stack.nbytes == recorded
    assert recorded == 8 * math.prod(operators._stack_shape(spec))


def counted_fills(disc):
    """Wrap the carrier's fill so that each call appends True to the
    returned list."""
    calls, fill = [], disc._fill

    def counted():
        calls.append(True)
        return fill()

    disc._fill = counted
    return calls


BOUND_CARRIERS = [OperatorSpec(fam, n, truncation_eps=eps)
                  for fam, ns in (("mkz", (3, 5, 8)), ("mkz-reflected", (3, 5, 8)),
                                  ("mkz-symmetric", (3, 4, 6, 8)))
                  for n in ns for eps in (1e-2, 1e-6, 1e-10)]
BOUND_CARRIERS.append(OperatorSpec("mkz-symmetric", 16, truncation_eps=1e-6))


@pytest.mark.parametrize("spec", BOUND_CARRIERS,
                         ids=lambda s: f"{s.family}-{s.n}-{s.truncation_eps:g}")
def test_streamed_bound_is_the_stored_bound(spec):
    # the bound asked for before any product runs no fill, and equals,
    # bit for bit, the bound of a carrier whose first product filled its
    # stack
    streamed = operators._mkz_disc(spec)
    calls = counted_fills(streamed)
    bound = streamed.truncation_error_bound
    assert calls == [] and streamed.matrix_bytes == 0
    filled = operators._mkz_disc(spec)
    filled.advance(np.zeros(filled.nodes.size))
    assert filled.matrix_bytes > 0
    assert filled.truncation_error_bound == bound


def test_images_fill_no_stack():
    # nodes, interior, rep, apply_rep, apply_reps and the bound leave the
    # stack unfilled; the first advance fills it, once
    spec = OperatorSpec("mkz-symmetric", 6, truncation_eps=1e-10)
    disc = operators._mkz_disc(spec)
    calls = counted_fills(disc)
    f, xs = registry("exp"), np.linspace(0.0, 1.0, 7)
    rep = disc.rep(f)
    disc.apply_rep(rep, xs)
    disc.apply_reps([rep, 2.0 * rep], xs)
    assert disc.truncation_error_bound > 0.0 and disc.interior.size == disc.nodes.size
    assert calls == [] and disc.matrix_bytes == 0
    once = disc.advance(rep)
    assert np.array_equal(disc.advance(rep), once)
    assert calls == [True] and disc.matrix_bytes > 0


def row_target(spec):
    """tau_row of _mkz_node_depth: 0.25 eps psi(cap) (1 - b), the omitted
    mass the depth rule keeps the rows at the cap point 1 - 1/(4n) under,
    with 1 - b = 0.5/(n + 1) for the one-branch tags, whose b is 1."""
    one_minus_b = 1.0 - spec.contraction_bound()
    if one_minus_b <= 0.0:
        one_minus_b = 0.5 / (spec.n + 1.0)
    cap = 1.0 - 1.0 / (4.0 * spec.n)
    return 0.25 * spec.truncation_eps * float(psi(cap)) * one_minus_b


@pytest.mark.parametrize("spec", BOUND_CARRIERS
                         + [OperatorSpec("mkz-symmetric", 32, truncation_eps=1e-6)],
                         ids=lambda s: f"{s.family}-{s.n}-{s.truncation_eps:g}")
def test_bound_is_the_exact_tail_within_the_row_target(spec):
    # the carrier is made with its bound and no fill (n = 32's 996 MiB
    # stack is never built): the exact omitted mass rounded up by at most
    # 1e-9 of it, within the target the depth rule sizes the carrier for
    disc = operators._mkz_disc(spec)
    assert_bound_is_the_exact_tail(spec, disc)
    assert disc.truncation_error_bound <= row_target(spec)
    assert disc.matrix_bytes == 0


@pytest.mark.parametrize("spec", BOUND_CARRIERS,
                         ids=lambda s: f"{s.family}-{s.n}-{s.truncation_eps:g}")
def test_routed_masses_are_the_exact_tails_to_rounding(spec):
    # the routed masses, share minus the weights the fill wrote, against
    # the exact tails at every 16th node of each branch: at most 90 ulps
    # of share apart (88.1 at the worst of all the nodes of these
    # carriers, on the reflected branch of mkz-symmetric at n = 16,
    # t = 0.99380).  That is the rounding of the stored weights, which
    # the truncation bound does not count
    disc = operators._mkz_disc(spec)
    at, branches = carrier_branches(spec, disc)
    for share, reflect, count in branches:
        t = 1.0 - at if reflect else at
        routed = operators._mkz_fill(spec.n, t, share, np.empty((count, t.size)))
        for i in range(0, t.size, 16):
            exact = share * mkz_tail_mp(spec.n, float(t[i]), count)
            assert abs(routed[i] - exact) <= 90 * share * 2.0**-52, float(t[i])


@pytest.mark.parametrize("threads", [1, 2])
def test_first_advance_fills_once(threads):
    # threads that advance one fresh carrier, switching often, fill its
    # stack once and all get the products of a carrier filled alone
    spec = OperatorSpec("mkz-symmetric", 8, truncation_eps=1e-6)
    alone = operators._mkz_disc(spec)
    v = np.random.default_rng(8).standard_normal((alone.nodes.size, 2))
    want = alone.advance(v)
    disc = operators._mkz_disc(spec)
    calls = counted_fills(disc)
    got = []

    def work():
        for _ in range(3):
            got.append(disc.advance(v))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert calls == [True]
    assert len(got) == 3 * threads
    assert all(np.array_equal(out, want) for out in got)


@pytest.fixture
def factored_once(monkeypatch):
    """Factor each carrier's stack once for the test, keeping the factors
    by carrier: sweep_sums factors on every call."""
    low_rank, made = operators._low_rank_pairs, {}

    def once(disc):
        if id(disc) not in made:
            made[id(disc)] = low_rank(disc)
        return made[id(disc)]

    monkeypatch.setattr(operators, "_low_rank_pairs", once)
    return made


# a 32 MB stack at eps 1e-8, and n = 24, whose 443 MB stack is never
# filled: its products stream, and its first sample falls short of the
# rank, so the sample grows once
GROWN_8 = OperatorSpec("mkz-symmetric", 8, truncation_eps=1e-8)
STREAMED_24 = OperatorSpec("mkz-symmetric", 24, truncation_eps=1e-6)
# the width of the factors, the rank of the sampled columns, to within
# WIDTH_SLACK: the last singular values kept sit at 1.0e-16 to 2.5e-16 of
# the largest, against the cut at 1e-16 and a rounding floor near 8e-17,
# so another BLAS may keep one or two more or fewer
WIDTH_SLACK = 2
FACTOR_WIDTHS = {(3, 1e-6): 38, (3, 1e-10): 41, (4, 1e-6): 43, (4, 1e-10): 46,
                 (6, 1e-6): 51, (6, 1e-10): 54, (8, 1e-6): 57, (8, 1e-8): 59,
                 (8, 1e-10): 61, (16, 1e-6): 75, (24, 1e-6): 89}


@pytest.mark.parametrize("spec", SYMMETRIC_CARRIERS + [GROWN_8, GEOM_16, STREAMED_24],
                         ids=lambda s: f"{s.n}-{s.truncation_eps:g}")
def test_sweep_step_is_certified(spec, factored_once, monkeypatch):
    # |S v - T v|_psi <= STEP_GAP |v|_psi over the interior nodes for the
    # step S v = sweep_sums(v, 2) - v and the exact product T v, for v
    # vanishing at the endpoints like a weighted-space input; the series
    # certifies its sums by their residual, and this keeps the
    # factorization itself as accurate.  The sample grows until 24 of its
    # singular values are below the cut: with 16 the step at n = 24 was
    # off by 1.4e-12.  The basis Q = y * rho is orthonormal, and the
    # factors are the rank wide
    disc = node_discretization(spec)
    tries = []
    fill = operators._mkz_paired_stack
    monkeypatch.setattr(operators, "_mkz_paired_stack",
                        lambda *args: tries.append(args[1].size) or fill(*args))
    for v in weighted_inputs(disc, 4, spec.n):
        gap = weighted_max(disc, disc.sweep_sums(v, 2) - v - disc.product(v))
        assert np.all(gap <= STEP_GAP * weighted_max(disc, v))
    ((y, _),) = factored_once.values()
    assert y is not None  # the factored step
    assert abs(y.shape[1] - FACTOR_WIDTHS[spec.n, spec.truncation_eps]) <= WIDTH_SLACK
    assert len(tries) == (2 if spec is STREAMED_24 else 1)
    q = y * psi(disc.nodes[disc._pairs[2]]).max(axis=0)[:, None]
    assert np.max(np.abs(q.T @ q - np.eye(q.shape[1]))) <= 1e-13
    assert spec is not STREAMED_24 or disc._filled is None


@pytest.mark.parametrize("n", [3, 4, 8, 16])
def test_streamed_product_is_the_held_one(n):
    # a carrier that holds no stack streams it, block by block, and keeps
    # nothing: within 1e-15 of the held stack's product in the weighted
    # norm for inputs with zero endpoint entries, and, where the routed
    # masses enter (nonzero endpoint entries, which have no weighted
    # norm), within 4e-15 of the largest entry; the endpoint outputs agree
    # exactly
    spec = OperatorSpec("mkz-symmetric", n, truncation_eps=1e-6)
    held, fresh = node_discretization(spec), operators._mkz_disc(spec)
    ends = ~held.interior
    for v in weighted_inputs(held, 3, n):
        gap = held.advance(v) - fresh.product(v)
        assert np.all(weighted_max(held, gap) <= 1e-15 * weighted_max(held, v))
        v[ends] = np.random.default_rng(n).standard_normal((2, 3))
        gap = held.advance(v) - fresh.product(v)
        assert np.all(np.abs(gap).max(axis=0) <= 4e-15 * np.abs(v).max(axis=0))
        assert not np.any(gap[ends])
    assert held.matrix_bytes == held.stack_bytes and fresh._filled is None


@pytest.mark.parametrize("n", [4, 16])
def test_streamed_product_sums_no_unread_mass(n, monkeypatch):
    # an input with zero endpoint entries reads no routed mass (rows 0 and
    # P), so its streamed product sums none: no Kahan step runs.  An input
    # that reads row 0 or P, and a fill, still sum the masses
    disc = operators._mkz_disc(OperatorSpec("mkz-symmetric", n, truncation_eps=1e-6))
    step, calls = operators._kahan_step, []
    monkeypatch.setattr(operators, "_kahan_step",
                        lambda *args: calls.append(1) or step(*args))
    for v in weighted_inputs(disc, 2, n):
        disc.product(v)
    assert calls == [] and disc._filled is None
    for end in np.flatnonzero(~disc.interior):
        v[end, 1] = 1.0
        disc.product(v)
        assert calls
        calls.clear()
        v[end, 1] = 0.0
    disc._stack
    assert calls


@pytest.mark.parametrize("spec", SYMMETRIC_CARRIERS + [GEOM_16],
                         ids=lambda s: f"{s.n}-{s.truncation_eps:g}")
def test_sampled_columns_are_the_stack_columns(spec):
    # the factors' sample, made at its low nodes alone, is those columns
    # of the stack bit for bit, routed masses included; and a streamed
    # fill, its rows made in a buffer of several _FILL_ROWS blocks and
    # handed on buffer by buffer, makes the same rows and routed masses as
    # the fill
    disc = node_discretization(spec)
    low, _, reads = disc._pairs
    plain = reads.shape[1] - low.size
    at = disc.nodes[low]
    picks = np.array([1, 2, 5, low.size // 3, low.size - 1])
    cols = operators._mkz_paired_stack(spec, at[picks], plain, low.size - 1)[0]
    assert np.array_equal(cols, disc._stack[:, picks])
    rows = np.empty((low.size, low.size))
    want = operators._mkz_fill(spec.n, 1.0 - at, 0.5, rows)
    got = np.empty_like(rows)

    def keep(start, block):
        got[start:start + block.shape[0]] = block

    buf = np.empty((8 * operators._FILL_ROWS, low.size))
    masses = operators._mkz_fill(spec.n, 1.0 - at, 0.5, buf, low.size, keep)
    assert np.array_equal(got, rows) and np.array_equal(masses, want)


@pytest.mark.parametrize("n", [3, 4, 8, 16])
def test_closed_form_rows_are_the_stack_rows(n, monkeypatch):
    # the stack rows the factors take in closed form, on both branches,
    # next to P and the deepest one: within 2e-15 of each row's largest
    # weight of the 40-digit weights (at 48 columns), and within 1e-14 of
    # it of the filled rows.  The deepest filled row carries its running
    # product's rounding, one per row (1.6e-14 off the 40-digit weights
    # at n = 16, the closed form 2.7e-16), so it is held to 3e-14.  The
    # rows DEIM picks for the factors are distinct, and never 0 or P: z
    # is made a chunk of low nodes at a time, every chunk at the same rows,
    # and the chunks cover the low nodes in order
    spec = OperatorSpec("mkz-symmetric", n, truncation_eps=1e-6)
    disc = operators._mkz_disc(spec)
    low, _, reads = disc._pairs
    plain = reads.shape[1] - low.size
    at = disc.nodes[low]
    last = reads.shape[1] - 1
    rows = np.array([1, 2, plain - 1, plain + 1, plain + 2, last])
    got = operators._mkz_paired_rows(spec, at, plain, rows)
    stack = disc._stack[rows]
    top = np.max(stack, axis=1)
    assert np.all(np.abs(got - stack)[:-1].T <= 1e-14 * top[:-1])
    assert np.all(np.abs(got[-1] - stack[-1]) <= 3e-14 * top[-1])
    cols = np.linspace(0, at.size - 1, 48).astype(int)
    with mp.workdps(40):
        for row, r in zip(got, rows):
            j, t = (r, at[cols]) if r < plain else (r - plain, 1.0 - at[cols])
            exact = np.array([float(mp.binomial(n + j, j) * mp.mpf(x) ** j
                                    * (1 - mp.mpf(x)) ** (n + 1) / 2) for x in t])
            exact[exact < operators._TINY] = 0.0
            assert np.all(np.abs(row[cols] - exact) <= 2e-15 * np.max(row))
    made, picked = operators._mkz_paired_rows, []

    def kept(spec, at, plain, rows):
        picked.append((at, rows))
        return made(spec, at, plain, rows)

    monkeypatch.setattr(operators, "_mkz_paired_rows", kept)
    y, _ = operators._low_rank_pairs(disc)
    rows = picked[0][1]
    assert all(np.array_equal(chunk, rows) for _, chunk in picked)
    assert np.array_equal(np.concatenate([chunk for chunk, _ in picked]), at)
    assert rows.size == y.shape[1] == np.unique(rows).size
    assert not np.isin(rows, [0, plain]).any()


@pytest.mark.parametrize("n", [3, 4, 8, 16, 24])
def test_chunked_right_factor_is_the_whole_solve(n, monkeypatch):
    # z is solved a chunk of low nodes at a time, _SUM_CELLS cells each,
    # against the one y_I: the same bits as one solve of the whole
    # right-hand side (one chunk at n = 3 and 4, up to 10 at n = 24)
    spec = OperatorSpec("mkz-symmetric", n, truncation_eps=1e-6)
    disc = node_discretization(spec)
    low, _, reads = disc._pairs
    plain = reads.shape[1] - low.size
    made, picked = operators._mkz_paired_rows, []
    monkeypatch.setattr(operators, "_mkz_paired_rows",
                        lambda *args: picked.append(args[3]) or made(*args))
    with operators._one_blas_thread():
        y, z = operators._low_rank_pairs(disc)
        rows = picked[0]
        want = np.linalg.solve(y[rows], made(spec, disc.nodes[low], plain, rows))
    want[:, 0] = 0.0
    assert len(picked) == -(-low.size // (operators._SUM_CELLS // y.shape[1]))
    assert np.array_equal(z, want)
    assert disc._filled is None


@pytest.mark.parametrize("spec", SYMMETRIC_CARRIERS,
                         ids=lambda s: f"{s.n}-{s.truncation_eps:g}")
def test_coordinate_map_is_the_unit_row_map(spec):
    # the four block products of H are lift(expand(unit row)) row by row,
    # bit for bit: the zero column stands in for the reads no output of a
    # side writes, and the mirror side wins at the midpoint, as in _scatter
    disc = node_discretization(spec)
    y, z = operators._low_rank_pairs(disc)
    assert np.array_equal(disc._coordinate_map(y, z), coordinate_map(disc, y, z))


@pytest.mark.parametrize("spec", SYMMETRIC_CARRIERS + [GROWN_8],
                         ids=lambda s: f"{s.n}-{s.truncation_eps:g}")
def test_sweep_sums_are_the_factored_steps(spec, factored_once):
    # the sum in the step's coordinates is the same linear map as k - 1
    # explicit factored steps; only the rounding moves
    disc = node_discretization(spec)
    sums = disc.sweep_sums
    step = factored_step(disc)
    for v in weighted_inputs(disc, 3, spec.n):
        assert np.array_equal(sums(v, 0), np.zeros_like(v))
        assert np.array_equal(sums(v, 1), v)
        term, want = v, v.copy()
        for k in range(2, 51):
            term = step(term)
            want += term
            if k in (2, 50):
                gap = weighted_max(disc, sums(v, k) - want)
                assert np.all(gap <= 1e-13 * weighted_max(disc, v))


@pytest.mark.parametrize("spec", SYMMETRIC_CARRIERS,
                         ids=lambda s: f"{s.n}-{s.truncation_eps:g}")
def test_sweep_step_keeps_endpoint_entries_zero(spec, factored_once):
    # the factors hold the rank and nothing for pair 0: y = Q / rho, with
    # Q's columns the rank of the sampled columns, is zero on the pair-0
    # rows, and column 0 of z is zero, so a weighted-space input keeps
    # exactly zero endpoint entries and any other input is refused
    disc = node_discretization(spec)
    y, z = operators._low_rank_pairs(disc)
    rank = y.shape[1]
    assert abs(rank - FACTOR_WIDTHS[spec.n, spec.truncation_eps]) <= WIDTH_SLACK
    assert z.shape == (rank, disc._pairs[0].size)
    plain = disc._pairs[2].shape[1] - z.shape[1]  # P
    assert not np.any(y[[0, plain]]) and not np.any(z[:, 0])
    sums = disc.sweep_sums
    ends = ~disc.interior
    for v in weighted_inputs(disc, 3, spec.n):
        for k in (2, 50):
            assert not np.any(sums(v, k)[ends])
        for end in np.flatnonzero(ends):
            bad = v.copy()
            bad[end, 1] = 1e-300
            with pytest.raises(DomainError, match="endpoint"):
                sums(bad, 2)


def test_paired_carrier_has_no_square_transfer():
    # a paired stack is never unfolded; its transfer is the advances of
    # the unit vectors, which the unpaired transfer matches bit for bit
    paired = node_discretization(OperatorSpec("mkz-symmetric", 4, truncation_eps=1e-6))
    with pytest.raises(DomainError, match="no transfer"):
        paired.transfer
    assert transfer(paired).shape == (paired.nodes.size,) * 2
    for spec in (OperatorSpec("bernstein", 6), OperatorSpec("durrmeyer", 5, rho=1.0),
                 OperatorSpec("mkz", 4, truncation_eps=1e-6)):
        disc = node_discretization(spec)
        assert np.array_equal(transfer(disc), disc.transfer)


@pytest.mark.parametrize("spec", [
    OperatorSpec("bernstein", 6), OperatorSpec("durrmeyer", 5, rho=1.0),
    OperatorSpec("mkz", 4, truncation_eps=1e-6),
    OperatorSpec("mkz-reflected", 4, truncation_eps=1e-6)],
    ids=lambda s: s.family)
def test_sweep_step_without_pairs_is_advance(spec):
    # the plain sum of exact advances, bit for bit
    disc = node_discretization(spec)
    v = np.random.default_rng(spec.n).standard_normal((disc.nodes.size, 3))
    term, want = v, np.zeros_like(v)
    for k in range(20):
        if k:
            term = disc.transfer @ term
        want += term
    assert np.array_equal(disc.advance_sums(v, 20), want)
    assert np.array_equal(disc.sweep_sums(v, 20), want)


def test_sweep_step_holds_factors_not_a_stack():
    # the compression keeps every product narrow: beyond the stack it holds
    # a few arrays of (rows + cols) x rank, where rank is the numerical
    # rank of the weighted stack (cut at 1e-16 of its largest singular
    # value, from one wide random sketch here), and never a stack-sized
    # array; the sample is about 1.7 rank columns, the coordinate matrix H
    # of the sums is four products of a rank x rows gather of z with y,
    # and one sweep_sums call on a column, factors, H and sums, stays
    # within the same budget.  A carrier that holds no stack reads none of
    # it and fills none, within that budget plus one block of stack rows
    spec = OperatorSpec("mkz-symmetric", 8, truncation_eps=1e-6)
    disc = node_discretization(spec)
    stack = disc._stack
    rows, cols = stack.shape
    low, high, _ = disc._pairs
    width = rows - low.size
    p_low, p_high = psi(disc.nodes[low]), psi(disc.nodes[high])
    rho = np.maximum(p_low, p_high)
    iw = np.zeros(cols)
    iw[1:] = 1 / np.minimum(p_low, p_high)[1:]
    sketch = (np.random.default_rng(1).standard_normal((128, cols)) * iw) @ stack.T
    sv = np.linalg.svd(sketch.T * np.concatenate((rho[:width], rho))[:, None],
                       compute_uv=False)
    rank = int(np.sum(sv > 1e-16 * sv[0]))
    assert rank < 128
    v = next(weighted_inputs(disc, 1, spec.n))  # scaled by psi
    tracemalloc.start()
    try:
        sums = disc.sweep_sums(v, 50)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not np.array_equal(sums, disc.advance_sums(v, 50))  # factored
    assert peak <= 6 * (rows + cols) * rank * 8
    assert peak < stack.nbytes / 4
    fresh = operators._mkz_disc(spec)
    tracemalloc.start()
    try:
        streamed = fresh.sweep_sums(v, 50)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fresh._filled is None
    assert peak <= 6 * (rows + cols) * rank * 8 + operators._FILL_ROWS * cols * 8
    assert peak < stack.nbytes / 2
    assert np.max(np.abs(streamed - sums)) <= 1e-13 * np.max(np.abs(sums))


class TestCarrierMemoryBudget:
    def test_oversized_carriers_raise_before_building(self):
        for family in ("mkz", "mkz-symmetric"):
            with pytest.raises(TruncationBudgetError, match="GiB"):
                node_discretization(OperatorSpec(family, 64, truncation_eps=1e-6))

    @staticmethod
    def _cap_must_fit_the_stack(spec, stack, monkeypatch):
        # a cap one byte short of the counted stack refuses the build, and
        # a cap equal to it builds: the build holds nothing else of that
        # order; returns the carrier built under the equal cap, its stack
        # filled
        monkeypatch.setattr(operators, "_DISC_CACHE", {})
        monkeypatch.setattr(operators, "_CARRIER_BYTES_CAP", stack - 1)
        with pytest.raises(TruncationBudgetError, match="GiB"):
            node_discretization(spec)
        monkeypatch.setattr(operators, "_CARRIER_BYTES_CAP", stack)
        disc = node_discretization(spec)
        disc._stack
        return disc

    @pytest.mark.parametrize("family", ["mkz", "mkz-reflected"])
    def test_one_branch_build_counts_weights_and_transfer(self, family,
                                                          monkeypatch):
        # the one-branch stack is the N-square transfer, N = depth + 2,
        # transposed: the weights of each node and its routed-mass row
        spec = OperatorSpec(family, 4, truncation_eps=1e-6)
        depth = _mkz_node_depth(spec)
        disc = self._cap_must_fit_the_stack(spec, 8 * (depth + 2) ** 2, monkeypatch)
        assert disc.matrix_bytes == 8 * (depth + 2) ** 2
        assert disc.transfer.shape == (depth + 2,) * 2

    def test_symmetric_build_counts_its_stack(self, monkeypatch):
        # the guard counts the equal-share stack exactly: a cap one byte
        # short of the (P + depth + 1) x (depth + 1) array refuses the
        # build, an equal cap builds it, and the carrier holds that many
        # bytes
        spec = OperatorSpec("mkz-symmetric", 8, truncation_eps=1e-6)
        depth = _mkz_node_depth(spec)
        plain = 1 + min(depth, mkz_truncation_index(
            spec.n, 0.5, spec.record.shares[0] * operators._EVAL_TAIL))
        assert plain < depth + 1
        counted = 8 * (plain + depth + 1) * (depth + 1)
        disc = self._cap_must_fit_the_stack(spec, counted, monkeypatch)
        assert disc.matrix_bytes == counted

    @pytest.mark.parametrize("family, largest", [
        ("mkz", 50), ("mkz-reflected", 50), ("mkz-symmetric", 50)])
    def test_ceilings_at_the_default_tolerance(self, family, largest):
        # the guard alone, no build: the 4 GiB budget admits the stack of
        # each tag up to these orders at eps 1e-6, refuses the next order
        # and refuses n = 64
        operators.check_carrier_budget(
            OperatorSpec(family, largest, truncation_eps=1e-6))
        for n in (largest + 1, 64):
            with pytest.raises(TruncationBudgetError, match="GiB"):
                operators.check_carrier_budget(
                    OperatorSpec(family, n, truncation_eps=1e-6))

    @pytest.mark.parametrize("spec", [
        *(OperatorSpec(family, 8, truncation_eps=1e-6)
          for family in ("mkz", "mkz-reflected", "mkz-symmetric")),
        OperatorSpec("bernstein", 2000), OperatorSpec("durrmeyer", 2000, rho=1.0)],
        ids=lambda s: s.family)
    def test_build_peaks_at_its_stack(self, spec):
        # the stack is allocated once, on the first product, and filled in
        # place: no transfer next to a series carrier's weights, and next
        # to an exact one's rows no ratio or product arrays of its size
        tracemalloc.start()
        try:
            disc = spec.record.carrier(spec)
            assert disc.matrix_bytes == 0  # made without its stack
            disc._stack  # the fill
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert disc.matrix_bytes == disc.stack_bytes
        assert peak <= 1.1 * disc.stack_bytes


    @pytest.mark.parametrize("family, rho", [("bernstein", None),
                                             ("durrmeyer", 1.0)])
    def test_exact_ceiling(self, family, rho, monkeypatch):
        # the guard counts the (n+1)-square transfer alone, which fits the
        # 4 GiB budget up to n = 23169; a carrier of that order is made
        # without allocating it.  One past it, the message names a size
        # above the budget (4.0002 GiB must not read 4.0), and nothing of
        # that order is allocated before the refusal
        monkeypatch.setattr(operators, "_DISC_CACHE", {})
        tracemalloc.start()
        try:
            disc = node_discretization(OperatorSpec(family, 23169, rho=rho))
            with pytest.raises(TruncationBudgetError, match="GiB") as err:
                node_discretization(OperatorSpec(family, 23170, rho=rho))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert disc.matrix_bytes == 0 and disc.stack_bytes == 8 * 23170 ** 2
        assert peak < 2**20
        needs, budget = map(float, re.findall(r"([\d.]+) GiB", str(err.value)))
        assert needs > budget

    @pytest.mark.parametrize("spec", [OperatorSpec("bernstein", 256),
                                      OperatorSpec("durrmeyer", 256, rho=1.0)],
                             ids=lambda s: s.family)
    def test_exact_build_counts_its_stack(self, spec, monkeypatch):
        # the guard counts the (n+1)-square transfer exactly, refusing a
        # cap one byte short of it; the filled carrier holds that many bytes
        counted = 8 * (spec.n + 1) ** 2
        disc = self._cap_must_fit_the_stack(spec, counted, monkeypatch)
        assert disc.matrix_bytes == disc.stack_bytes == counted


def test_no_module_has_a_log_gamma():
    # every Beta and binomial constant comes from ratios, unit-mass
    # normalization or exact integers; no opgeom module defines, imports
    # or reads a log-Gamma
    banned = {"log_gamma", "lgamma", "gammaln"}
    for path in Path(operators.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            for key in ("name", "asname", "id", "attr"):
                value = getattr(node, key, None)
                if isinstance(value, str):
                    assert not banned & set(value.split(".")), (path.name, value)


class TestCarrierCache:
    @pytest.fixture
    def builds(self, monkeypatch):
        """Fresh cache; every bernstein build is recorded."""
        monkeypatch.setattr(operators, "_DISC_CACHE", {})
        record = operators.family_record("bernstein")
        log = []

        def carrier(spec):
            log.append(spec)
            return record.carrier(spec)

        monkeypatch.setitem(operators._FAMILY_TABLE, "bernstein",
                            replace(record, carrier=carrier))
        return log

    def test_least_recently_used_carrier_leaves_first(self, builds,
                                                      monkeypatch):
        log = builds
        a, b, c = (OperatorSpec("bernstein", n) for n in (5, 6, 7))
        held = {s: 8 * (s.n + 1) ** 2 for s in (a, b, c)}

        def filled(spec):
            disc = node_discretization(spec)
            disc.advance(np.ones(spec.n + 1))  # the first product fills it
            return disc

        assert all(filled(s).matrix_bytes == held[s] for s in (a, b))
        monkeypatch.setattr(operators, "_CACHE_BYTES_CAP", held[a] + held[c])
        node_discretization(a)  # a is now the most recently used
        filled(c)  # over the cap: b leaves, not a
        assert list(operators._DISC_CACHE) == [a, c]
        node_discretization(a)
        node_discretization(b)
        assert log == [a, b, c, b]

    def test_threads_asking_for_one_spec_share_one_build(self, builds,
                                                         monkeypatch):
        # the build runs under the cache lock: threads (more than the
        # cores) asking for the same spec while a slow build runs wait for
        # it and get the cached carrier.  Once each built its own, and all
        # but one kept a carrier the cache never saw
        record = operators.family_record("bernstein")

        def slow(spec):
            time.sleep(0.3)
            return record.carrier(spec)

        monkeypatch.setitem(operators._FAMILY_TABLE, "bernstein",
                            replace(record, carrier=slow))
        spec = OperatorSpec("bernstein", 5)
        ready = threading.Barrier(4)
        got = []

        def ask():
            ready.wait(60)
            got.append(node_discretization(spec))

        workers = [threading.Thread(target=ask) for _ in range(4)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
        assert not any(worker.is_alive() for worker in workers)
        assert builds == [spec] and len(got) == 4
        assert all(disc is operators._DISC_CACHE[spec] for disc in got)

    def test_late_fill_applies_the_cap(self, monkeypatch):
        # series carriers enter the cache holding no stack; the first
        # product of the newer one fills it past the cap, and the least
        # recently used carrier leaves
        monkeypatch.setattr(operators, "_DISC_CACHE", {})
        a, b = (OperatorSpec("mkz", n, truncation_eps=1e-6) for n in (3, 4))
        older, newer = node_discretization(a), node_discretization(b)
        assert older.matrix_bytes == newer.matrix_bytes == 0
        monkeypatch.setattr(operators, "_CACHE_BYTES_CAP",
                            8 * (_mkz_node_depth(a) + 2) ** 2)
        older.advance(np.ones(older.nodes.size))  # fills within the cap
        assert list(operators._DISC_CACHE) == [a, b]
        newer.advance(np.ones(newer.nodes.size))
        assert newer.matrix_bytes > 0
        assert list(operators._DISC_CACHE) == [b]

    def test_cap_holds_when_each_stack_is_allocated(self, monkeypatch):
        # inside every fill, the matrices the cache holds plus the stack
        # being filled are within the cap, or the cache holds the newest
        # carrier alone: the cap is applied before the fill, not only after
        monkeypatch.setattr(operators, "_DISC_CACHE", {})
        specs = [OperatorSpec("mkz", n, truncation_eps=1e-6) for n in (3, 4, 5)]
        discs = [node_discretization(s) for s in specs]
        cap = discs[0].stack_bytes + discs[1].stack_bytes
        monkeypatch.setattr(operators, "_CACHE_BYTES_CAP", cap)
        seen = []

        def recorded(disc, fill):
            cache = operators._DISC_CACHE
            seen.append((disc.stack_bytes
                         + sum(d.matrix_bytes for d in cache.values()),
                         list(cache)))
            return fill()

        for disc in discs:
            disc._fill = partial(recorded, disc, disc._fill)
        for disc in discs:
            disc.advance(np.ones(disc.nodes.size))
        assert len(seen) == 3
        for held, cached in seen:
            assert held <= cap or cached == specs[-1:], (held, cap, cached)

    def test_cap_counts_a_fill_running_in_another_thread(self, monkeypatch):
        # a's fill is held mid-way in a thread; b's fill, asked for in a
        # second thread, does not start until a's ends.  The cap before b's
        # fill then counts b's stack next to the cached matrices, a's
        # stack among them, so the oldest carrier leaves, where the cached
        # ones alone fit the cap
        monkeypatch.setattr(operators, "_DISC_CACHE", {})
        old, a, b = (node_discretization(OperatorSpec("mkz", n, truncation_eps=1e-6))
                     for n in (3, 4, 5))
        old.advance(np.ones(old.nodes.size))
        started, release, b_started = (threading.Event() for _ in range(3))
        seen = []

        def held(fill):
            started.set()
            assert release.wait(60)
            return fill()

        def recorded(fill):
            b_started.set()
            seen.append((list(operators._DISC_CACHE), sum(
                d.matrix_bytes for d in operators._DISC_CACHE.values())))
            return fill()

        a._fill, b._fill = partial(held, a._fill), partial(recorded, b._fill)
        workers = [threading.Thread(target=lambda: a._stack),
                   threading.Thread(target=lambda: b.advance(np.ones(b.nodes.size)))]
        cap = old.stack_bytes + a.stack_bytes + b.stack_bytes - 1
        workers[0].start()
        try:
            assert started.wait(60)
            monkeypatch.setattr(operators, "_CACHE_BYTES_CAP", cap)
            workers[1].start()
            assert not b_started.wait(0.5)  # b waits for a's fill
            assert workers[1].is_alive() and seen == []
        finally:
            release.set()
            for worker in workers:
                worker.join(timeout=60)
        assert not any(worker.is_alive() for worker in workers)
        assert seen == [([a.spec, b.spec], a.stack_bytes)]
        assert a.stack_bytes + b.stack_bytes <= cap
        assert list(operators._DISC_CACHE) == [a.spec, b.spec]
        assert a.matrix_bytes == a.stack_bytes and b.matrix_bytes == b.stack_bytes

    def test_threads_under_a_small_cap_get_the_products_alone(self,
                                                              monkeypatch):
        # more threads than cores fill, evict and rebuild three carriers
        # under a cap that holds one stack: every product equals that of a
        # carrier filled alone, and the cache ends keyed by its carriers'
        # specs and within the cap
        monkeypatch.setattr(operators, "_DISC_CACHE", {})
        specs = [OperatorSpec("mkz", n, truncation_eps=1e-6) for n in (3, 4, 5)]
        alone = {s: operators._mkz_disc(s) for s in specs}
        vs = {s: np.linspace(0.0, 1.0, d.nodes.size) for s, d in alone.items()}
        want = {s: alone[s].advance(vs[s]) for s in specs}
        cap = max(d.stack_bytes for d in alone.values())
        monkeypatch.setattr(operators, "_CACHE_BYTES_CAP", cap)
        wrong = []

        def work(shift):
            for i in range(12):
                s = specs[(i + shift) % 3]
                if not np.array_equal(node_discretization(s).advance(vs[s]), want[s]):
                    wrong.append(s)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert wrong == []
        cache = operators._DISC_CACHE
        assert all(spec == disc.spec for spec, disc in cache.items())
        assert sum(disc.matrix_bytes for disc in cache.values()) <= cap

    def test_stack_above_the_cap_stays(self, monkeypatch):
        # the newest carrier stays even when its stack alone passes the cap
        monkeypatch.setattr(operators, "_DISC_CACHE", {})
        monkeypatch.setattr(operators, "_CACHE_BYTES_CAP", 1)
        spec = OperatorSpec("mkz-symmetric", 4, truncation_eps=1e-6)
        disc = node_discretization(spec)
        disc.advance(np.zeros(disc.nodes.size))
        assert list(operators._DISC_CACHE) == [spec]
        assert disc.matrix_bytes == disc.stack_bytes > 1
        assert node_discretization(spec) is disc


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

    @pytest.mark.parametrize("family, n", [
        (family, n) for family in ("mkz", "mkz-reflected", "mkz-symmetric")
        for n in (1, 2, 3, 8, 16) if n >= family_record(family).min_n])
    def test_node_alpha_oracles(self, family, n):
        # cond55's alpha at its nodes, down to the deepest node of the
        # default profile grid, from the closed-form M2: against the
        # weight series at eps 1e-14 (_mkz_sum), which sits below the
        # closed form by at most its dropped tail 0.1 eps (1 - t)^2 per
        # branch (64 ulps of rounding either way), and against the exact
        # oracle within 8 ulps
        spec = OperatorSpec(family, n, truncation_eps=1e-14)
        k = np.arange(1, mkz_truncation_index(n, 1.0 - 0.25 / n, 1e-7) + 1)
        x = n / (n + k) if family == "mkz-reflected" else k / (n + k)
        m2, terms = operators._closed_m2(spec, x)
        got = m2 / psi(x)
        want, series, allow = 0.0, 0.0, 0.0
        ulps = np.finfo(float).eps
        tail = 0.1 * spec.truncation_eps
        for share, reflect in spec.record.branches:
            t = 1.0 - x if reflect else x
            want = want + share * mkz_second_moment(n, t)
            series = series + share * operators._mkz_sum(
                n, t, operators._mkz_depths(n, t, tail),
                lambda nodes, rows, t=t: (nodes - t[rows, None],) * 2)
            allow = allow + share * tail * (1.0 - t) ** 2
        series = series / psi(x)
        assert np.all(got >= series - 64 * ulps * series)
        assert np.all(got <= series + allow / psi(x) + 64 * ulps * series)
        assert np.all(np.abs(got - want / psi(x)) <= 8 * ulps * got)
        assert 0 < terms <= operators._M2_TERMS

    @pytest.mark.parametrize("n", [1, 2, 16])
    def test_closed_m2_budget(self, n):
        # below t = 4/5 the 2F1 series stops within 172 terms, at the
        # deepest point one ulp below 4/5 too (n = 1 has no telescoping
        # factor and n = 2 the weakest); from 4/5 the recurrence takes
        # over, continuous there to within 8 ulps of the exact oracle
        split = operators._M2_SPLIT
        below = np.nextafter(split, 0.0)
        around = np.array([0.5, np.nextafter(below, 0.0), below, split,
                           np.nextafter(split, 1.0)])
        got, terms = operators._mkz_m2(n, around)
        assert terms <= operators._M2_TERMS == 172
        want = mkz_second_moment(n, around)
        assert np.all(np.abs(got - want) <= 8 * np.finfo(float).eps * want)
