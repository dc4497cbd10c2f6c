"""Special-function layer: values against independent oracles, domain
errors, and the basis-weight invariants."""

import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from opgeom.errors import DomainError
from opgeom.funcspace import default_grid
from opgeom.special import bernstein_values, mkz_weight_matrix
from oracles import (LogDomainValue, bernstein_basis, bernstein_pow_table,
                     bernstein_row_mp, bernstein_sums_mp, binomial, log_binomial,
                     mkz_basis_weight, mkz_weight_row)

mp.mp.dps = 40

CHEB = default_grid(1001).points
EDGE = np.array([0.0, 5e-324, 1e-300, 1e-9, 0.5, 1.0 - 1e-16, 1.0])


class TestLogDomainValue:
    def test_round_trip(self):
        rng = np.random.default_rng(7)
        for v in np.concatenate([rng.uniform(-5, 5, 50),
                                 10.0 ** rng.uniform(-30, 30, 50)]):
            back = LogDomainValue.from_value(float(v)).value()
            assert back == pytest.approx(float(v), rel=1e-14)
        # exp/log conditioning limits extreme magnitudes to ~|log v| ulp
        for v in 10.0 ** rng.uniform(-250, 250, 50):
            back = LogDomainValue.from_value(float(v)).value()
            assert back == pytest.approx(float(v), rel=1e-13)

    def test_zero(self):
        z = LogDomainValue.from_value(0.0)
        assert z.sign == 0 and z.value() == 0.0

    def test_product(self):
        a = LogDomainValue.from_value(-3.0)
        b = LogDomainValue.from_value(0.5)
        assert (a * b).value() == pytest.approx(-1.5, rel=1e-14)
        assert (a * LogDomainValue.from_value(0.0)).value() == 0.0


class TestBinomial:
    def test_exact_small(self):
        assert binomial(30, 14) == float(math.comb(30, 14))
        assert binomial(5, 0) == 1.0

    def test_log_route_matches_comb(self):
        for n, k in [(64, 31), (400, 123), (1500, 700)]:
            ref = float(mp.log(mp.binomial(n, k)))
            assert log_binomial(n, k) == pytest.approx(ref, abs=1e-12, rel=1e-13)

    def test_domain(self):
        with pytest.raises(DomainError):
            binomial(4, 5)
        with pytest.raises(DomainError):
            log_binomial(4, -1)


class TestBernsteinBasis:
    def test_values(self):
        assert bernstein_basis(2, 1, 0.5) == pytest.approx(0.5, rel=1e-15)
        assert bernstein_basis(17, 0, 0.0) == 1.0
        assert bernstein_basis(17, 3, 0.0) == 0.0
        brute = math.comb(10, 3) * 0.3 ** 3 * 0.7 ** 7
        assert bernstein_basis(10, 3, 0.3) == pytest.approx(brute, rel=1e-14)

    def test_index_error(self):
        with pytest.raises(IndexError):
            bernstein_basis(5, 6, 0.5)
        with pytest.raises(IndexError):
            bernstein_basis(5, -1, 0.5)

    def test_partition_of_unity(self):
        xs = np.linspace(0.0, 1.0, 101)
        for n in (1, 7, 33, 64):
            ones, basis = bernstein_values(n, [np.ones(n + 1), np.eye(n + 1)], xs)
            assert np.max(np.abs(ones - 1.0)) <= 1e-12
            assert np.min(basis) >= 0.0

    def test_symmetry(self):
        # the basis is the values of the identity coefficients
        xs = np.linspace(0.01, 0.99, 57)
        for n in (5, 33, 64):
            eye = np.eye(n + 1)
            (a,) = bernstein_values(n, [eye], xs)
            (b,) = bernstein_values(n, [eye[::-1]], 1.0 - xs)
            assert np.max(np.abs(a - b)) <= 1e-13

    def test_row_matches_scalar(self):
        ((row,),) = bernstein_values(12, [np.eye(13)], np.array([0.37]))
        for k in range(13):
            assert row[k] == pytest.approx(bernstein_basis(12, k, 0.37), rel=1e-14)

    def test_large_order_log_route(self):
        # above the direct-product cutoff the log-domain path takes over
        val = bernstein_basis(1200, 600, 0.5)
        ref = float(mp.binomial(1200, 600) * mp.mpf(0.5) ** 1200)
        assert val == pytest.approx(ref, rel=1e-11)

    @pytest.mark.parametrize("n", [256, 512, 1000])
    def test_matrix_is_the_plain_pow_table(self, n):
        # the basis matrix, the values of the identity coefficients, starts
        # each point's recurrence from the plain pow value: (1-x)^n in
        # column 0 where x <= 1/2 and x^n in column n where x > 1/2 are the
        # pow table's to the bit, and so are the unit rows at x = 0 and 1
        for xs in (CHEB, EDGE):
            (p,) = bernstein_values(n, [np.eye(n + 1)], xs)
            table = bernstein_pow_table(n, xs)
            low, ends = xs <= 0.5, np.isin(xs, (0.0, 1.0))
            assert np.array_equal(p[low, 0], table[low, 0])
            assert np.array_equal(p[~low, n], table[~low, n])
            assert np.array_equal(p[ends], table[ends])

    @pytest.mark.parametrize("n", [256, 512, 1000])
    def test_matrix_against_forty_digits(self, n):
        # the pow table, which the values are measured against, is within
        # 8u of 40 digits at every cell above 1e-30; the kernel's basis
        # matrix is within its docstring bound at every cell
        u = 2.0 ** -53
        xs = np.concatenate((CHEB[::10], EDGE))
        table = bernstein_pow_table(n, xs)
        (p,) = bernstein_values(n, [np.eye(n + 1)], xs)
        for i, x in enumerate(xs):
            ref = np.array([float(v) for v in bernstein_row_mp(n, float(x))])
            assert np.max(np.abs(table[i] - ref)) <= 2e-16, x
            big = ref >= 1e-30
            assert np.max(np.abs(table[i][big] / ref[big] - 1.0)) <= 8 * u, x
            bound = (6 * n + 64) * u * ref + (n + 1) * 2.0 ** -1021
            assert np.all(np.abs(p[i] - ref) <= bound), x

    @pytest.mark.parametrize("n", [1200, 2000])
    def test_matrix_past_exact_binomials(self, n):
        # C(n, k) overflows a float from n = 1030 and (1-x)^n goes
        # subnormal from about n = 1022: the basis, the values of the
        # identity coefficients, stays in range by its power-of-two scale
        xs = np.array([0.0, 1e-9, 0.013, 0.2, 0.37, 0.5, 0.71, 0.999,
                       1.0 - 1e-9, 1.0])
        (p,) = bernstein_values(n, [np.eye(n + 1)], xs)
        assert np.all(np.isfinite(p)) and np.min(p) >= 0.0
        assert np.max(np.abs(p.sum(axis=1) - 1.0)) <= 1e-12
        for i, x in enumerate(xs):
            for k in range(n + 1):
                ref = bernstein_basis(n, k, float(x))
                if ref >= 1e-300:
                    assert abs(p[i, k] / ref - 1.0) <= 1e-11, (x, k)


class TestBernsteinValues:
    # the endpoints, points next to them and to 1/2 (1 - x is exact at
    # all of these but 1e-9), and a spread of grid points
    POINTS = np.concatenate(([0.0, 1e-9, 0.5, 0.5 + 1e-12, 1.0 - 1e-9, 1.0],
                             CHEB[5::80]))

    @pytest.mark.parametrize("n", [1, 2, 7, 64, 255, 256, 512, 1000, 1100, 2000])
    def test_against_forty_digits(self, n):
        # at every point within the docstring's bound of the exact sum,
        # relative to sum_k |c_k| p_{n,k}(x); up to n = 1000 the largest
        # such error over the points is also at most twice the pow
        # table's, plus 4u
        u = 2.0 ** -53
        k = np.arange(n + 1)
        coeffs = [np.cos(7.0 * k) * (1.0 + k / n),
                  np.random.default_rng(n).standard_normal(n + 1),
                  np.sin(np.pi * k / n) * (1.0 + 0.3 * np.cos(7.0 * k))]
        got = bernstein_values(n, coeffs, self.POINTS)
        table = bernstein_pow_table(n, self.POINTS) if n <= 1000 else None
        refs = [bernstein_sums_mp(n, float(x), coeffs) for x in self.POINTS]
        for j, (c, vals) in enumerate(zip(coeffs, got)):
            floor = (n + 1) * 2.0 ** -1021 * np.max(np.abs(c))
            worst = worst_table = 0.0
            for i, x in enumerate(self.POINTS):
                ref, size = refs[i][j]
                err = float(abs(mp.mpf(vals[i]) - ref))
                assert err <= (6 * n + 64) * u * float(size) + floor, x
                if table is not None and size > 0:
                    worst = max(worst, err / float(size))
                    table_err = abs(mp.mpf(float(table[i] @ c)) - ref)
                    worst_table = max(worst_table, float(table_err / size))
            assert worst <= 2.0 * worst_table + 4.0 * u

    def test_per_point_coefficients(self):
        # column i of a per-point array holds the coefficients of xs[i]:
        # each value is that column's shared-coefficient value at xs[i]
        xs = np.array([0.0, 0.2, 0.5, 0.7, 1.0])
        c = np.random.default_rng(1).standard_normal((41, xs.size))
        (got,) = bernstein_values(40, [c], xs, per_point=True)
        for i, x in enumerate(xs):
            (alone,) = bernstein_values(40, [c[:, i]], np.array([x]))
            assert got[i] == pytest.approx(alone[0], rel=0.0, abs=1e-14)

    def test_each_array_is_evaluated_on_its_own(self):
        # the slabs depend on the points only: an array's values are the
        # same bits alone and beside others, at any n
        xs = np.concatenate((CHEB[::50], EDGE))
        for n in (3, 100, 1500):
            rng = np.random.default_rng(n)
            reps = [rng.standard_normal(n + 1), rng.standard_normal((n + 1, 4))]
            for rep, got in zip(reps, bernstein_values(n, reps, xs)):
                assert np.array_equal(got, bernstein_values(n, [rep], xs)[0])


class TestMkzWeights:
    def test_values(self):
        assert mkz_basis_weight(3, 0, 0.0) == 1.0
        assert mkz_basis_weight(3, 2, 0.0) == 0.0
        assert mkz_basis_weight(1, 1, 0.5) == pytest.approx(0.25, rel=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            mkz_basis_weight(3, 1, 1.0)
        with pytest.raises(DomainError):
            mkz_basis_weight(3, -1, 0.5)
        with pytest.raises(DomainError):
            mkz_basis_weight(0, 1, 0.5)

    def test_partial_sums_monotone_normalized(self):
        (w,) = mkz_weight_matrix(3, np.array([0.4]), 400)
        cums = np.cumsum(w)
        assert np.all(np.diff(cums) >= 0.0)
        assert cums[-1] <= 1.0 + 1e-12
        assert cums[-1] >= 1.0 - 1e-10

    def test_row_matches_scalar_log_route(self):
        (w,) = mkz_weight_matrix(4, np.array([0.8]), 300)
        for k in (0, 1, 17, 120, 300):
            assert w[k] == pytest.approx(mkz_basis_weight(4, k, 0.8), rel=1e-11)

    def test_matrix_matches_rows(self):
        xs = np.array([0.1, 0.5, 0.92])
        mat = mkz_weight_matrix(5, xs, 200)
        for i, x in enumerate(xs):
            assert np.max(np.abs(mat[i] - mkz_weight_row(5, float(x), 200))) == 0.0

    def test_matrix_holds_nothing_beside_its_output(self):
        # the ratios are written into the output and multiplied up in
        # place: a 512-row block at n = 16 peaks at its own bytes
        xs = np.linspace(0.0, 0.999, 512)
        tracemalloc.start()
        try:
            out = mkz_weight_matrix(16, xs, 4112)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * out.nbytes
