"""Special-function layer: values against independent oracles, domain
errors, and the basis-weight invariants."""

import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from opgeom.errors import DomainError
from opgeom.funcspace import default_grid
from opgeom.special import bernstein_basis_matrix, mkz_weight_matrix
from oracles import (LogDomainValue, bernstein_basis, bernstein_pow_table,
                     bernstein_row_mp, binomial, log_binomial,
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
            p = bernstein_basis_matrix(n, xs)
            assert np.max(np.abs(p.sum(axis=1) - 1.0)) <= 1e-12
            assert np.min(p) >= 0.0

    def test_symmetry(self):
        xs = np.linspace(0.01, 0.99, 57)
        for n in (5, 33, 64):
            a = bernstein_basis_matrix(n, xs)
            b = bernstein_basis_matrix(n, 1.0 - xs)[:, ::-1]
            assert np.max(np.abs(a - b)) <= 1e-13

    def test_row_matches_scalar(self):
        (row,) = bernstein_basis_matrix(12, np.array([0.37]))
        for k in range(13):
            assert row[k] == pytest.approx(bernstein_basis(12, k, 0.37), rel=1e-14)

    def test_large_order_log_route(self):
        # above the direct-product cutoff the log-domain path takes over
        val = bernstein_basis(1200, 600, 0.5)
        ref = float(mp.binomial(1200, 600) * mp.mpf(0.5) ** 1200)
        assert val == pytest.approx(ref, rel=1e-11)

    @pytest.mark.parametrize("n", [1, 2, 7, 64, 255, 256, 512, 1000])
    def test_matrix_is_the_plain_pow_table(self, n):
        # the cells skipped as underflowing are those that pow rounds to 0
        for xs in (CHEB, EDGE):
            assert np.array_equal(bernstein_basis_matrix(n, xs),
                                  bernstein_pow_table(n, xs))

    @pytest.mark.parametrize("n", [256, 512, 1000])
    def test_matrix_against_forty_digits(self, n):
        u = 2.0 ** -53
        xs = np.concatenate((CHEB[::10], EDGE))
        p = bernstein_basis_matrix(n, xs)
        for i, x in enumerate(xs):
            ref = np.array([float(v) for v in bernstein_row_mp(n, float(x))])
            assert np.max(np.abs(p[i] - ref)) <= 2e-16, x
            big = ref >= 1e-30
            assert np.max(np.abs(p[i][big] / ref[big] - 1.0)) <= 8 * u, x

    @pytest.mark.parametrize("n", [1200, 2000])
    def test_matrix_past_exact_binomials(self, n):
        # C(n, k) overflows a float from n = 1030 and the powers go
        # subnormal from about n = 1022: the matrix takes the log domain
        xs = np.array([0.0, 1e-9, 0.013, 0.2, 0.37, 0.5, 0.71, 0.999,
                       1.0 - 1e-9, 1.0])
        p = bernstein_basis_matrix(n, xs)
        assert np.all(np.isfinite(p)) and np.min(p) >= 0.0
        assert np.max(np.abs(p.sum(axis=1) - 1.0)) <= 1e-12
        for i, x in enumerate(xs):
            for k in range(n + 1):
                ref = bernstein_basis(n, k, float(x))
                if ref >= 1e-300:
                    assert abs(p[i, k] / ref - 1.0) <= 1e-11, (x, k)


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
