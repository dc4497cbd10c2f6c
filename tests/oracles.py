"""Oracle helpers: for the special-function tests a log-domain number,
exact binomials and their logs as one sum of log ratios, single
Bernstein and Meyer-Koenig-Zeller basis values, the plain-pow Bernstein
table, a 40-digit Bernstein row and Bernstein-form sum and one
Meyer-Koenig-Zeller weight row, which compute the same quantities as the vectorized kernels in
opgeom.special by a separate route; the plain Meyer-Koenig-Zeller second
moment from its hypergeometric closed form at 40 digits; the weight
mass of that series past a depth, as mpmath's incomplete Beta function
at 45 digits; for the sweep
tests the low-rank step of a paired carrier, applied one step at a time,
and its coordinate map built from unit rows;
for the paired carrier the mkz-symmetric stack built row by row by a fill
of its own, and its product; the square transfer matrix of any carrier,
paired or not, from advances of the unit vectors; for the Krylov tests
one GMRES on the whole interior right-hand side, without the parity
split; for the exact families their geometric series of a polynomial
input, in exact rational arithmetic."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction

import mpmath as mp
import numpy as np

from opgeom import operators, series
from opgeom.errors import DomainError
from opgeom.funcspace import psi, psi_norm

__all__ = ["LogDomainValue", "log_binomial", "binomial", "bernstein_basis",
           "bernstein_pow_table", "bernstein_row_mp", "bernstein_sums_mp",
           "mkz_basis_weight",
           "mkz_weight_row", "mkz_second_moment", "mkz_tail_mp",
           "factored_step", "coordinate_map", "fill_rows", "single_stack",
           "single_stack_advance", "transfer", "unsplit_krylov", "exact_series"]


@dataclass(frozen=True)
class LogDomainValue:
    """A real number stored as log|value| plus a sign in {-1, 0, +1}."""

    log_abs: float
    sign: int

    @classmethod
    def from_value(cls, value: float) -> "LogDomainValue":
        if value == 0.0:
            return cls(0.0, 0)
        return cls(math.log(abs(value)), 1 if value > 0 else -1)

    def value(self) -> float:
        if self.sign == 0:
            return 0.0
        return self.sign * math.exp(self.log_abs)

    def __mul__(self, other: "LogDomainValue") -> "LogDomainValue":
        if self.sign == 0 or other.sign == 0:
            return LogDomainValue(0.0, 0)
        return LogDomainValue(self.log_abs + other.log_abs, self.sign * other.sign)


def log_binomial(n: int, k: int) -> float:
    """log C(n, k), assembled as a sum of n - k (or k) log ratios.

    Summing log((m+j)/j) keeps the absolute error near machine level,
    which exp() turns into relative error; a log-Gamma difference would
    lose ~1e-9 relative accuracy for large arguments.
    """
    if k < 0 or k > n:
        raise DomainError(f"binomial index k={k} outside [0, {n}]")
    k = min(k, n - k)
    if k == 0:
        return 0.0
    j = np.arange(1, k + 1, dtype=float)
    return float(np.sum(np.log((n - k + j) / j)))


def binomial(n: int, k: int) -> float:
    """C(n, k) as a float; exact integer arithmetic whenever representable."""
    if k < 0 or k > n:
        raise DomainError(f"binomial index k={k} outside [0, {n}]")
    if n <= 1000:
        # math.comb is exact; values up to n = 1000 stay inside float range.
        return float(math.comb(n, k))
    return math.exp(log_binomial(n, k))


def bernstein_basis(n: int, k: int, x: float) -> float:
    """Bernstein basis value C(n,k) x^k (1-x)^(n-k) at a point of [0, 1].

    Exact binomials and direct products up to n = 1000; the log-domain
    route above that avoids overflow.
    """
    if k < 0 or k > n:
        raise IndexError(f"basis index k={k} outside [0, {n}]")
    if x == 0.0:
        return 1.0 if k == 0 else 0.0
    if x == 1.0:
        return 1.0 if k == n else 0.0
    if n <= 1000:
        return float(math.comb(n, k)) * x**k * (1.0 - x) ** (n - k)
    return math.exp(
        log_binomial(n, k) + k * math.log(x) + (n - k) * math.log1p(-x)
    )


def bernstein_pow_table(n: int, xs: np.ndarray) -> np.ndarray:
    """C(n,k) * x^k * (1-x)^(n-k) for n <= 1000 as one numpy expression:
    math.comb binomials and plain pow on every cell, multiplied left to
    right: the route the Bernstein-form values are measured against."""
    xs = np.asarray(xs, dtype=float)[:, None]
    k = np.arange(n + 1)
    comb = np.array([float(math.comb(n, j)) for j in range(n + 1)])
    return comb * xs ** k * (1.0 - xs) ** (n - k)


def bernstein_row_mp(n: int, x: float) -> list:
    """C(n,k) x^k y^(n-k), k = 0..n, in 40-digit arithmetic with y the
    rounded float 1 - x, as the pow table takes it, by the ratio
    recurrence from y^n (its rounding stays near n * 1e-40 relative)."""
    y = 1.0 - x
    with mp.workdps(40):
        mx, my = mp.mpf(x), mp.mpf(y)
        if y == 0.0:
            return [mp.mpf(0)] * n + [mp.mpf(1)]
        row = [my ** n]
        for k in range(n):
            row.append(row[-1] * (n - k) / (k + 1) * mx / my)
        return row


def bernstein_sums_mp(n: int, x: float, coeffs: list) -> list:
    """(sum_k c_k p_{n,k}(x), sum_k |c_k| p_{n,k}(x)) for each coefficient
    array c of coeffs, in 40-digit arithmetic with x and 1 - x exact: the
    basis row by the ratio recurrence from (1-x)^n (its rounding stays
    near n * 1e-40 relative), made once for all the arrays."""
    with mp.workdps(40):
        mx = mp.mpf(x)
        my = 1 - mx
        row = [mp.mpf(0)] * n + [mp.mpf(1)]
        if my != 0:
            row = [my ** n]
            for k in range(1, n + 1):
                row.append(row[-1] * (n - k + 1) / k * mx / my)
        out = []
        for c in coeffs:
            cs = [mp.mpf(float(v)) for v in c]
            out.append((mp.fsum(v * p for v, p in zip(cs, row)),
                        mp.fsum(abs(v) * p for v, p in zip(cs, row))))
        return out


def mkz_basis_weight(n: int, k: int, x: float) -> float:
    """Negative-binomial weight C(n+k,k) (1-x)^(n+1) x^k, log-domain.

    Defined for x in [0, 1); the operator's x = 1 branch is handled by
    the caller.
    """
    if n < 1:
        raise DomainError("mkz weight requires n >= 1")
    if k < 0:
        raise DomainError("mkz weight requires k >= 0")
    if not 0.0 <= x < 1.0:
        raise DomainError("mkz weight requires 0 <= x < 1")
    if x == 0.0:
        return 1.0 if k == 0 else 0.0
    term = LogDomainValue(log_binomial(n + k, k), 1) * LogDomainValue(
        (n + 1) * math.log1p(-x) + k * math.log(x), 1
    )
    return term.value()


def mkz_weight_row(n: int, x: float, kmax: int) -> np.ndarray:
    """Weights k = 0..kmax at one x, by the stable ratio recurrence.

    w_{k+1} = w_k * x * (n+k+1)/(k+1); every factor is positive, so the
    relative error stays at ~kmax ulp and deep weights underflow to 0
    harmlessly.
    """
    if not 0.0 <= x < 1.0:
        raise DomainError("mkz weights require 0 <= x < 1")
    w0 = (1.0 - x) ** (n + 1)
    if x == 0.0 or w0 == 0.0:
        out = np.zeros(kmax + 1)
        out[0] = w0 if x > 0.0 else 1.0
        return out
    k = np.arange(kmax, dtype=float)
    ratios = x * ((n + 1.0 + k) / (k + 1.0))
    out = np.empty(kmax + 1)
    out[0] = 1.0
    np.cumprod(ratios, out=out[1:])
    out *= w0
    return out


def mkz_second_moment(n: int, xs) -> np.ndarray:
    """M2 at the points xs in [0, 1): the second central moment of the
    plain Meyer-Koenig-Zeller operator in closed form,

        M2(x) = x (1-x)^2 / (n+1) 2F1(1, 2; n+2; x),

    from the float x at 40 digits or more, rounded once: exact to the last
    bit but for a tie.  No weight of the operator enters."""
    return np.array([_m2_exact(n, x) for x in np.ravel(xs).tolist()])


@lru_cache(maxsize=2**16)  # nodes recur across the tests' families
def _m2_exact(n: int, x: float) -> float:
    """One point of mkz_second_moment.  Below 1/2 it is mpmath's hyp2f1 at
    40 digits.  From 1/2, where hyp2f1 takes milliseconds, it is the
    finite form of the integer case: with a = (1-x)/x, M2 = x a^2 I_n and

        I_n = int_0^1 u^n (a+u)^-2 du
            = sum_k C(n, k) (-a)^(n-k) int_0^1 (a+u)^(k-2) du,

    where the k = 1 integral is log((1+a)/a) = -log(1-x) and the others
    are powers.  As a <= 1, no term exceeds n 3^n and I_n >= 1/(4(n+1)),
    so 40 digits are left after the cancellation once that ratio's digits
    are added (test_second_moment_oracle_matches_hyp2f1)."""
    if x < 0.5:
        with mp.workdps(40):
            t = mp.mpf(x)
            return float(t * (1 - t) ** 2 / (n + 1)
                         * mp.hyp2f1(1, 2, n + 2, t))
    lost = math.log10(4.0 * n * (n + 1)) + n * math.log10(3.0)
    with mp.workdps(41 + int(lost)):
        t = mp.mpf(x)
        a = (1 - t) / t
        integrals = [1 / (a * (1 + a)), -mp.log1p(-t)]
        integrals += [((1 + a) ** (k - 1) - a ** (k - 1)) / (k - 1)
                      for k in range(2, n + 1)]
        total = mp.fsum(math.comb(n, k) * (-a) ** (n - k) * integrals[k]
                        for k in range(n + 1))
        return float(t * a * a * total)


@lru_cache(maxsize=2**12)  # the carrier tests ask for the same nodes
def mkz_tail_mp(n: int, t: float, count: int):
    """sum_{j >= count} w_j(t), the weight mass of the plain
    Meyer-Koenig-Zeller series at the float t past its first count terms,
    as an mpmath number (tails below the float range stay exact): the
    regularized incomplete Beta function I_t(count, n + 1) at 45 digits,
    by mpmath's hypergeometric route, not the binomial sum of
    operators._mkz_tail."""
    with mp.workdps(45):
        return mp.betainc(count, n + 1, 0, mp.mpf(t), regularized=True)


def factored_step(disc):
    """step(v) = scatter((gather(v) @ y) @ z), the low-rank step of the
    paired carrier disc, whose partial sums disc.sweep_sums(v, k) forms in the
    step's own coordinates."""
    y, z = operators._low_rank_pairs(disc)

    def step(v):
        return disc._scatter(disc._gather(v) @ y @ z).reshape(v.shape)

    return step


def coordinate_map(disc, y, z):
    """H of disc.sweep_sums for the factors (y, z): row i is
    lift(expand(unit row i)), through the carrier's own _expand and
    _gather, for the a unit rows of one output side at a time, and the
    rows each gathers for one side of the reads at a time; so each product
    with y is a x rows times rows x a, the shape of each of the carrier's
    four (the BLAS may round a row of a product by the product's shape)."""
    a = z.shape[0]
    unit, h = np.eye(2 * a), np.empty((2 * a, 2 * a))
    for s in range(2):
        outs = disc._expand(unit[s * a:(s + 1) * a], z)  # column i: unit row i
        rows = disc._gather(outs).reshape(a, 2, -1)
        for t in range(2):
            h[s * a:(s + 1) * a, t * a:(t + 1) * a] = rows[:, t] @ y
    return h


def fill_rows(rows, n, t, share):
    """Write share * w_j(t) into rows[j], j = 0..len(rows) - 1, at all the
    points t at once; return each point's routed mass, share minus the
    weights written (share itself at t = 1, the point mass at the
    branch's endpoint, which gets no weights).

    Each row is one vector operation over the points, multiplied in the
    order of mkz_weight_matrix (running product of t (n+j)/j, then
    (1-t)^(n+1), then the share), so the weights equal its columns bit for
    bit.  Every weight below the smallest normal float is flushed to 0,
    cell by cell, and the routed mass absorbs them exactly.  The weights
    are summed in blocks of _FILL_ROWS rows from row 0, each block's rows
    added in order, and the block sums with Kahan's compensation.
    """
    at_end = t == 1.0
    t = np.where(at_end, 0.0, t)
    w0 = np.where(at_end, 0.0, (1.0 - t) ** (n + 1))
    run, ratio = np.ones(t.size), np.empty(t.size)
    for j, row in enumerate(rows):
        if j:
            np.multiply(t, (n + j) / j, out=ratio)
            run *= ratio
        np.multiply(run, w0, out=row)
        if share != 1.0:
            row *= share
        np.putmask(row, row < operators._TINY, 0.0)
    total, lost = np.zeros(t.size), np.zeros(t.size)
    for start in range(0, len(rows), operators._FILL_ROWS):
        block = rows[start:start + operators._FILL_ROWS]
        s = block[0].copy()
        for row in block[1:]:
            s += row
        # total += s, with the rounding of the addition kept in lost
        y = s - lost
        step = total + y
        lost = (step - total) - y
        total = step
    return np.where(at_end, share, np.maximum(0.0, share - total))


def single_stack(spec):
    """(nodes, pairs, reads, stack, m_p, m_r) of the mkz-symmetric
    carrier with its paired stack [W_p^T[:P]; W_r^T] filled row by row, P
    one past the own depth of the midpoint 1/2 at share * 2^-64 (at most
    depth + 1), with the masses m_p, m_r routed to nodes 1 and 0.
    pairs = (low, high, sign) gives each pair's low node, its mirror and
    the sign s_j of its odd part (+1 for j <= n, -1 beyond), for the
    parity form of single_stack_advance;
    reads[0][j] and reads[1][j] are the node stack row j reads for a low
    output and for its mirror output."""
    n, fam = spec.n, spec.record
    depth = operators._mkz_node_depth(spec)
    k = np.arange(depth + 1)
    nodes, inv = np.unique(np.concatenate((k / (n + k), n / (n + k), [0.0, 1.0])),
                           return_inverse=True)
    p_cols, r_cols = np.split(inv[:2 * (depth + 1)], 2)
    first = k <= n
    low, high = np.where(first, p_cols, r_cols), np.where(first, r_cols, p_cols)
    pairs = (low, high, np.where(first, 1.0, -1.0))
    plain = 1 + min(depth, operators.mkz_truncation_index(
        n, 0.5, fam.shares[0] * 2.0**-64))  # P
    reads = np.array([list(p_cols[:plain]) + list(r_cols),
                      list(r_cols[:plain]) + list(p_cols)])
    stack = np.empty((plain + depth + 1, depth + 1))
    at = nodes[low]
    m_p = fill_rows(stack[:plain], n, at, fam.shares[0])
    m_r = fill_rows(stack[plain:], n, 1.0 - at, fam.shares[1])
    stack[0] += m_r
    stack[plain] += m_p
    return nodes, pairs, reads, stack, m_p, m_r


def single_stack_advance(pairs, stack, v):
    """One advance of the mkz-symmetric carrier through the pairs and the
    stack of single_stack, in parity form, each branch by its own product:
    with e and o the half sum and half difference of the entries at a
    pair's low node and its mirror, even = W_p e + W_r e and
    odd = W_p (s o) - W_r (s o) over the pairs, then even + odd at the low
    nodes and even - odd at their mirrors."""
    low, high, sign = pairs
    plain = stack.shape[0] - low.size  # P
    cols = v.reshape(v.shape[0], -1)
    vl, vh = cols[low], cols[high]
    e = 0.5 * (vl + vh)
    so = (0.5 * sign)[:, None] * (vl - vh)
    w_p, w_r = stack[:plain].T, stack[plain:].T
    even = w_p @ e[:plain] + w_r @ e
    odd = w_p @ so[:plain] - w_r @ so
    out = np.empty_like(cols)
    out[low], out[high] = even + odd, even - odd
    return out.reshape(v.shape)


def transfer(disc):
    """The square transfer matrix of the carrier disc: its columns are the
    advances of the unit vectors (a paired carrier stores no square
    matrix; without a pair map this equals disc.transfer bit for bit)."""
    return disc.advance(np.eye(disc.nodes.size))


def _unsplit_gmres(matvec, rhs, max_matvecs, psis, threshold):
    """One GMRES cycle from x = 0 with modified Gram-Schmidt Arnoldi on one
    right-hand side, of at most max_matvecs products, stopping once the
    Arnoldi estimate of |rhs - A x|_2 falls to series._GMRES_RTOL |rhs|_2
    or once the residual Q s formed from the basis meets
    max_j |(Q s)_j| / psis_j <= threshold, at every step; returns
    (x, matvecs used)."""
    beta = np.linalg.norm(rhs)
    target = series._GMRES_RTOL * beta
    q = np.zeros((max_matvecs + 1, rhs.size))
    h = np.zeros((max_matvecs + 1, max_matvecs))
    q[0] = rhs / beta
    j, y = -1, np.zeros(0)
    for j in range(max_matvecs):
        w = matvec(q[j])
        for i in range(j + 1):
            h[i, j] = q[i] @ w
            w -= h[i, j] * q[i]
        h[j + 1, j] = np.linalg.norm(w)
        if h[j + 1, j] > 0.0:
            q[j + 1] = w / h[j + 1, j]
        e1 = np.zeros(j + 2)
        e1[0] = beta
        y = np.linalg.lstsq(h[:j + 2, :j + 1], e1, rcond=None)[0]
        short = e1 - h[:j + 2, :j + 1] @ y
        if h[j + 1, j] == 0.0 or np.linalg.norm(short) <= target or \
                np.max(np.abs(short @ q[:j + 2]) / psis) <= threshold:
            break
    return q[:j + 1].T @ y, j + 1


def unsplit_krylov(op, f, eps, grid):
    """The Krylov series result for one input from one GMRES on the whole
    interior right-hand side with plain products (I - T_II) x, certified
    like the entry's (no Neumann fallback); grid is the base grid."""
    disc = operators.node_discretization(op)
    fam_grid = op.grid(grid)
    idx = np.flatnonzero(disc.interior)
    rep0 = disc.rep(f)

    def matvec(x):
        v = np.zeros(disc.nodes.size)
        v[idx] = x
        return x - disc.advance(v)[idx]

    b = op.contraction_bound()
    budget = series.neumann_tail_terms(b, psi_norm(f, fam_grid), eps)
    sol, used = _unsplit_gmres(matvec, rep0[idx], min(series._GMRES_MAX, budget),
                               psi(disc.nodes[idx]), (1.0 - b) * eps / 2.0)
    acc = np.zeros((rep0.size, 1))
    acc[idx, 0] = sol
    (res,) = series._certify(op, disc, [f], rep0[:, None], acc, fam_grid,
                             "krylov", used + 1)
    return res


def _bernstein_monomial_images(n: int, degree: int) -> list:
    """Ascending coefficients of B_n(t^k), k = 0..degree, exactly:
    B_n(t^k) = sum_j S(k, j) n!/((n-j)! n^k) t^j, with S the Stirling
    numbers of the second kind."""
    stirling = [[Fraction(1)]]  # stirling[k][j] = S(k, j)
    for k in range(1, degree + 1):
        prev = stirling[-1] + [Fraction(0)]
        stirling.append([Fraction(0)] + [j * prev[j] + prev[j - 1]
                                         for j in range(1, k + 1)])
    falling = [Fraction(1)]  # n!/(n-j)!
    for j in range(degree):
        falling.append(falling[-1] * (n - j))
    return [[stirling[k][j] * falling[j] / Fraction(n) ** k for j in range(k + 1)]
            for k in range(degree + 1)]


def exact_series(family: str, n: int, rho, q):
    """G_n(psi q) for the exact family "bernstein" or "durrmeyer" (shape
    rho, ignored for bernstein) and the polynomial q (ascending
    coefficients), as a function of float points: each value is formed
    exactly from the point's exact binary value and rounded once.

    Both operators map the polynomials of each degree to themselves,
    triangularly: B_n(t^k) by _bernstein_monomial_images, and
    U_n^rho(e_k) = B_n(g_k) with g_k(t) = prod_{j<k} (n rho t + j)/(n rho + j),
    the k-th moment of the Beta(i rho, (n - i) rho) functional at
    t = i/n.  So (I - L) g = psi q is solved by back-substitution from
    the top degree down to 2 (L fixes e_0 and e_1, so 1 - M[m, m] > 0
    only for m >= 2), and the affine part follows from g(0) = g(1) = 0."""
    f = [Fraction(0)] * (len(q) + 2)
    for i, c in enumerate(q):  # psi q = (t - t^2) q
        f[i + 1] += Fraction(c)
        f[i + 2] -= Fraction(c)
    degree = len(f) - 1
    images = _bernstein_monomial_images(n, degree)
    if family == "durrmeyer":
        nr = n * Fraction(rho)
        bern, images, g_k = images, [], [Fraction(1)]
        for k in range(degree + 1):
            if k:  # g_k = g_(k-1) (nr t + k - 1) / (nr + k - 1)
                g_k = [(a * (k - 1) + b * nr) / (nr + k - 1)
                       for a, b in zip(g_k + [0], [0] + g_k)]
            image = [Fraction(0)] * (k + 1)
            for i, c in enumerate(g_k):
                for j, b in enumerate(bern[i]):
                    image[j] += c * b
            images.append(image)
    elif family != "bernstein":
        raise DomainError(f"no exact series for {family!r}")
    g = [Fraction(0)] * (degree + 1)
    for m in range(degree, 1, -1):
        rhs = f[m] + sum(images[j][m] * g[j] for j in range(m + 1, degree + 1))
        g[m] = rhs / (1 - images[m][m])
    g[1] = -sum(g[2:])

    def values(xs):
        out = []
        for x in np.atleast_1d(np.asarray(xs, dtype=float)):
            x, acc = Fraction(float(x)), Fraction(0)
            for c in reversed(g):
                acc = acc * x + c
            out.append(float(acc))
        return np.array(out)

    return values
