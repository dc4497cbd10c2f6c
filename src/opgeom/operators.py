"""The three operator families behind one interface: pointwise application,
finite node discretization with a transfer matrix, central moments, and the
contraction profile alpha = 1 - L(psi)/psi = M_2/psi.

Each family tag maps to one Family record in the table at the end of this
module; OperatorSpec and the module functions look the record up instead
of branching on the tag.

Family carriers
---------------
bernstein      node values at k/n; the transfer rows are the basis at the
               nodes, by the Durrmeyer ratio recurrence's rho -> oo limit.
               Like the durrmeyer transfer, it is allocated on the
               carrier's first product and filled in place, a block of
               rows at a time (_exact_fill).
durrmeyer      coefficients in the Bernstein basis: the image of f is
               sum_k c_k(f) p_{n,k} with c_k the Beta-density functionals,
               so one application advances the coefficient vector by the
               matrix c_i(p_{n,j}) (exact): row i is the beta-binomial
               law, built by its positive ratio recurrence and divided
               by its sum, so every row has unit mass.  All n - 1
               functionals of an input come from one batched Gauss-Jacobi
               kernel with unit-mass weights, one rule per mirror pair
               (closed-form monomial moments for polynomial inputs); no
               log-Gamma constant enters either.  The carrier keeps the
               rules it has solved, so each is solved once over all the
               inputs it represents.
mkz families   the plain series operator (nodes k/(n+k)) and its
               reflection (nodes n/(n+k)) mixed with shares (1, 0), (0, 1)
               and (1/2, 1/2); each series is truncated at a depth sized
               from the a-priori geometric tail bound, and each row's
               omitted mass is routed to the branch's hard endpoint node,
               whose value a weighted-space input pins to zero; weights
               below the smallest normal float are flushed into that
               mass.  Every tag holds a k-major stack, allocated once, on
               the carrier's first product, and filled in place by the
               ratio recurrence over all nodes at once, a block of series
               indices at a time, and summed with one Kahan step per
               block (_mkz_fill).  A one-branch stack is the transposed
               transfer matrix; the (1/2, 1/2) stack is indexed by the
               mirror pairs (k/(n+k), n/(n+k)) and holds the reflected
               branch's weights once and the plain branch's up to the
               own depth of the midpoint; one product of the stack with
               the entries each row reads, at the node for a pair's low
               output and at the other node of the pair for its mirror,
               advances both outputs of every pair.  That carrier fills
               its stack only for advance: its other products stream
               the same kernel's row blocks (_mkz_paired_product), and
               its low-rank factors read no pass of it: stack columns
               made at sampled nodes alone, and stack rows in closed
               form (_low_rank_pairs).

Pointwise quantities (OperatorSpec.apply, moment, alpha, the mixed
condition bound) take arrays of points of [0, 1]: apply and moment turn a
point into a one-point array and back once, and the family record's
kernels take the spec and a 1-D array.  For the series families they all go
through one blocked weight-sum kernel, _mkz_sum, over the (share,
reflect) pairs of Family.branches.  apply truncates each branch at
share * eps and moments at the one tail 0.1 * eps; a series carrier's
apply_rep uses the same block schedule.  The one exception is the second
moment: every M_2 of a series family, and so alpha = M_2/psi on a grid
and at the series nodes of the mixed condition bound, comes from one
closed-form kernel (_mkz_m2), with no weight series and no truncation.

OperatorSpec and NodeDiscretization are immutable after construction,
apart from the stack a carrier fills on its first product that needs
it, one fill at a time, and the Gauss-Jacobi rules a Durrmeyer carrier
keeps as its inputs need them, which change no number; all apply/moment
operations are pure.
"""

from __future__ import annotations

import ctypes
import math
import numbers
import threading
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from typing import Callable, Optional

import numpy as np

from .errors import (DegenerateOperatorError, DomainError, QuadratureError,
                     TruncationBudgetError)
from .funcspace import (EvaluationGrid, Function01, _panel_integrals,
                        default_grid, psi)
from .special import bernstein_values, mkz_weight_matrix

__all__ = [
    "FAMILIES",
    "Family",
    "family_record",
    "OperatorSpec",
    "AlphaProfile",
    "NodeDiscretization",
    "mkz_truncation_index",
    "moment",
    "alpha_profile",
    "node_discretization",
    "check_carrier_budget",
    "condition_report",
]

_SERIES_CAP = 500_000
_CARRIER_BYTES_CAP = 4 * 2**30  # largest carrier build, in bytes
# share-relative tail at which apply_rep stops a point's series, and at
# which the mkz-symmetric stack stops its plain rows (the midpoint's own
# depth): the dropped weights join the routed mass, moving a value by
# <= 2^-63 |rep|_inf, which is below one rounding of |rep|_inf
_EVAL_TAIL = 2.0**-64
_SUM_CELLS = 2**16  # weight cells per block of the pointwise series sum
_M2_SPLIT = 0.8  # _mkz_m2 sums the 2F1 series below this t, recurs from it
_M2_TERMS = 172  # 2F1 terms a point below _M2_SPLIT can take
# Gauss-Jacobi rule sizes, tried in turn: a row keeps the larger rule of
# the first pair that agrees, so a smooth row settles on 12/24 points (a
# 48-point rule is no more accurate there, and rounds worse at small rho)
_GAUSS_ORDERS = (12, 24, 48, 96, 192)
_GAUSS_CELLS = 2**18  # Jacobi-matrix cells per block of the batched rules
# log-spaced panel edges toward each endpoint of the composite Beta
# rule, tried in turn until its summed panel bound meets 1e-6
_COMPOSITE_GRADINGS = (48, 96, 192)
_TINY = np.finfo(float).tiny  # smallest normal float
_FILL_ROWS = 32  # stack rows per block of a carrier fill
_SAMPLES = 128  # stack columns sampled first for the paired factors
_SAMPLE_GROWTH = 1.5  # factor on the sample count per try
_SKETCH_CUT = 1e-16  # rank cut on the sampled columns' singular values, relative
_SPARE = 24  # singular values below the cut before the sample is done


@dataclass(frozen=True)
class Family:
    """Everything that distinguishes one operator family.

    shares weights the plain and the reflected series branch (the
    Meyer-Koenig-Zeller tags); the exact families have no series branch.
    The callables take the OperatorSpec as their first argument.  The
    exact families give alpha in closed form; the series families take
    it as moment(2)/psi, their second moment being the closed form of
    each branch (_mkz_m2) and not a truncated weight series.
    """

    min_n: int
    param: Optional[str]  # parameter that must be given, finite and positive
    contraction: Callable  # certified upper bound on |L(psi)|_psi
    apply: Callable  # (spec, f, xs) -> L(f) at the points xs
    moment: Callable  # (spec, k, xs) -> central moments at the points xs
    alpha: Callable  # (spec, xs) -> 1 - L(psi)/psi = M_2/psi at the points xs
    carrier: Callable  # spec -> NodeDiscretization
    shares: tuple = (0.0, 0.0)
    default_n_list: tuple = (4, 8, 16, 32)
    default_eps: float = 1e-8
    default_rho: Optional[float] = None

    @property
    def series(self) -> bool:
        """True for the truncated-series families, False for the exact ones."""
        return any(self.shares)

    @property
    def branches(self) -> tuple:
        """(share, reflect) of each series branch in use, plain first.  A
        branch whose share is zero is left out rather than weighted by 0:
        it would be evaluated next to its hard endpoint."""
        return tuple((share, reflect) for share, reflect
                     in zip(self.shares, (False, True)) if share)


def family_record(tag: str) -> Family:
    """The table record of one family tag."""
    try:
        return _FAMILY_TABLE[tag]
    except (KeyError, TypeError):
        raise DomainError(f"unknown family {tag!r}; choose from {FAMILIES}") from None


@dataclass(frozen=True)
class OperatorSpec:
    """One operator family member: family tag, order, and parameters: the
    one its family needs, finite and positive, and no other (an ignored
    one would make a second cached carrier of the same operator)."""

    family: str
    n: int
    rho: Optional[float] = None
    truncation_eps: Optional[float] = None

    def __post_init__(self):
        fam = family_record(self.family)
        if isinstance(self.n, bool) or not isinstance(self.n, numbers.Integral):
            raise DomainError(f"operator order must be an integer, got {self.n!r}")
        if self.n < fam.min_n:
            raise DomainError(f"{self.family} requires n >= {fam.min_n}")
        for name in ("rho", "truncation_eps"):
            if name != fam.param and getattr(self, name) is not None:
                raise DomainError(f"{self.family} takes no {name}")
        if fam.param is not None:
            value = getattr(self, fam.param)
            if value is None or not 0.0 < value < math.inf:
                raise DomainError(f"{self.family} requires a finite "
                                  f"{fam.param} > 0, got {value!r}")

    @property
    def record(self) -> Family:
        return _FAMILY_TABLE[self.family]

    # -- admissibility -----------------------------------------------------

    @property
    def in_lambda_class(self) -> bool:
        # b = 0 is the endpoint interpolation itself (bernstein n = 1);
        # b = 1 is a plain or reflected series operator, whose contraction
        # is lost at its hard endpoint.
        return 0.0 < self.contraction_bound() < 1.0

    def contraction_bound(self) -> float:
        """Certified upper bound on the weighted operator norm |L(psi)|_psi."""
        return self.record.contraction(self)

    # -- geometry ----------------------------------------------------------

    def certified_interval(self):
        """(lo, hi): where pointwise values and carrier rows are certified.

        [0, 1] trimmed by 1/(4n) at the hard endpoint of each series
        branch (1 for the plain branch, 0 for the reflected one), toward
        which the truncation depth grows like 1/(1-x).
        """
        cap = 1.0 / (4.0 * self.n)
        plain, refl = self.record.shares
        return (cap if refl else 0.0, 1.0 - cap if plain else 1.0)

    def grid(self, base: Optional[EvaluationGrid] = None) -> EvaluationGrid:
        """The evaluation grid restricted to the certified interval; the
        cap tightens toward a hard endpoint as n grows."""
        return (base or default_grid()).restricted(*self.certified_interval())

    # -- application -------------------------------------------------------

    def apply(self, f: Function01, x):
        """L(f) at a point (a float) or at an array of points (an array)."""
        out = self.record.apply(self, f, _points(x))
        return out if np.ndim(x) else float(out[0])


def _points(x) -> np.ndarray:
    """x as a 1-D float array; DomainError unless x is a point or a 1-D
    array of points and every point is in [0, 1]."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if xs.ndim > 1:
        raise DomainError("operator points need a point or a 1-D array")
    if not np.all((xs >= 0.0) & (xs <= 1.0)):
        raise DomainError("operator points need 0 <= x <= 1")
    return xs


# ---------------------------------------------------------------------------
# Bernstein
# ---------------------------------------------------------------------------

def _bernstein_apply(spec: OperatorSpec, f: Function01, xs: np.ndarray) -> np.ndarray:
    """sum_k f(k/n) p_{n,k}(x); reproduces affine functions exactly."""
    vals = np.asarray(f(np.arange(spec.n + 1) / spec.n), dtype=float)
    return bernstein_values(spec.n, [vals], xs)[0]


# ---------------------------------------------------------------------------
# Durrmeyer type
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _durrmeyer_monomial_moments(n: int, rho: float, jmax: int):
    """m[k-1, j] = integral of t^j against the Beta(k rho, (n-k) rho)
    density, for k = 1..n-1; the running-product form is exact."""
    a = np.arange(1, n) * rho
    b = (n - np.arange(1, n)) * rho
    out = np.empty((n - 1, jmax + 1))
    out[:, 0] = 1.0
    for j in range(1, jmax + 1):
        out[:, j] = out[:, j - 1] * (a + j - 1.0) / (a + b + j - 1.0)
    return out


def _beta_rules(a: np.ndarray, b: np.ndarray, m: int):
    """m-point Gauss rules of the Beta(a[r], b[r]) densities on [0, 1],
    a <= b: nodes and unit-mass weights, each of shape (rows, m).

    The Jacobi matrix is that of the Jacobi weight (alpha, beta) =
    (b - 1, a - 1) mapped to [0, 1], with the j = 0 and j = 1 entries in
    closed form (the general ones are 0/0 when a + b is 1 or 2).  With
    a <= b (callers reflect for a > b) the small nodes, next to the mass
    at 0, come out to high relative accuracy.  Nodes whose recurrence
    overflows carry weight below the smallest double and get weight 0.
    The eigenvalue solve runs on one BLAS thread (_one_blas_thread).
    """
    a, b = a[:, None], b[:, None]
    s = a + b - 2.0
    j = np.arange(m)
    c = 2.0 * j + s
    with np.errstate(divide="ignore", invalid="ignore"):
        diag = (2.0 * j * j + 2.0 * j * (s + 1.0) + a * s) / (c * (c + 2.0))
        off2 = (j * (j + b - 1.0) * (j + a - 1.0) * (j + s)
                / (c * c * (c + 1.0) * (c - 1.0)))
    diag[:, 0] = (a / (a + b))[:, 0]
    off2[:, 0] = 0.0
    off2[:, 1] = (a * b / ((a + b) ** 2 * (a + b + 1.0)))[:, 0]
    off = np.sqrt(off2)  # off[:, j] couples rows j - 1 and j
    jac = np.zeros((a.shape[0], m, m))
    rows = np.arange(m)
    jac[:, rows, rows] = diag
    jac[:, rows[1:], rows[:-1]] = off[:, 1:]
    with _one_blas_thread():
        t = np.linalg.eigvalsh(jac)  # the lower triangle is read
    # Christoffel numbers 1 / sum_j p_j(t)^2 over the orthonormal
    # polynomials of the unit-mass density (p_0 = 1)
    with np.errstate(over="ignore", invalid="ignore"):
        p_prev, p = np.zeros_like(t), np.ones_like(t)
        total = np.ones_like(t)
        for i in range(m - 1):
            p_next = ((t - diag[:, i:i + 1]) * p
                      - off[:, i:i + 1] * p_prev) / off[:, i + 1:i + 2]
            p_prev, p = p, p_next
            total += p * p
        w = np.where(np.isfinite(total), 1.0 / total, 0.0)
    return t, w / w.sum(axis=1, keepdims=True)


class _GaussRules:
    """The Gauss-Jacobi rules of one Durrmeyer carrier, kept as long as the
    carrier is: for each order m, the nodes and weights _beta_rules gave,
    one row per min(a, b), and the row of each key.  A call takes any keys,
    duplicates included, and returns one row per key.  A rule is solved once,
    in the first batch that needs it, and every later use reads its stored
    row; a stacked solve treats each row on its own, so a stored row is
    the row a fresh solve gives, bit for bit.  One lock guards the table,
    so threads that share the carrier also solve each rule once."""

    def __init__(self):
        self._rules = {}  # m -> ({min(a, b): row}, nodes, weights)
        self._lock = threading.Lock()

    @property
    def nbytes(self) -> int:
        """Bytes of the stored nodes and weights."""
        with self._lock:
            return sum(t.nbytes + w.nbytes for _, t, w in self._rules.values())

    @property
    def counts(self) -> dict:
        """{m: rules of order m stored}, in the order they were first solved."""
        with self._lock:
            return {m: len(row) for m, (row, _, _) in self._rules.items()}

    def __call__(self, keys: np.ndarray, his: np.ndarray, m: int):
        """_beta_rules(keys, his, m), one row per key, for any keys,
        duplicates included: _beta_rules runs once, on the distinct keys
        not stored yet."""
        with self._lock:
            row, t, w = self._rules.get(m, ({}, np.empty((0, m)), np.empty((0, m))))
            new = {key: i for i, key in enumerate(keys.tolist()) if key not in row}
            if new:
                first = list(new.values())
                t_new, w_new = _beta_rules(keys[first], his[first], m)
                row.update(zip(new, range(t.shape[0], t.shape[0] + len(new))))
                t, w = np.concatenate((t, t_new)), np.concatenate((w, w_new))
                self._rules[m] = row, t, w
            at = [row[key] for key in keys.tolist()]
        return t[at], w[at]


def _durrmeyer_quadrature(n: int, rho: float, f: Function01,
                          ks: np.ndarray,
                          rules: Optional[_GaussRules] = None) -> np.ndarray:
    """The Beta(k rho, (n-k) rho) functionals of f for every k in ks, by
    Gauss-Jacobi rules (_durrmeyer_coeffs takes exact monomial moments for
    polynomial inputs instead).

    The rules come from the Golub-Welsch construction in numpy: nodes are
    the eigenvalues of the Jacobi matrix of the Beta density, weights the
    Christoffel numbers from the orthonormal three-term recurrence,
    normalized to unit mass, so no Beta-function constant enters.  The
    weight absorbs the endpoint singularities that appear when k rho < 1
    or (n-k) rho < 1.  A row settles once two successive rules agree to
    1e-13 relative, and keeps the larger rule's value: the cheapest pair
    that agrees, 12/24 points for a smooth f.  Climbing further buys no
    accuracy there, and a 48-point rule rounds worse at small rho (an exp
    functional at rho = 0.01, n = 4 lands 3.4e-12 from Kummer's closed
    form 1F1(a; a+b; 1), the 24-point one 9.4e-15).  A row that does
    not settle by 192 points takes endpoint-graded composite panels when
    the density is bounded, is accepted at 1e-4, or raises
    QuadratureError.

    Each open row gets the rules of _GAUSS_ORDERS in turn, in blocks of
    at most _GAUSS_CELLS / (2 m^2) rows, so a block solves at most
    _GAUSS_CELLS / 2 Jacobi-matrix cells, f evaluated once per block on
    its rows' stacked nodes.  Mirror rows k and n - k, Beta(a, b) and
    Beta(b, a), share the rule solved once per distinct min(a, b),
    reflected where a > b, and settle one by one.  The composite fallback
    is for kinked or endpoint-oscillatory f, on which global polynomial
    rules converge only algebraically.

    rules, the table a Durrmeyer carrier keeps (_durrmeyer_disc), supplies
    the rules it holds and stores the ones each block solves, so a carrier
    solves every rule once over all its inputs; a call without it solves
    through a fresh table.  ks may hold any rows, in any order; the
    functionals are the same bits either way.
    """
    k = np.asarray(ks, dtype=float)
    a, b = k * rho, (n - k) * rho
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    out = np.full(a.size, np.nan)
    delta = np.full(a.size, np.inf)
    open_rows = np.arange(a.size)
    rules = _GaussRules() if rules is None else rules
    for m in _GAUSS_ORDERS:
        step = max(1, _GAUSS_CELLS // (2 * m * m))
        for start in range(0, open_rows.size, step):
            rows = open_rows[start:start + step]
            t, w = rules(lo[rows], hi[rows], m)
            t = np.where((a[rows] > b[rows])[:, None], 1.0 - t, t)
            ft = np.asarray(f(t.ravel()), dtype=float).reshape(t.shape)
            val = np.sum(w * ft, axis=1)
            delta[rows] = np.abs(val - out[rows])
            out[rows] = val
        settled = delta[open_rows] <= 1e-13 * np.maximum(1.0, np.abs(out[open_rows]))
        open_rows = open_rows[~settled]
    bounded = (a[open_rows] >= 1.0) & (b[open_rows] >= 1.0)
    loose = open_rows[~bounded]
    failed = loose[delta[loose] > 1e-4 * np.maximum(1.0, np.abs(out[loose]))]
    if failed.size:
        raise QuadratureError(f"Gauss-Jacobi did not settle for "
                              f"k={int(ks[failed[0]])}, rho={rho}")
    for r in open_rows[bounded]:
        out[r] = _beta_integral_composite(a[r], b[r], f)
    return out


def _beta_integral_composite(a: float, b: float, f: Function01) -> float:
    """Integral of f against the Beta(a, b) density, for a, b >= 1 (a
    bounded density), on panels graded geometrically toward both
    endpoints: the ratio of the integrals of f*d and d, with d the density
    scaled to 1 at its mode, both from one _panel_integrals call.  The
    weights have unit mass, so no Beta-function constant enters.  A summed
    panel bound above 1e-6 relative redoes the integral on the next finer
    grading of _COMPOSITE_GRADINGS (an f oscillating toward an endpoint
    leaves its bound on the panels there); past the last it raises
    QuadratureError."""

    def h(t):
        # (a - 1) log(t / mode) + (b - 1) log((1 - t) / (1 - mode)),
        # each term left out when its exponent is 0 (0 * log 0)
        lg = np.zeros(t.shape)
        with np.errstate(divide="ignore"):
            if a != 1.0:
                lg += (a - 1.0) * (np.log(t) - math.log((a - 1.0) / (a + b - 2.0)))
            if b != 1.0:
                # rounding can land a node exactly on 1; exp(-inf) -> 0
                lg += (b - 1.0) * (np.log1p(-t) - math.log((b - 1.0) / (a + b - 2.0)))
        d = np.exp(lg)
        return np.stack((np.asarray(f(t), dtype=float) * d, d))

    for graded in _COMPOSITE_GRADINGS:
        half = np.concatenate(([0.0], np.logspace(-15, -1.01, graded),
                               np.linspace(0.1, 0.5, 14)[1:]))
        edges = np.concatenate((half, (1.0 - half[-2::-1])))
        (fd, d), err = _panel_integrals(h, edges[:-1], edges[1:])
        mass = float(np.sum(d))
        total = float(np.sum(fd)) / mass
        if np.sum(err) <= 1e-6 * mass * max(1.0, abs(total)):
            return total
    raise QuadratureError(
        f"composite Beta quadrature residual {np.sum(err) / mass:.2e} too large")


def _durrmeyer_apply(spec: OperatorSpec, f: Function01, xs: np.ndarray) -> np.ndarray:
    """Durrmeyer-type image: interior Beta functionals recombined with the
    Bernstein basis plus exact endpoint terms."""
    return bernstein_values(spec.n, [_durrmeyer_coeffs(spec.n, spec.rho, f)], xs)[0]


def _durrmeyer_coeffs(n: int, rho: float, f: Function01,
                      rules: Optional[_GaussRules] = None) -> np.ndarray:
    """f(0), the Beta functionals of f for k = 1..n-1, and f(1); rules as
    in _durrmeyer_quadrature."""
    if f.poly_coeffs is not None:
        coeffs = np.asarray(f.poly_coeffs)
        inner = _durrmeyer_monomial_moments(n, rho, len(coeffs) - 1) @ coeffs
    else:
        inner = _durrmeyer_quadrature(n, rho, f, np.arange(1, n), rules)
    return np.concatenate(([float(f(0.0))], inner, [float(f(1.0))]))


# ---------------------------------------------------------------------------
# Meyer-Koenig and Zeller (Cheney-Sharma form) and its reflections
# ---------------------------------------------------------------------------

def mkz_truncation_index(n: int, x: float, tail: float) -> int:
    """Smallest series depth with certified weight tail <= tail: the
    one-point case of _mkz_depths.

    Beyond k0 the term ratio x(n+k+1)/(k+1) is below x' = (1+x)/2, so the
    tail after K is bounded by w_{k0} x'^(K+1-k0) / (1-x'); solving that
    for K needs no evaluations of the summand's function factor.
    """
    if not 0.0 <= x < 1.0:
        raise DomainError("truncation index needs 0 <= x < 1")
    return int(_mkz_depths(n, np.array([float(x)]), tail)[0])


def _mkz_depths(n: int, ts: np.ndarray, tail: float) -> np.ndarray:
    """Each point's own series depth at tail (see mkz_truncation_index);
    0 at t = 0 and at t = 1 (the point mass).

    The arithmetic runs over all points at once.  The logarithms of the
    points come from math, per point, because numpy's log differs from
    libm's in the last bit for a few arguments and a depth is the ceiling
    of a quotient of them; log C(n + k0, k0) comes from _log_binomials,
    which takes every point's k0 as it comes and sums each row on its own.
    """
    ts = _points(ts)
    if not 0.0 < tail < math.inf:
        raise DomainError(f"tail target must be finite and positive, got {tail!r}")
    out = np.zeros(ts.size, dtype=np.int64)
    live = np.flatnonzero((ts > 0.0) & (ts < 1.0))
    x = ts[live]
    xp = 0.5 * (1.0 + x)
    k0 = np.maximum(0.0, np.ceil((x * (n + 1.0) - xp) / (xp - x)))

    def libm(fn, arg):
        return np.array(list(map(fn, arg.tolist())))

    log_xp = libm(math.log, xp)
    log_w_k0 = (_log_binomials(n, k0) + (n + 1.0) * libm(math.log1p, -x)
                + k0 * libm(math.log, x))
    log_target = math.log(tail) + libm(math.log1p, -xp) - log_xp
    depth = np.where(log_w_k0 <= log_target, k0,
                     k0 + np.ceil((log_target - log_w_k0) / log_xp))
    over = np.flatnonzero(depth > _SERIES_CAP)
    if over.size:
        raise TruncationBudgetError(
            f"series depth {int(depth[over[0]])} exceeds cap {_SERIES_CAP} "
            f"(x={float(x[over[0]])} too close to 1)")
    out[live] = depth
    return out


def _log_binomials(n: int, ks: np.ndarray) -> np.ndarray:
    """log C(n + k, k) for every integer k in ks: the sum of
    log((n + k - m + j) / j), j = 1..m, with m = min(k, n).  The k that
    share m form one block whose rows are summed along the contiguous
    axis, so each sum groups its m logs as numpy's pairwise sum groups
    one such row alone, whatever the other k of the call."""
    out = np.zeros(ks.size)
    short = np.minimum(ks, n)
    # sorted distinct m without np.unique, whose masked-array check
    # imports numpy.ma (about 1 MB) on the first call
    for m in sorted(set(short[short > 0].tolist())):
        rows = np.flatnonzero(short == m)
        j = np.arange(1.0, m + 1.0)
        out[rows] = np.log((ks[rows, None] + (n - m) + j) / j).sum(axis=1)
    return out


def _mkz_sum(n: int, ts: np.ndarray, depths: np.ndarray,
             integrand: Callable) -> np.ndarray:
    """sum_k w_k(t) prod_j g_j[k] at every point t of the plain series,
    k = 0..depth: the one evaluator of every pointwise series quantity.

    integrand(nodes, rows) returns the factors g_j at the nodes k/(n+k)
    for the points ts[rows], each broadcastable to (rows, nodes), and the
    weights of each block of _mkz_blocks are multiplied by them in place.
    A point t = 1 is the point mass at node 1.
    """
    out = np.empty(ts.size)
    at_end = np.flatnonzero(ts == 1.0)
    if at_end.size:
        out[at_end] = _row_sums(np.ones((at_end.size, 1)),
                                integrand(np.ones(1), at_end))
    for rows, k, w in _mkz_blocks(n, ts, depths):
        out[rows] = _row_sums(w, integrand(k / (n + k), rows))
    return out


def _mkz_blocks(n: int, ts: np.ndarray, depths: np.ndarray):
    """Yield (rows, k, w), w[i, j] = w_k[j](ts[rows[i]]) for the points t != 1:
    the one block schedule of the series weight sums.  Rows are sorted by
    depth and taken in blocks of at most _SUM_CELLS weight cells (a deeper
    row alone), each as wide as its deepest row; every row's weights beyond
    its own depth are zeroed, so a point's value does not depend on the
    other points of the call.  Small blocks keep the peak memory flat."""
    order = np.flatnonzero(ts != 1.0)
    order = order[np.argsort(depths[order], kind="stable")]
    start = 0
    while start < order.size:
        stop = start + 1
        while (stop < order.size
               and (stop + 1 - start) * (depths[order[stop]] + 1) <= _SUM_CELLS):
            stop += 1
        rows = order[start:stop]
        k = np.arange(depths[rows[-1]] + 1)
        w = mkz_weight_matrix(n, ts[rows], k.size - 1)
        # rows are sorted by depth: only columns past the first row's depth
        # hold weights beyond a row's own
        cut = depths[rows[0]] + 1
        np.putmask(w[:, cut:], k[cut:] > depths[rows][:, None], 0.0)
        yield rows, k, w
        start = stop


def _row_sums(w: np.ndarray, factors) -> np.ndarray:
    """Row sums of w times the factors, multiplied into w in place."""
    for g in factors:
        w *= g
    return w.sum(axis=1)


def _mkz_family_apply(spec: OperatorSpec, f: Function01, xs: np.ndarray) -> np.ndarray:
    """Share-weighted plain and reflected series values, each branch with
    certified tail <= share * eps * sup|f|; the reflected branch is the
    plain series of f(1-t) at 1-x."""
    n, out = spec.n, 0.0
    for share, reflect in spec.record.branches:
        g, t = (f.reflected(), 1.0 - xs) if reflect else (f, xs)
        out = out + share * _mkz_sum(
            n, t, _mkz_depths(n, t, share * spec.truncation_eps),
            lambda nodes, rows: (np.asarray(g(nodes), dtype=float),))
    return out


def _mkz_moment(spec: OperatorSpec, k: int, xs: np.ndarray) -> np.ndarray:
    """Share-weighted central moments: M2 in closed form (_closed_m2), any
    other order by the weight series, each branch truncated at the one
    moment tail 0.1 * truncation_eps; the reflected branch is the plain
    moment at 1 - x with the sign of (-1)^k."""
    if k == 2:
        return _closed_m2(spec, xs)[0]
    n, tail, out = spec.n, 0.1 * spec.truncation_eps, 0.0
    for share, reflect in spec.record.branches:
        t = 1.0 - xs if reflect else xs
        m = _mkz_sum(n, t, _mkz_depths(n, t, tail),
                     lambda nodes, rows: (nodes - t[rows, None],) * k)
        out = out + share * ((-1.0) ** k * m if reflect else m)
    return out


# ---------------------------------------------------------------------------
# Moments and the contraction profile
# ---------------------------------------------------------------------------

def _bernstein_moment(op: OperatorSpec, k: int, xs: np.ndarray) -> np.ndarray:
    coeffs = (np.arange(op.n + 1)[:, None] / op.n - xs) ** k
    return bernstein_values(op.n, [coeffs], xs, per_point=True)[0]


def _durrmeyer_moment(op: OperatorSpec, k: int, xs: np.ndarray) -> np.ndarray:
    # functional values of (t - x)^k = sum_j C(k, j) (-x)^(k-j) t^j: exact
    # monomial moments for the interior indices, the endpoint terms directly
    j = np.arange(k + 1)
    coeffs = np.array([float(math.comb(k, i)) for i in j]) * (-xs[:, None]) ** (k - j)
    interior = _durrmeyer_monomial_moments(op.n, op.rho, k) @ coeffs.T
    full = np.vstack(((0.0 - xs) ** k, interior, (1.0 - xs) ** k))
    return bernstein_values(op.n, [full], xs, per_point=True)[0]


def _check_order(k, what: str) -> None:
    """DomainError unless k is an integer >= 0 (a bool is not)."""
    if isinstance(k, bool) or not isinstance(k, numbers.Integral) or k < 0:
        raise DomainError(f"{what} order must be an integer >= 0, got {k!r}")


def moment(op: OperatorSpec, k: int, x):
    """Central moment L((e1 - x e0)^k)(x) at a point (a float) or at an
    array of points (an array)."""
    _check_order(k, "moment")
    out = op.record.moment(op, k, _points(x))
    return out if np.ndim(x) else float(out[0])


@dataclass(frozen=True)
class AlphaProfile:
    """Grid statistics of alpha = 1 - L(psi)/psi = M^2/psi.

    nu and eta stand in for the min/sup over [0,1]; for all supported
    families alpha extends continuously to the endpoints, so the grid
    statistics converge to the true values under refinement.  b_norm is
    reported as 1 - nu on the same grid so the two cannot disagree.
    """

    alpha_values: np.ndarray
    grid: EvaluationGrid
    nu: float
    eta: float
    b_norm: float


def alpha_profile(op: OperatorSpec, grid: Optional[EvaluationGrid] = None) -> AlphaProfile:
    """Contraction profile on the family-capped grid."""
    grid = op.grid(grid)
    return _profile(grid, op.record.alpha(op, grid.points))


def _profile(grid: EvaluationGrid, alpha: np.ndarray) -> AlphaProfile:
    """The AlphaProfile of alpha at the points of grid."""
    nu = float(alpha.min())
    if nu <= 0.0:
        raise DegenerateOperatorError(
            "alpha has nonpositive grid minimum; operator is outside the "
            "contraction class")
    eta = float((alpha.max() - alpha.min()) / nu)
    return AlphaProfile(alpha_values=alpha, grid=grid, nu=nu, eta=eta,
                        b_norm=1.0 - nu)


# ---------------------------------------------------------------------------
# Node discretization
# ---------------------------------------------------------------------------

class NodeDiscretization:
    """Finite carrier of one operator: nodes, a k-major stack that advances
    the family's representation vector by one application, and a certified
    truncation bound.

    rep(f) is the representation of L(f): node samples of f (the default)
    for bernstein and the series families, whose images are determined by
    those values, Beta-functional coefficients for durrmeyer.  apply_rep
    evaluates the image of a representation (one per column) anywhere:

        L^m(f)(x) = apply_rep(transfer^(m-1) @ rep(f), x),  m >= 1.

    The exact carriers evaluate the Bernstein-form polynomial of the
    columns at x (special.bernstein_values); the series carriers sum each
    point's branch weights to its own depth (_mkz_blocks) against the
    columns, plus the routed mass times the endpoint entry.  apply_reps
    forms those basis slabs or weight blocks once for several
    representations.

    Every family holds its matrix, the stack, k-major: stack[j, i] is the
    weight of input j at output i.  Without a pair map it is the
    transpose of the square transfer matrix, so advance is
    stack.T @ v; the exact carriers fill the view transfer.T
    (_exact_fill), and a one-branch series carrier fills its rows in node
    order with the routed masses in its endpoint row.

    Every family's carrier is made with its nodes, truncation bound,
    images, rep builder and fill, not its stack: fill() allocates the
    stack once and fills it in place.  The first call that needs the
    matrix (advance, advance_sums, transfer, and product and sweep_sums
    on a carrier without a pair map) runs it once, under the module's
    fill lock, and keeps the stack; nodes, interior, rep, apply_rep,
    apply_reps and truncation_error_bound never fill, so a carrier used
    only for images or for its bound holds no stack.  The mkz-symmetric
    carrier holds one only after advance (iterates, Krylov, the
    unfactored sweep): product and an unfactored sweep_sums read a held
    stack and otherwise stream it (_mkz_paired_product), and
    factored_step makes the few stack columns and rows it needs, so its
    series solve and factored sweep hold none.  stack_bytes, recorded as the
    carrier is made from the shape check_carrier_budget counts
    (_stack_shape), is what the fill allocates, filled or not;
    matrix_bytes counts what the carrier holds now.  Fills run one at a
    time, and the carrier cache applies its byte cap before each, with
    stack_bytes counted next to the cached matrices.

    mkz-symmetric keeps its stack over the mirror pairs (p_k, r_k) =
    (k/(n+k), n/(n+k)), k = 0..depth, with the pair map (low, high,
    reads).  Column i gives the outputs at the pair's low node t_i in
    [0, 1/2] (p_i for i <= n, r_i beyond) and at its mirror 1 - t_i, the
    nodes low[i] and high[i].  The stack is the one
    (P + depth + 1) x (depth + 1) array [W_p^T[:P]; W_r^T] with
    W_p[i, j] = w_j(t_i)/2 and W_r[i, j] = w_j(1 - t_i)/2.  P is one past
    the own depth of the deepest low node, 1/2, at the tail
    share * _EVAL_TAIL that apply_rep stops each point at (at most
    depth + 1; _mkz_plain_rows); w_j rises on [0, 1/2] for j > n, so
    below that cap the plain weights past P sum to at most that tail at
    every low node, and they join the mass routed to node 1 as those of
    an image do.  At 1 - t_i the two branches trade weights, so the same
    column serves both outputs, each stack row reading the other node of
    its pair:

        L f(t_i)     = sum_j W_p[i, j] f(p_j) + W_r[i, j] f(r_j),
        L f(1 - t_i) = sum_j W_p[i, j] f(r_j) + W_r[i, j] f(p_j).

    Row 0 of reads, [p_cols[:P], r_cols], is the node each stack row reads
    for the low output, row 1, [r_cols[:P], p_cols], the one it reads for
    the mirror output.  advance gathers v[reads], two rows per column of
    v, multiplies them by the stack once, and writes row 0 at low and
    row 1 at high; at the midpoint pair k = n, where low == high, the
    mirror row is kept.  The masses m_p, m_r routed to nodes 1 and 0 are
    stored in row 0 of the other branch (W_p[:, 0] += m_r,
    W_r[:, 0] += m_p), whose reads are node 0 and node 1 for the low
    output and node 1 and node 0 for the mirror one, so both come out of
    the same product.  A merged node p_j = r_m (j m = n^2) is read by the
    rows of both pairs and written by both, with equal columns.

    sweep_sums(v, k) gives a Neumann sweep its partial sums
    sum_{j<k} S^j v under a stand-in S for advance.  Without a pair map S
    is advance itself, summed by advance_sums.  A paired stack is factored
    for the one call as stack ~ Y Z with a columns of Y, the numerical
    rank of sampled stack columns (43, 57 and 75 at n = 4, 8 and 16, eps
    1e-6; _low_rank_pairs); v has zero endpoint
    entries (the series entry projects its inputs) and column 0 of Z is
    zero, so every term keeps them zero.  S = expand o lift then
    maps v to 2a coordinates per column, lift(v) = gather(v) Y, and back,
    expand(c) = scatter(c Z), so S^k = expand H^(k-1) lift with the
    2a-square H = lift o expand: each term of the sum costs one small
    matrix product instead of a pass over the stack.

    truncation_error_bound is an upper bound of the weight mass the
    carrier's rows omit (the negative-binomial tails past each branch's
    stored rows, _mkz_tail) at the nodes within the family's certified
    interval, 0 for the exact families.  It does not count the rounding
    of the stored weights, nor that of the routed masses, which are
    share minus the weights summed.  Rows at deeper nodes carry larger
    omitted mass, which the endpoint routing converts into an error of
    order psi(node) for weighted-space inputs.
    """

    def __init__(self, spec: OperatorSpec, nodes: np.ndarray, bound: float,
                 fill: Callable, images: Callable, rep_builder=None,
                 pairs=None, rules: Optional[_GaussRules] = None):
        self.spec = spec
        self.nodes = nodes
        self.truncation_error_bound = bound
        self.stack_bytes = 8 * math.prod(_stack_shape(spec))
        self._fill = fill  # () -> the stack
        self._filled = None  # the stack, once filled
        self._images = images  # (reps, 1-D points) -> values of each rep
        self._rep_builder = rep_builder
        self._pairs = pairs  # (low, high, reads), or None
        self._rules = rules  # the rule table rep_builder fills, or None
        self.interior = (nodes > 0.0) & (nodes < 1.0)

    @property
    def _stack(self):
        """The stack, filled by the first call that reads it: once, under
        the module's fill lock, which lets one fill of any carrier run at
        a time.  The carrier cache applies its byte cap before the fill,
        with stack_bytes counted next to the cached matrices, so the stack
        is allocated next to at most the cap's worth of them (or next to
        the newest carrier alone)."""
        if self._filled is None:
            with _FILL_LOCK:
                if self._filled is None:
                    _apply_cache_cap(self.stack_bytes)
                    self._filled = self._fill()
        return self._filled

    @property
    def transfer(self) -> np.ndarray:
        """The square transfer matrix of a carrier without a pair map; a
        paired stack is never unfolded (515 MiB at n = 16)."""
        if self._pairs is not None:
            raise DomainError("a paired carrier stores no transfer matrix")
        return self._stack.T

    @property
    def matrix_bytes(self) -> int:
        """Bytes of the matrix this carrier holds now, stack_bytes once its
        stack is filled and none before, plus those of the Gauss-Jacobi
        rules a Durrmeyer carrier has kept so far."""
        held = 0 if self._rules is None else self._rules.nbytes
        return held + (0 if self._filled is None else self._filled.nbytes)

    @property
    def gauss_rules(self) -> dict:
        """{m: Gauss-Jacobi rules of order m this carrier has solved so
        far, over all its inputs}: a Durrmeyer carrier's rule table, {} for
        the other families."""
        return {} if self._rules is None else self._rules.counts

    def advance(self, v: np.ndarray) -> np.ndarray:
        """One transfer-matrix application; v may have several columns."""
        if self._pairs is None:
            return self._stack.T @ v
        self._stack  # filled and held
        return self.product(v)

    def product(self, v: np.ndarray) -> np.ndarray:
        """advance(v), with no fill: a paired carrier that holds no stack
        streams it (_mkz_paired_product) and keeps nothing; with the stack
        held, and on every other carrier, this is advance, bit for bit."""
        if self._pairs is None:
            return self.advance(v)
        u = self._gather(v)
        if self._filled is not None:
            # u @ stack streams the k-major stack once, where stack.T @ u.T
            # with a few columns makes the BLAS pack it first
            both = u @ self._filled
        else:
            low, _, reads = self._pairs
            both = _mkz_paired_product(self.spec, self.nodes[low],
                                       reads.shape[1] - low.size, u)
        return self._scatter(both).reshape(v.shape)

    def advance_sums(self, v: np.ndarray, k: int) -> np.ndarray:
        """sum_{j<k} T^j v, by k - 1 advances."""
        term, acc = v, np.zeros_like(v)
        for j in range(k):
            if j:
                term = self.advance(term)
            acc += term
        return acc

    def sweep_sums(self, v: np.ndarray, k: int) -> np.ndarray:
        """sum_{j<k} S^j v for a stand-in S of advance, whose error the
        Neumann sweep certifies by the exact residual: advance_sums without
        a pair map or a factorization, else the factored step S = expand o
        lift (_low_rank_pairs), for v with zero endpoint entries (else
        DomainError), as v + expand(sum_{j<k-1} H^j lift(v)), H = lift o
        expand, with the 2a coordinates of each column of v one row and H
        acting on the right.  The factors come from sampled stack columns,
        made at their nodes alone, and DEIM-picked stack rows in closed
        form, and H from four products of gathered columns of z with y
        (_coordinate_map) (factored_step): the stack is never read, never
        per term and never filled.  The factors live for this call
        only."""
        if self._pairs is None:
            return self.advance_sums(v, k)
        if np.any(v[~self.interior]):
            raise DomainError("the factored step needs zero endpoint entries")
        step = self.factored_step()
        if step is None:
            return self.advance_sums(v, k)
        y, z, h = step
        acc = np.zeros_like(v)
        if k:
            acc += v
        if k > 1:
            term = self._lift(v, y)
            total = term.copy()
            for _ in range(k - 2):
                term = term @ h
                total += term
            acc += self._expand(total, z).reshape(v.shape)
        return acc

    def factored_step(self):
        """(y, z, h): the factors of a paired stack (_low_rank_pairs) and
        the 2a-square coordinate map h = lift o expand of the factored step
        S = expand o lift, or None where the stack is not factored.  They
        are made for each call from a few stack columns and rows, with no
        fill and no pass over the stack, and nothing keeps them."""
        y, z = _low_rank_pairs(self)
        return None if y is None else (y, z, self._coordinate_map(y, z))

    def _coordinate_map(self, y: np.ndarray, z: np.ndarray) -> np.ndarray:
        """H of sweep_sums, lift o expand, as four products: the block from
        the coordinates of output side s (low, then mirror) to those of the
        reads of side t is zpad[:, col[s, reads[t]]] @ y.  zpad is z with
        one zero column, and col[s, m] is the column of z whose side-s
        output _scatter writes at node m, or that zero column where it
        writes none; at a node that is both, the mirror side wins, as in
        _scatter."""
        low, high, reads = self._pairs
        a, cols = z.shape
        zpad = np.zeros((a, cols + 1))
        zpad[:, :cols] = z
        col = np.full((2, self.nodes.size), cols)
        col[0, low] = np.arange(cols)
        col[0, high] = cols
        col[1, high] = np.arange(cols)
        h = np.empty((2 * a, 2 * a))
        blocks = h.reshape(2, a, 2, a)
        for s in range(2):
            for t in range(2):
                blocks[s, :, t] = zpad[:, col[s, reads[t]]] @ y
        return h

    def _lift(self, v: np.ndarray, y: np.ndarray) -> np.ndarray:
        """gather(v) @ y: the coordinates of the low then the mirror
        reads of each column of v in one row."""
        return (self._gather(v) @ y).reshape(-1, 2 * y.shape[1])

    def _expand(self, x: np.ndarray, z: np.ndarray) -> np.ndarray:
        """scatter(c @ z) for the coordinate rows x of _lift."""
        return self._scatter(x.reshape(-1, z.shape[0]) @ z)

    def _gather(self, v: np.ndarray) -> np.ndarray:
        """The rows of a paired product, two per column of v: its entries
        at the nodes the stack rows read for the low outputs, then for
        the mirror outputs."""
        reads = self._pairs[2]
        # take along axis 1 of the transposed view writes its result in
        # row order, so the reshape makes no second copy
        rows = np.take(v.reshape(v.shape[0], -1).T, reads, axis=1)
        return rows.reshape(-1, reads.shape[1])

    def _scatter(self, both: np.ndarray) -> np.ndarray:
        """The low outputs of each row pair of a paired product at the
        low nodes, then its mirror outputs at the high nodes."""
        low, high, _ = self._pairs
        out = np.empty((self.nodes.size, both.shape[0] // 2))
        out[low] = both[0::2].T
        out[high] = both[1::2].T
        return out

    def rep(self, f: Function01) -> np.ndarray:
        if self._rep_builder is None:
            return np.asarray(f(self.nodes), dtype=float)
        return self._rep_builder(f)

    def apply_rep(self, rep: np.ndarray, xs) -> np.ndarray:
        """The image rep stands for at the points xs in [0, 1], one row each."""
        return self._images([rep], _points(xs))[0]

    def apply_reps(self, reps, xs) -> list:
        """apply_rep of each representation in reps at the points xs, from
        one pass of the basis slabs or weight blocks at xs; each rep is
        applied on its own, so each image equals its apply_rep bit for bit."""
        return self._images(reps, _points(xs))


def _exact_disc(spec: OperatorSpec, ratios: Callable,
                **kwargs) -> NodeDiscretization:
    """A carrier of an exact family; its truncation bound is 0 and its
    first product fills its transfer (_exact_fill)."""
    n = spec.n
    return NodeDiscretization(spec, np.arange(n + 1) / n, 0.0,
                              partial(_exact_fill, n, ratios),
                              lambda reps, xs: bernstein_values(n, reps, xs),
                              **kwargs)


def _exact_fill(n: int, ratios: Callable) -> np.ndarray:
    """The stack of an exact carrier, the view transfer.T of its transfer,
    which is allocated once and filled in place, _FILL_ROWS interior rows
    at a time; the endpoint rows are identities.  ratios(i) gives the
    ratios up[r, j] = T[i[r], j+1] / T[i[r], j] of the rows i and whether
    each falls; each row is divided by its sum.  Where a row falls the
    ratio falls through 1 once, so the row is anchored at its largest
    entry and every product outward is at most 1; elsewhere it rises
    through 1 and the anchor is the smallest entry.  Every operation acts
    on each row alone, so the block size moves no bit."""
    j = np.arange(n)
    transfer = np.eye(n + 1)  # each interior row is then overwritten
    for start in range(1, n, _FILL_ROWS):
        stop = min(start + _FILL_ROWS, n)
        up, falls = ratios(np.arange(start, stop))
        anchor = np.where(falls, np.sum(up >= 1.0, axis=1, keepdims=True),
                          np.sum(up < 1.0, axis=1, keepdims=True))
        inner = transfer[start:stop]  # a view: the rows are made in place
        inner[:, 0] = 1.0
        inner[:, 1:] = np.cumprod(np.where(j >= anchor, up, 1.0), axis=1)
        inner[:, :-1] *= np.cumprod(np.where(j < anchor, 1.0 / up, 1.0)[:, ::-1],
                                    axis=1)[:, ::-1]
        inner /= inner.sum(axis=1, keepdims=True)
    return transfer.T


def _bernstein_disc(spec: OperatorSpec) -> NodeDiscretization:
    """Row i of the transfer is the Bernstein basis at the node i/n, by the
    ratio (n-j)/(j+1) * i/(n-i) left to right (its last bits move Krylov
    certificates near eps): no power of a rounded node, no binomial."""
    n = spec.n
    j = np.arange(n)
    return _exact_disc(spec, lambda i: ((n - j) / (j + 1.0) * i[:, None]
                                        / (n - i[:, None]), True))


def _durrmeyer_disc(spec: OperatorSpec) -> NodeDiscretization:
    """Row i of the transfer is the beta-binomial law
    F_{n,i}(p_{n,j}) = C(n,j) B(a + j, b + n - j) / B(a, b), a = i rho,
    b = (n - i) rho, by the ratio (n-j)/(j+1) * (a+j)/(b+n-j-1), which
    falls through 1 once when a + b >= 2 (_exact_fill; F_{n,i}(1) = 1).

    The carrier keeps one _GaussRules table, bound into its rep builder:
    the Gauss-Jacobi rules depend on (n, rho) and the row only, so every
    input this carrier represents reuses the rules an earlier one solved.
    The table's bytes count in matrix_bytes, so the carrier cache's byte
    cap bounds it, and it leaves the cache with the carrier."""
    n, rho = spec.n, spec.rho
    j = np.arange(n)

    def ratios(i):
        a, b = i[:, None] * rho, (n - i)[:, None] * rho
        return (n - j) / (j + 1.0) * ((a + j) / (b + (n - 1.0 - j))), a + b >= 2.0

    rules = _GaussRules()
    return _exact_disc(spec, ratios, rules=rules,
                       rep_builder=partial(_durrmeyer_coeffs, n, rho, rules=rules))


def _mkz_node_depth(spec: OperatorSpec) -> int:
    """Series depth retained in the carrier.

    Sized so rows at the evaluation cap keep their omitted mass a factor
    (1 - b)/4 below eps * psi(cap): the Neumann sum replays row errors
    about 1/(1-b) times.
    """
    n = spec.n
    eps = spec.truncation_eps
    x_cap = 1.0 - 1.0 / (4.0 * n)
    one_minus_b = 1.0 - spec.contraction_bound()
    if one_minus_b <= 0.0:
        one_minus_b = 0.5 / (n + 1.0)  # plain/reflected: sizing heuristic only
    tau_row = 0.25 * eps * psi(x_cap) * one_minus_b
    return mkz_truncation_index(n, x_cap, tau_row)


def _kahan_step(total, lost, s):
    """(total + s, its rounding error): one compensated (Kahan) addition."""
    y = s - lost
    step = total + y
    return step, (step - total) - y


def _mkz_fill(n: int, t: np.ndarray, share: float, out: np.ndarray,
              rows: Optional[int] = None,
              visit: Optional[Callable] = None) -> np.ndarray:
    """Write share * w_j(t), j = 0 .. rows - 1 (rows = len(out) by
    default), at all the points t at once, and return each point's routed
    mass: share minus the weights made (share itself at t = 1, the point
    mass at the branch's endpoint, which gets no weights).

    The one row-block kernel of the series stacks: a fill passes the
    stack, whose row j is written at out[j]; a streamed product passes a
    buffer of a whole number of _FILL_ROWS rows, reused, row j written at
    out[j % len(out)], and visit(start, block) takes each full buffer, and
    the last part, as block = rows start .. start + len(block) - 1.  The
    buffer size moves no bit of a weight or of the routed mass.

    The rows are made in place, in blocks of _FILL_ROWS rows of out.  A
    block takes one outer product for its ratios t (n+j)/j, one multiply
    per row for the running product (a row loop: np.cumprod over the
    block gives the same bits five times slower), then one multiply by
    (1-t)^(n+1) and one flush, so each weight is multiplied in the order
    of mkz_weight_matrix, with the share folded into (1-t)^(n+1).  For
    the shares 1 and 1/2 the fold moves no normal float, so the weights
    equal share times its columns bit for bit.  Subnormal weights slow
    every product they enter; they are flushed to 0 and the routed mass
    absorbs them exactly.  Each column is unimodal in j, in floating point
    too: the rounded ratios never increase, so the running product rises,
    then falls, and the multiply by (1-t)^(n+1) keeps that order.  So a
    block's smallest weight in a column sits in its first or last row,
    and only the columns where one of those is below the smallest normal
    float are flushed.

    Each block is summed over all the points: numpy adds its rows in
    order (a single column it would sum pairwise; every carrier has two
    or more points), and one Kahan step adds the block sum into the
    running total, so the sum adds almost no rounding of its own (Higham,
    Accuracy and Stability of Numerical Algorithms, ch. 4).  What remains
    is the rounding of the weights, whose running product gathers about
    one rounding per row: against the exact tails (I_t of _mkz_tail at 45
    digits) the routed masses of the mkz carriers at n = 3..16, eps 1e-2
    to 1e-10, are off by up to 88.1 ulps of share, at t = 0.99380 on the
    reflected branch of mkz-symmetric at n = 16, eps 1e-6.
    """
    at_end = t == 1.0
    t = np.where(at_end, 0.0, t)
    w0 = np.where(at_end, 0.0, share * (1.0 - t) ** (n + 1))
    total, lost = np.zeros(t.size), np.zeros(t.size)
    size = out.shape[0]
    rows = size if rows is None else rows
    for start in range(0, rows, _FILL_ROWS):
        at = start % size
        seg = out[at:at + min(_FILL_ROWS, rows - start)]
        k = np.arange(start, start + seg.shape[0], dtype=float)
        np.multiply.outer((n + k) / np.maximum(k, 1.0), t, out=seg)
        if start:
            seg[0] *= run
        else:
            seg[0] = 1.0
        for i in range(1, seg.shape[0]):
            seg[i] *= seg[i - 1]
        run = seg[-1].copy()
        seg *= w0
        low = np.flatnonzero(np.minimum(seg[0], seg[-1]) < _TINY)
        sub = seg[:, low]  # the only columns that can hold a subnormal
        seg[:, low] = sub * (sub >= _TINY)
        total, lost = _kahan_step(total, lost, np.add.reduce(seg, axis=0))
        made = at + seg.shape[0]
        if visit is not None and (made == size or start + seg.shape[0] == rows):
            visit(start + seg.shape[0] - made, out[:made])
    return np.where(at_end, share, np.maximum(0.0, share - total))


def _mkz_tail(n: int, t: np.ndarray, share: float, count: int) -> np.ndarray:
    """An upper bound of share * sum_{j >= count} w_j(t) at every point t,
    the weight mass past a branch's first count >= 1 rows: share at t = 1,
    0 at t = 0.

    The tail is the regularized incomplete Beta function I_t(count, n + 1)
    (DLMF 8.17.5), a binomial sum of n + 1 terms,

        sum_{i=0..n} C(N, i) (1-t)^i t^(N-i),  N = count + n,

    each made as exp(log C(N, i) + i log(1-t) + (N-i) log t) in one pass
    over the points, with log C(N, i) the running sum of the logs of
    (N + 1 - m)/m, m = 1..i.

    With u = 2^-53 and every log, log1p and exp within 4 ulps (8u
    relative) of its exact value, an exponent is off by at most
    n u + (n + 10) u S, where

        S = sum_m |log((N + 1 - m)/m)| + n |log(1-t)| + N |log t|:

    each log is within 8u, each quotient, product and sum within u, and a
    running sum of i terms within i u of their absolute sum.  So each
    term is within exp(n u + (n + 10) u S) (1 + 8u) of its exact value,
    and the sum of the n + 1 terms within 2u ((n + 10)(S + 1) + 2n) of
    the tail, with room for the second-order terms and for the roundings
    of that margin, of the share and of one later addition of two such
    bounds; the sum is raised by this margin.  A term below the smallest
    normal float may lose all its relative accuracy, so n + 1 of that
    float are added too.  Against I_t at 45 digits the unraised sum is
    off by at most 0.07 of its margin at n = 3..64.
    """
    big = count + n
    m = np.arange(1.0, n + 1.0)
    logs = np.log((big + 1.0 - m) / m)
    log_binom = np.concatenate(([0.0], np.cumsum(logs)))
    inner = (t > 0.0) & (t < 1.0)
    x = np.where(inner, t, 0.5)
    log_s, log_t = np.log1p(-x), np.log(x)
    total = np.zeros(t.size)
    for i in range(n + 1):
        total += np.exp(log_binom[i] + i * log_s + (big - i) * log_t)
    size = np.abs(logs).sum() - n * log_s - big * log_t
    total *= 1.0 + 2.0**-52 * ((n + 10) * (size + 1.0) + 2 * n)
    total += (n + 1) * _TINY
    return share * np.where(inner, total, t >= 1.0)


def _mkz_disc(spec: OperatorSpec) -> NodeDiscretization:
    """The carrier of every series family.

    Its nodes are 0, 1 and the nodes of the branches in use: k/(n+k) for
    the plain branch, n/(n+k) for the reflected one.  Each branch adds its
    share-weighted weights to its own nodes and routes each row's omitted
    mass to its hard endpoint node (1 plain, 0 reflected): the skipped
    terms sample f next to that endpoint, where weighted-space inputs
    vanish like psi.  The stack (see NodeDiscretization) is allocated once,
    on the first product, and filled in place by _mkz_fill; the truncation
    bound is the largest of the branches' tails (_mkz_tail) at the
    certified nodes, summed over both branches at the low node of a
    mirror pair, and needs no fill.
    """
    n, fam = spec.n, spec.record
    depth = _mkz_node_depth(spec)
    k = np.arange(depth + 1)
    used = fam.branches
    # Collisions p_j = r_m happen exactly when j*m = n^2; both quotients
    # round to the same float, so value-level merging is exact.
    nodes, inv = np.unique(np.concatenate(
        [n / (n + k) if reflect else k / (n + k) for _, reflect in used]
        + [[0.0, 1.0]]), return_inverse=True)
    branch_cols = np.split(inv[: len(used) * (depth + 1)], len(used))

    def images(reps, xs):
        outs = [np.zeros((xs.size,) + rep.shape[1:]) for rep in reps]
        for (share, reflect), cols in zip(used, branch_cols):
            # own depths up to the cap point 1 - 1/(4n), the carrier's beyond
            t = 1.0 - xs if reflect else xs
            own = t <= 1.0 - 1.0 / (4.0 * n)
            depths = np.full(t.size, depth)
            depths[own] = np.minimum(depth, _mkz_depths(n, t[own], share * _EVAL_TAIL))
            vals = [np.zeros(out.shape) for out in outs]
            mass = np.full(t.size, share)
            for rows, k, w in _mkz_blocks(n, t, depths):
                w *= share
                np.putmask(w, w < _TINY, 0.0)
                mass[rows] = np.maximum(0.0, share - w.sum(axis=1))
                for val, rep in zip(vals, reps):
                    val[rows] = w @ rep[cols[:k.size]]
            for out, val, rep in zip(outs, vals, reps):
                out += val + np.multiply.outer(mass, rep[0 if reflect else -1])
        return outs

    if len(used) == 1:
        ((share, reflect),) = used
        at, pairs = nodes, None
        tails = _mkz_tail(n, 1.0 - nodes if reflect else nodes, share, nodes.size - 1)
        fill = partial(_mkz_branch_stack, n, nodes, share, reflect)
    else:
        # the nodes are sorted, so pair k's low node, p_k up to k = n and
        # r_k beyond, has the smaller index; the plain rows j < P, then
        # the reflected ones, read p_j and r_j for the low output and r_j
        # and p_j for the mirror one
        p_cols, r_cols = branch_cols
        low, high = np.minimum(p_cols, r_cols), np.maximum(p_cols, r_cols)
        plain = _mkz_plain_rows(spec, depth)  # P
        reads = np.array([np.concatenate((p_cols[:plain], r_cols)),
                          np.concatenate((r_cols[:plain], p_cols))])
        pairs = (low, high, reads)
        at = nodes[low]
        p_share, r_share = fam.shares
        tails = (_mkz_tail(n, at, p_share, plain)
                 + _mkz_tail(n, 1.0 - at, r_share, depth + 1))

        def fill():
            return _mkz_paired_stack(spec, at, plain)[0]
    lo, hi = spec.certified_interval()
    bound = float(np.max(tails[(at >= lo) & (at <= hi)]))
    return NodeDiscretization(spec, nodes, bound, fill, images, pairs=pairs)


def _mkz_branch_stack(n: int, nodes: np.ndarray, share: float,
                      reflect: bool) -> np.ndarray:
    """The stack of a one-branch carrier: its rows in node order, so the
    reflected nodes n/(n+k) fill backwards, and the routed masses in the
    endpoint row."""
    stack = np.empty((nodes.size, nodes.size))
    if reflect:
        stack[0] = _mkz_fill(n, 1.0 - nodes, share, stack[:0:-1])
    else:
        stack[-1] = _mkz_fill(n, nodes, share, stack[:-1])
    return stack


def _mkz_paired_stack(spec: OperatorSpec, at: np.ndarray, plain: int,
                      depth: Optional[int] = None):
    """(stack, m_p, m_r): the mkz-symmetric stack [W_p^T[:P]; W_r^T] over
    the low nodes at (NodeDiscretization), P = plain, and the masses routed
    to nodes 1 and 0, each added to the other branch's row 0.  With the
    carrier's depth given, at may be any of its low nodes, and the result
    is the stack's columns at those nodes, bit for bit (every operation of
    _mkz_fill acts on each point alone)."""
    n, (p_share, r_share) = spec.n, spec.record.shares
    depth = at.size - 1 if depth is None else depth
    stack = np.empty((plain + depth + 1, at.size))
    m_p = _mkz_fill(n, at, p_share, stack[:plain])
    m_r = _mkz_fill(n, 1.0 - at, r_share, stack[plain:])
    stack[0] += m_r
    stack[plain] += m_p
    return stack, m_p, m_r


def _mkz_paired_product(spec: OperatorSpec, at: np.ndarray, plain: int,
                        u: np.ndarray) -> np.ndarray:
    """u @ stack for the mkz-symmetric stack over the low nodes at, all
    the pairs, without the stack: _mkz_fill makes its rows into one
    reused buffer of _FILL_ROWS rows, and each block is multiplied while
    it is in cache.  The routed masses of rows 0 and P are added at the
    end, where u reads them, so an input with zero endpoint entries,
    whose gathered rows are zero there, skips them.  The blocks are
    summed in row order, so the product is within rounding of u @ stack,
    not equal to it bit for bit."""
    n, (p_share, r_share) = spec.n, spec.record.shares
    out = np.zeros((u.shape[0], at.size))
    buf = np.empty((_FILL_ROWS, at.size))

    def visit(offset):
        def add(start, block):
            out[...] += u[:, offset + start:offset + start + block.shape[0]] @ block
        return add

    m_p = _mkz_fill(n, at, p_share, buf, plain, visit(0))
    m_r = _mkz_fill(n, 1.0 - at, r_share, buf, at.size, visit(plain))
    ends = u[:, [0, plain]]
    if np.any(ends):
        out += ends @ np.array([m_r, m_p])
    return out


def _mkz_paired_rows(spec: OperatorSpec, at: np.ndarray, plain: int,
                     rows: np.ndarray) -> np.ndarray:
    """Rows of the mkz-symmetric stack over the low nodes at, none of them
    0 or P (the rows that hold the routed masses), in closed form: a plain
    row j < P is share * C(n+j, j) t^j (1-t)^(n+1) at t = at, a reflected
    row P + j the same at t = 1 - at, each made in place, one row at a
    time, and flushed below the smallest normal float as _mkz_fill
    flushes.  C(n+j, j) is the product of the n ratios (j+i)/i, within
    n roundings, and t^j one rounded power; the fill's running product
    gathers about one rounding per row instead, so deep rows differ from
    the stack's by its rounding (2.1e-14 of the row's largest weight at
    n = 16, where these rows are within 1e-15 of 40-digit values)."""
    n, shares = spec.n, spec.record.shares
    out = np.empty((rows.size, at.size))
    reflect = rows >= plain
    js = np.where(reflect, rows - plain, rows)
    i = np.arange(1.0, n + 1.0)
    binomials = np.prod((js[:, None] + i) / i, axis=1)
    for branch, t in enumerate((at, 1.0 - at)):
        w0 = shares[branch] * (1.0 - t) ** (n + 1)
        for r in np.flatnonzero(reflect == branch):
            row = np.power(t, js[r], out=out[r])
            row *= binomials[r] * w0
            np.putmask(row, row < _TINY, 0.0)
    return out


def _mkz_plain_rows(spec: OperatorSpec, depth: int) -> int:
    """P of the mkz-symmetric stack: one past the own depth of the low
    node 1/2 at the tail share * _EVAL_TAIL, the depth apply_rep sums 1/2
    to, and at most depth + 1.  For k > n, w_k(t) rises on [0, 1/2], so
    below the cap the plain weights past P sum to at most that tail at
    every low node."""
    share = spec.record.shares[0]
    half = _mkz_depths(spec.n, np.array([0.5]), share * _EVAL_TAIL)
    return 1 + min(depth, int(half[0]))


def _low_rank_pairs(disc: NodeDiscretization):
    """(y, z) with u @ y @ z standing in for u @ S, S the paired stack of
    disc and u the rows that _gather makes, or (None, None) where the
    sample would pass a quarter of the stack's width.

    The weighted stack S'[j, i] = S[j, i] rho_j / w_i, with rho_j the
    larger psi at the two nodes row j reads and w_i the smaller psi at
    output pair i's two nodes, is factored S' ~ Q Q^T S', Q an orthonormal
    basis of sampled columns of S' (the range finder of Halko, Martinsson
    and Tropp, SIAM Rev. 53 (2011), with stack columns in place of a
    random sketch).  The sample is
    the output pairs at the distinct rounded points of a geometric
    sequence of count indices from 1 to the last pair: their low nodes
    k/(n+k) and n/(n+k) crowd geometrically toward node 0, where the
    columns change fastest.  _mkz_paired_stack makes those columns at
    those nodes only, bit for bit the stack's, with no pass over the
    stack (0.4M cells at n = 16, against 17.6M).  count starts at
    _SAMPLES and grows by _SAMPLE_GROWTH until at least _SPARE of the
    sample's singular values are at most _SKETCH_CUT of the largest
    (with 16 to spare, one factored step at n = 24 was off by 1.4e-12 of
    its input, with 24 by 2.5e-15).  Each try takes the singular values
    and right singular vectors V of the R of one Householder QR of the
    sample C, without its Q (LAPACK forms Q, unblocked below 128 columns,
    about as slowly as R).  Q spans the k left singular vectors above the
    cut (38 to 61 at n = 3..8, 75 at n = 16 and 89 at n = 24): it is
    C V_k / s_k made orthonormal by Cholesky QR twice (Yamamoto,
    Nakatsukasa, Yanagisawa and Fukaya, ETNA 44 (2015)), whose Gram
    matrix had condition 2e3 to 1e4 on every carrier measured, far within
    that method's reach.  The first try holds the rank up to n = 16.
    Column j of u is at most
    rho_j |v|_psi, so the weighting makes the factorization accurate in
    the weighted norm the series is certified in.  psi vanishes at nodes
    0 and 1, which rows 0 and P (the routed masses) read, so Q is taken
    on the other rows, and pair 0 is never sampled.  The factors are
    y = Q / rho, zero on rows 0 and P, and z = y_I^-1 S_I, zero on column
    0, so an input with zero endpoint entries keeps zero endpoint
    outputs.  I is the rank rows of Q that DEIM picks (Chaturantabut and
    Sorensen, SIAM J. Sci. Comput. 32 (2010)): its row m is where column
    m of Q is worst interpolated, on the rows picked before, by the
    columns before it.  So y z is S on the rows I and interpolates it
    elsewhere, rho S ~ Q Q_I^-1 (rho S)_I, and the rows I come in closed
    form (_mkz_paired_rows), with no pass over the stack.  |Q_I^-1|_2 was
    12 to 43 at n = 3..24, and the weighted error |S' - y' z'|_max /
    |S'|_max 6e-16 to 3.9e-15 (1.2e-15 to 3.0e-15 for Q Q^T S').  No
    certificate reads the factors: every series result is certified by
    an exact product of the stack.
    """
    low, high, reads = disc._pairs
    cols = low.size
    plain = reads.shape[1] - cols  # P
    rw = psi(disc.nodes[reads]).max(axis=0)
    live = rw > 0.0  # every row but 0 and P
    rho = rw[live, None]
    at = disc.nodes[low]
    w = np.minimum(psi(at), psi(disc.nodes[high]))
    count = _SAMPLES
    while True:
        # the distinct rounded points, in order, without np.unique (which
        # imports numpy.ma)
        picks = np.rint(np.geomspace(1, cols - 1, count)).astype(np.int64)
        picks = picks[np.diff(picks, prepend=0) > 0]
        if picks.size > cols // 4:
            return None, None
        sample = _mkz_paired_stack(disc.spec, at[picks], plain, cols - 1)[0]
        sample = sample[live] * rho / w[picks]
        _, sv, vt = np.linalg.svd(np.linalg.qr(sample, mode="r"))
        if np.sum(sv <= _SKETCH_CUT * sv[0]) >= _SPARE:
            break
        count = math.ceil(count * _SAMPLE_GROWTH)
    rank = int(np.sum(sv > _SKETCH_CUT * sv[0]))
    q = sample @ (vt[:rank].T / sv[:rank])
    for _ in range(2):  # Cholesky QR, twice
        q = q @ np.linalg.inv(np.linalg.cholesky(q.T @ q)).T
    y = np.zeros((reads.shape[1], rank))
    y[live] = q / rho
    chosen = [int(np.argmax(np.abs(q[:, 0])))]
    for m in range(1, rank):  # DEIM
        c = np.linalg.solve(q[chosen, :m], q[chosen, m])
        chosen.append(int(np.argmax(np.abs(q[:, m] - q[:, :m] @ c))))
    rows = np.flatnonzero(live)[chosen]
    z = np.linalg.solve(y[rows], _mkz_paired_rows(disc.spec, at, plain, rows))
    z[:, 0] = 0.0
    return y, z


def _stack_shape(spec: OperatorSpec) -> tuple:
    """(rows, cols) of the stack a carrier of spec fills, without building
    anything: the (n+1)-square transfer of an exact family, the N-square
    one-branch stack, N = depth + 2, and the (P + depth + 1) x (depth + 1)
    paired stack (_mkz_plain_rows)."""
    if not spec.record.series:
        return spec.n + 1, spec.n + 1
    depth = _mkz_node_depth(spec)
    plain, refl = spec.record.shares
    if plain == refl:
        return _mkz_plain_rows(spec, depth) + depth + 1, depth + 1
    return depth + 2, depth + 2


def check_carrier_budget(spec: OperatorSpec) -> None:
    """Raise TruncationBudgetError, without building anything, if a
    carrier's fill may hold more than _CARRIER_BYTES_CAP at its peak.

    Every fill allocates its stack (_stack_shape) once and fills it in
    place, next to a few vectors of its width (a block of _FILL_ROWS rows
    for the exact families), so the stack alone is counted."""
    rows, cols = _stack_shape(spec)
    size = 8 * rows * cols
    if size > _CARRIER_BYTES_CAP:
        # rounded up, so a size just past the cap reads above it
        raise TruncationBudgetError(
            f"{spec.family} carrier for n={spec.n} needs "
            f"{math.ceil(10 * size / 2**30) / 10:.1f} GiB, above the "
            f"{_CARRIER_BYTES_CAP / 2**30:.0f} GiB budget")


_CACHE_BYTES_CAP = 2**27  # carrier matrix bytes kept for reuse (128 MiB)
_DISC_CACHE: dict = {}  # spec -> carrier, least recently used first
_DISC_LOCK = threading.Lock()
_FILL_LOCK = threading.Lock()  # held by the one carrier fill running
_BLAS_LOCK = threading.Lock()
_blas_scopes = [0, 0]  # scopes open, and the thread count the first saved


@lru_cache(maxsize=None)
def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS numpy links, looked
    up once, on first use, through numpy's own extension module, or None
    where it exports none of the three name pairs (another BLAS)."""
    core = np._core if int(np.__version__.split(".")[0]) >= 2 else np.core
    try:
        lib = ctypes.CDLL(core._multiarray_umath.__file__)
    except OSError:
        return None
    for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"),
                           ("openblas", "")):
        calls = [getattr(lib, f"{prefix}_{verb}_num_threads{suffix}", None)
                 for verb in ("get", "set")]
        if all(calls):
            return tuple(calls)
    return None


@contextmanager
def _one_blas_thread(on: bool = True):
    """Run the block on one BLAS thread (if on), then restore the count.

    The small dense work of the paired series (a QR and an SVD of the
    sampled stack columns, DEIM solves, the 2a-square Woodbury solve,
    32-row stream blocks) and the Gauss-Jacobi eigvalsh gain nothing from
    a second thread, which only spins and stalls.  The count is process-
    wide, so scopes of several threads share it: the first to open saves
    it and sets 1, the last to close restores it.  A no-op where the
    count cannot be set (_openblas_threads)."""
    calls = _openblas_threads() if on else None
    if calls is None:
        yield
        return
    get, put = calls
    with _BLAS_LOCK:
        if not _blas_scopes[0]:
            _blas_scopes[1] = get()
            put(1)
        _blas_scopes[0] += 1
    try:
        yield
    finally:
        with _BLAS_LOCK:
            _blas_scopes[0] -= 1
            if not _blas_scopes[0]:
                put(_blas_scopes[1])


def node_discretization(op: OperatorSpec) -> NodeDiscretization:
    """Build (or fetch) the finite carrier for one operator instance.

    A carrier is made with its nodes, bound, images and rep builder,
    never its stack, which its first product fills.  Carriers are kept
    least recently used first and evicted once the matrices they hold
    pass _CACHE_BYTES_CAP (the newest always stays); the cap is applied
    again before a carrier fills its stack (NodeDiscretization._stack).
    At 128 MiB the n = 16 mkz-symmetric stack (141.1 MB) is held alone,
    while the n = 4 and 8 ones (28.3 MB together) are held side by side.
    Builds run under the cache lock, after the budget check: threads that
    ask for one spec share one carrier, built once (a build holds no
    stack, so it is short).  The cap is applied once the lock is released.
    """
    with _DISC_LOCK:
        got = _DISC_CACHE.pop(op, None)
        if got is not None:
            _DISC_CACHE[op] = got  # now the most recently used
            return got
        check_carrier_budget(op)
        got = _DISC_CACHE[op] = op.record.carrier(op)
    _apply_cache_cap()
    return got


def _apply_cache_cap(filling: int = 0) -> None:
    """Evict the least recently used carriers while the matrices the cache
    holds, plus filling, the stack_bytes of the one stack about to be
    filled (0 when none is), pass _CACHE_BYTES_CAP; the most recently
    used always stays.  An evicted carrier's stack is freed once no
    caller holds the carrier: a series result keeps its image kernel,
    not the carrier."""
    with _DISC_LOCK:
        held = filling + sum(d.matrix_bytes for d in _DISC_CACHE.values())
        for old in list(_DISC_CACHE)[:-1]:
            if held <= _CACHE_BYTES_CAP:
                break
            held -= _DISC_CACHE.pop(old).matrix_bytes


# ---------------------------------------------------------------------------
# Little-o condition report
# ---------------------------------------------------------------------------

def condition_report(family: str, n_list, grid: Optional[EvaluationGrid] = None,
                     rho: Optional[float] = None,
                     truncation_eps: Optional[float] = None):
    """Per-n grid suprema of M^4/M^2, the alpha-oscillation ratio eta, and
    the mixed bound L(psi |alpha - alpha(x)|)(x) / (nu^2 psi(x)).

    Returns a list of dict rows, one per n, each column shrinking toward 0
    along n for the supported families; cond55_nodes and cond55_terms
    count the interior nodes and the most closed-form terms behind cond55
    (0 for the exact families).
    """
    rows = []
    for n in n_list:
        spec = OperatorSpec(family=family, n=n, rho=rho,
                            truncation_eps=truncation_eps)
        at = spec.grid(grid)
        xs = at.points
        # one M2 per n: the series families' alpha is M2/psi
        m2 = moment(spec, 2, xs)
        prof = _profile(at, m2 / psi(xs) if spec.record.series
                        else spec.record.alpha(spec, xs))
        sup_ratio = float(np.max(moment(spec, 4, xs) / m2))
        cond, nodes, terms = _cond55_sup(spec, prof)
        rows.append({"n": n, "sup_m4_over_m2": sup_ratio, "eta": prof.eta,
                     "cond55": cond, "cond55_nodes": nodes,
                     "cond55_terms": terms})
    return rows


def _mkz_m2(n: int, ts: np.ndarray) -> tuple:
    """(M2, terms) at points t in [0, 1]: the plain branch's second moment
    t (1-t)^2/(n+1) 2F1(1, 2; n+2; t), 0 at t = 0 and t = 1, and the most
    2F1 terms a point took.

    Below t = 4/5 it sums the series.  Its terms are T_J = P_J t^J, with
    P_J = (J+1)/C(n+1+J, J) rounded once from the exact rational and t^J
    a running product, so no rounded term ratio enters.  A point stops at
    the first T_J whose tail bound T_J min(t/(1-t), t (J+2)/(n-1)) is at
    most 2^-53 of its running sum (the term ratios are below t, and for
    n >= 2 their products telescope by Gauss's sum at 1), and adds its
    terms 0..J from the smallest.  As T_J <= t^J and t/(1-t) < 4, every
    point stops within _M2_TERMS = 172 terms: 4 (4/5)^171 < 2^-53.  The
    points are taken in order of t, in blocks as wide as their largest t
    needs.

    From t = 4/5 it takes Euler's integral (DLMF 15.6.1),

        2F1(1, 2; n+2; t) = (n+1) int_0^1 (1-s)^n (1-ts)^-2 ds.

    With u = 1 - s and a = (1-t)/t, 1 - ts = t (a + u), so M2 = t a^2 I_n
    for I_m = int_0^1 u^m (a+u)^-2 du.  Writing u^m = u^(m-1) ((a+u) - a)
    gives, with J_m = int_0^1 u^m (a+u)^-1 du,

        I_m = J_(m-1) - a I_(m-1),   J_m = 1/m - a J_(m-1),

    from I_0 = 1/(a(1+a)) and J_0 = log1p(1/a): n steps per point.  Each
    step multiplies the error it inherits by a <= 1/4, and I_m, J_m fall
    no faster than 1/(m+1), so the relative error stays a few roundings.
    """
    out, most = np.zeros(ts.size), 0
    coef = _m2_coefficients(n)
    # 2^53 times the telescoping tail factor after each term; n = 1 does
    # not telescope
    j = np.arange(_M2_TERMS)
    tele = (2.0**53 * (j + 2.0) / (n - 1.0) if n >= 2
            else np.full(_M2_TERMS, np.inf))
    low = np.flatnonzero(ts < _M2_SPLIT)
    low = low[np.argsort(ts[low], kind="stable")]
    step = _SUM_CELLS // _M2_TERMS
    for first in range(0, low.size, step):
        rows = low[first:first + step]
        t = ts[rows]
        # every computed tail grows with t and every sum is at least 1, so
        # the block's largest t bounds its width by its first tail <= 1
        _, top = _m2_terms(coef, tele, t[-1:], _M2_TERMS)
        width = 1 + int(np.argmax(top[0] <= 1.0))
        terms, tail = _m2_terms(coef, tele, t, width)
        stop = (tail <= np.cumsum(terms, axis=1)).argmax(axis=1)
        terms[j[:width] > stop[:, None]] = 0.0
        # summed from the smallest term: the zeros past a point's own
        # stop add exactly, so its value does not depend on the width
        total = np.cumsum(terms[:, ::-1], axis=1)[:, -1]
        out[rows] = t * (1.0 - t) ** 2 / (n + 1.0) * total
        most = max(most, int(stop.max()) + 1)
    high = np.flatnonzero((ts >= _M2_SPLIT) & (ts < 1.0))
    t = ts[high]
    a = (1.0 - t) / t
    i_m, j_m = 1.0 / (a * (1.0 + a)), np.log1p(1.0 / a)
    for m in range(1, n + 1):
        i_m = j_m - a * i_m
        j_m = 1.0 / m - a * j_m
    out[high] = t * a * a * i_m
    return out, most


def _m2_terms(coef: np.ndarray, tele: np.ndarray, t: np.ndarray,
              width: int) -> tuple:
    """(T, tail) for the 2F1 terms J < width at the points t:
    T_J = coef_J t^J, with t^J a running product, and 2^53 times each
    term's tail bound T_J t min(1/(1-t), tele_J / 2^53)."""
    terms = np.empty((t.size, width))
    terms[:, 0] = 1.0
    terms[:, 1:] = t[:, None]
    np.cumprod(terms, axis=1, out=terms)
    terms *= coef[:width]
    tail = np.minimum.outer(2.0**53 / (1.0 - t), tele[:width])
    tail *= t[:, None]
    tail *= terms
    return terms, tail


@lru_cache(maxsize=64)
def _m2_coefficients(n: int) -> np.ndarray:
    """P_J = (J+1)/C(n+1+J, J) = prod_(i=1..J) (i+1)/(n+1+i), J = 0..171,
    each rounded once from the exact rational (0 where it underflows);
    read-only, as every call with n shares it."""
    coef = np.array([(J + 1) / math.comb(n + 1 + J, J)
                     for J in range(_M2_TERMS)])
    coef.flags.writeable = False
    return coef


def _closed_m2(spec: OperatorSpec, xs: np.ndarray) -> tuple:
    """(M2, terms): the series family's share-weighted second moment at
    the points xs by _mkz_m2, the reflected branch's at 1 - x."""
    m2, most = 0.0, 0
    for share, reflect in spec.record.branches:
        m, used = _mkz_m2(spec.n, 1.0 - xs if reflect else xs)
        m2, most = m2 + share * m, max(most, used)
    return m2, most


def _cond55_sup(spec: OperatorSpec, prof: AlphaProfile) -> tuple:
    """(cond55, nodes, terms): the sup over the profile grid of
    L(psi |alpha - alpha(x)|)(x) / (nu^2 psi(x)), each branch truncated at
    the moment tail 0.1 * truncation_eps; the interior node count and the
    most 2F1 terms behind alpha at the nodes, which comes from the closed
    form M2 (_closed_m2) as on the grid."""
    if not spec.record.series:
        return 0.0, 0, 0  # alpha is constant: the integrand vanishes
    n, xs = spec.n, prof.grid.points
    tail = 0.1 * spec.truncation_eps
    used = [(share, 1.0 - xs if reflect else xs, reflect)
            for share, reflect in spec.record.branches]
    depths = [_mkz_depths(n, t, tail) for _, t, _ in used]
    k = np.arange(max(int(d.max()) for d in depths) + 1)
    # each branch's nodes in x, one row per branch, and alpha at the first
    # branch's nodes; the endpoint nodes carry no psi weight.  The one
    # two-branch family has equal shares, so its alpha is mirror-symmetric
    # and the reflected nodes n/(n+k), the mirrors of k/(n+k), reuse it.
    at = np.stack([n / (n + k) if reflect else k / (n + k)
                   for _, _, reflect in used])
    a_nodes = np.zeros(at.shape)
    inner = (at[0] > 0.0) & (at[0] < 1.0)
    m2, terms = _closed_m2(spec, at[0, inner])
    a_nodes[:, inner] = m2 / psi(at[0, inner])
    acc = np.zeros(xs.size)
    for (share, t, _), d, a_b, psi_b in zip(used, depths, a_nodes, psi(at)):
        def integrand(nodes, rows, a_b=a_b, psi_b=psi_b):
            g = a_b[None, :nodes.size] - prof.alpha_values[rows, None]
            np.abs(g, out=g)
            g *= psi_b[:nodes.size]
            return (g,)

        acc += share * _mkz_sum(n, t, d, integrand)
    return (float(np.max(acc / (prof.nu ** 2 * psi(xs)))), int(inner.sum()),
            terms)


# ---------------------------------------------------------------------------
# The family table
# ---------------------------------------------------------------------------

# The plain series operator; the reflected and symmetrical members differ
# only in their branch shares (and the symmetrical one in its order range
# and contraction bound).  The plain and reflected operators lose the
# contraction at their hard endpoint, where their second moment over psi
# vanishes, so their bound is 1 and they stay outside the Lambda class.
_MKZ = Family(min_n=1, param="truncation_eps", contraction=lambda s: 1.0,
              apply=_mkz_family_apply, moment=_mkz_moment,
              alpha=lambda s, xs: moment(s, 2, xs) / psi(xs),
              carrier=_mkz_disc, shares=(1.0, 0.0), default_eps=1e-6)

_FAMILY_TABLE = {
    "bernstein": Family(
        min_n=1, param=None,
        contraction=lambda s: 1.0 - 1.0 / s.n,
        apply=_bernstein_apply,
        moment=_bernstein_moment,
        alpha=lambda s, xs: np.full(xs.size, 1.0 / s.n),
        carrier=_bernstein_disc),
    "durrmeyer": Family(
        min_n=2, param="rho",
        contraction=lambda s: 1.0 - (s.rho + 1.0) / (s.n * s.rho + 1.0),
        apply=_durrmeyer_apply,
        moment=_durrmeyer_moment,
        alpha=lambda s, xs: np.full(xs.size, (s.rho + 1.0) / (s.n * s.rho + 1.0)),
        carrier=_durrmeyer_disc, default_rho=1.0),
    "mkz": _MKZ,
    "mkz-reflected": replace(_MKZ, shares=(0.0, 1.0)),
    "mkz-symmetric": replace(_MKZ, shares=(0.5, 0.5), min_n=3,
                             contraction=lambda s: 1.0 - 0.5 / (s.n + 1.0),
                             default_n_list=(4, 8, 16)),
}

FAMILIES = tuple(_FAMILY_TABLE)
