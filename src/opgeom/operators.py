"""The three operator families behind one interface: pointwise application,
finite node discretization with a transfer matrix, central moments, and the
contraction profile alpha = 1 - L(psi)/psi.

Each family tag maps to one Family record in the table at the end of this
module; OperatorSpec and the module functions look the record up instead
of branching on the tag.

Family carriers
---------------
bernstein      node values at k/n; the transfer matrix is the basis matrix
               evaluated at the nodes (exact).
durrmeyer      coefficients in the Bernstein basis: the image of f is
               sum_k c_k(f) p_{n,k} with c_k the Beta-density functionals,
               so one application advances the coefficient vector by the
               matrix c_i(p_{n,j}) (exact; entries in closed Beta form).
mkz families   the plain series operator (nodes k/(n+k)) and its
               reflection (nodes n/(n+k)) mixed with shares (1, 0), (0, 1)
               and (1/2, 1/2); each series is truncated at a depth sized
               from the a-priori geometric tail bound, and each row's
               omitted mass is routed to the branch's hard endpoint node,
               whose value a weighted-space input pins to zero.  The
               (1/2, 1/2) transfer is two parity blocks indexed by the
               series index k of the mirror pair (k/(n+k), n/(n+k)).

OperatorSpec and NodeDiscretization are immutable after construction; all
apply/moment operations are pure.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from typing import Callable, Optional

import numpy as np
from scipy.special import roots_jacobi

from .errors import (DegenerateOperatorError, DomainError, QuadratureError,
                     TruncationBudgetError)
from .funcspace import (EvaluationGrid, Function01, default_grid, psi)
from .special import (bernstein_basis_matrix, log_beta, log_binomial,
                      mkz_weight_matrix, mkz_weight_row)

__all__ = [
    "FAMILIES",
    "Family",
    "family_record",
    "OperatorSpec",
    "AlphaProfile",
    "NodeDiscretization",
    "bernstein_apply",
    "durrmeyer_functional",
    "durrmeyer_apply",
    "mkz_apply",
    "mkz_truncation_index",
    "moment",
    "alpha_profile",
    "node_discretization",
    "check_carrier_budget",
    "condition_report",
]

_SERIES_CAP = 500_000
_CARRIER_BYTES_CAP = 4 * 2**30  # largest series carrier build, in bytes
_ROW_BLOCK = 512  # carrier rows built per weight-matrix call


@dataclass(frozen=True)
class Family:
    """Everything that distinguishes one operator family.

    shares weights the plain and the reflected series branch (the
    Meyer-Koenig-Zeller tags); the exact families have no series branch.
    The callables take the OperatorSpec as their first argument.
    """

    min_n: int
    param: Optional[str]  # parameter that must be given and positive
    contraction: Callable  # certified upper bound on |L(psi)|_psi
    apply: Callable  # (spec, f, x) -> L(f)(x)
    moment: Callable  # (spec, k, x) -> central moment at one point
    alpha: Callable  # (spec, xs) -> 1 - L(psi)/psi at the points xs
    carrier: Callable  # spec -> NodeDiscretization
    shares: tuple = (0.0, 0.0)
    default_n_list: tuple = (4, 8, 16, 32)
    default_eps: float = 1e-8
    default_rho: Optional[float] = None

    @property
    def series(self) -> bool:
        """True for the truncated-series families, False for the exact ones."""
        return any(self.shares)


def family_record(tag: str) -> Family:
    """The table record of one family tag."""
    try:
        return _FAMILY_TABLE[tag]
    except (KeyError, TypeError):
        raise DomainError(f"unknown family {tag!r}; choose from {FAMILIES}") from None


@dataclass(frozen=True)
class OperatorSpec:
    """One operator family member: family tag, order, and parameters."""

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
        if fam.param is not None:
            value = getattr(self, fam.param)
            if value is None or value <= 0.0:
                raise DomainError(f"{self.family} requires {fam.param} > 0")

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
        return self.record.apply(self, f, x)

    def moment(self, k: int, x):
        return moment(self, k, x)


# ---------------------------------------------------------------------------
# Bernstein
# ---------------------------------------------------------------------------

def bernstein_apply(n: int, f: Function01, x):
    """sum_k f(k/n) p_{n,k}(x); reproduces affine functions exactly."""
    if n < 1:
        raise DomainError("bernstein requires n >= 1")
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    vals = np.asarray(f(np.arange(n + 1) / n), dtype=float)
    out = bernstein_basis_matrix(n, xs) @ vals
    return out if np.ndim(x) else float(out[0])


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


def durrmeyer_functional(n: int, k: int, rho: float, f: Function01,
                         method: str = "auto") -> float:
    """Integral of f against the Beta(k rho, (n-k) rho) density.

    Polynomial inputs go through exact monomial moments; everything else
    uses Gauss-Jacobi quadrature whose weight absorbs the endpoint
    singularities that appear when k rho < 1 or (n-k) rho < 1.
    """
    if not 1 <= k <= n - 1:
        raise DomainError(f"functional index k={k} outside [1, {n - 1}]")
    if rho <= 0.0:
        raise DomainError("rho must be positive")
    if method not in ("auto", "closed-form", "quadrature"):
        raise DomainError(f"unknown method {method!r}")
    if method != "quadrature" and f.poly_coeffs is not None:
        coeffs = np.asarray(f.poly_coeffs)
        moments = _durrmeyer_monomial_moments(n, rho, len(coeffs) - 1)[k - 1]
        return float(coeffs @ moments[: len(coeffs)])
    if method == "closed-form":
        raise DomainError("closed form needs a polynomial input")
    a = k * rho
    b = (n - k) * rho
    log_norm = (1.0 - a - b) * math.log(2.0) - log_beta(a, b)
    prev = None
    delta = math.inf
    for m in (24, 48, 96, 192):
        ynodes, yweights = roots_jacobi(m, b - 1.0, a - 1.0)
        t = 0.5 * (ynodes + 1.0)
        val = float(yweights @ np.asarray(f(t), dtype=float)) * math.exp(log_norm)
        if prev is not None:
            delta = abs(val - prev)
            if delta <= 1e-13 * max(1.0, abs(val)):
                return val
        prev = val
    # Global polynomial quadrature converges only algebraically for kinked
    # or endpoint-oscillatory f; fall back to endpoint-graded composite
    # panels when the weight itself is bounded.
    if a >= 1.0 and b >= 1.0:
        return _beta_integral_composite(a, b, f)
    if delta <= 1e-4 * max(1.0, abs(val)):
        return val
    raise QuadratureError(f"Gauss-Jacobi did not settle for k={k}, rho={rho}")


_BETA_GL_NODES, _BETA_GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def _beta_integral_composite(a: float, b: float, f: Function01) -> float:
    """Integral of f against the Beta(a, b) density via composite panels
    graded geometrically toward both endpoints; needs a, b >= 1 so the
    density is bounded."""
    log_norm = -float(log_beta(a, b))
    edges = np.concatenate((
        [0.0], np.logspace(-15, -1.01, 48), np.linspace(0.1, 0.5, 14)[1:]))
    edges = np.concatenate((edges, (1.0 - edges)[::-1]))

    def density(t):
        lg = np.full(t.shape, log_norm)
        if a != 1.0:
            lg += (a - 1.0) * np.log(t)
        if b != 1.0:
            with np.errstate(divide="ignore"):
                # rounding can land a node exactly on 1; exp(-inf) -> 0
                lg += (b - 1.0) * np.log1p(-t)
        return np.exp(lg)

    total = 0.0
    err = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        prev = None
        panels = 1
        while True:
            sub = np.linspace(lo, hi, panels + 1)
            mid = 0.5 * (sub[:-1] + sub[1:])[:, None]
            half = 0.5 * (sub[1:] - sub[:-1])[:, None]
            t = (mid + half * _BETA_GL_NODES).ravel()
            w = (half * _BETA_GL_WEIGHTS).ravel()
            ft = np.asarray(f(t), dtype=float)
            dens = density(t)
            val = float(np.dot(w, ft * dens))
            if prev is not None:
                d = abs(val - prev)
                if d <= 1e-14 * max(abs(val), 1e-3) or panels >= 256:
                    mass = float(np.dot(w, dens))
                    err += min(d, mass * float(np.max(np.abs(ft))) if ft.size else 0.0)
                    break
            prev = val
            panels *= 2
        total += val
    if err > 1e-6 * max(1.0, abs(total)):
        raise QuadratureError(
            f"composite Beta quadrature residual {err:.2e} too large")
    return total


def durrmeyer_apply(n: int, rho: float, f: Function01, x):
    """Durrmeyer-type image: interior Beta functionals recombined with the
    Bernstein basis plus exact endpoint terms."""
    if n < 2:
        raise DomainError("durrmeyer requires n >= 2")
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    out = bernstein_basis_matrix(n, xs) @ _durrmeyer_coeffs(n, rho, f)
    return out if np.ndim(x) else float(out[0])


def _durrmeyer_coeffs(n: int, rho: float, f: Function01) -> np.ndarray:
    """f(0), the Beta functionals of f for k = 1..n-1, and f(1)."""
    return np.array([float(f(0.0))]
                    + [durrmeyer_functional(n, k, rho, f) for k in range(1, n)]
                    + [float(f(1.0))])


# ---------------------------------------------------------------------------
# Meyer-Koenig and Zeller (Cheney-Sharma form) and its reflections
# ---------------------------------------------------------------------------

def mkz_truncation_index(n: int, x: float, tail: float,
                         cap: int = _SERIES_CAP) -> int:
    """Smallest series depth with certified weight tail <= tail.

    Beyond k0 the term ratio x(n+k+1)/(k+1) is below x' = (1+x)/2, so the
    tail after K is bounded by w_{k0} x'^(K+1-k0) / (1-x'); solving that
    for K needs no evaluations of the summand's function factor.
    """
    if not 0.0 <= x < 1.0:
        raise DomainError("truncation index needs 0 <= x < 1")
    if tail <= 0.0:
        raise DomainError("tail target must be positive")
    if x == 0.0:
        return 0
    xp = 0.5 * (1.0 + x)
    k0 = max(0, math.ceil((x * (n + 1.0) - xp) / (xp - x)))
    log_w_k0 = (log_binomial(n + k0, k0) + (n + 1.0) * math.log1p(-x)
                + k0 * math.log(x))
    log_target = math.log(tail) + math.log1p(-xp) - math.log(xp)
    if log_w_k0 <= log_target:
        k = k0
    else:
        k = k0 + math.ceil((log_target - log_w_k0) / math.log(xp))
    if k > cap:
        raise TruncationBudgetError(
            f"series depth {k} exceeds cap {cap} (x={x} too close to 1)")
    return k


def mkz_apply(n: int, f: Function01, x, eps: float):
    """Series operator value with certified tail <= eps * sup|f|."""
    if n < 1:
        raise DomainError("mkz requires n >= 1")
    if eps <= 0.0:
        raise DomainError("eps must be positive")
    if np.ndim(x):
        return np.array([mkz_apply(n, f, float(v), eps) for v in np.asarray(x)])
    x = float(x)
    if x == 1.0:
        return float(f(1.0))
    k = mkz_truncation_index(n, x, eps)
    w = mkz_weight_row(n, x, k)
    nodes = np.arange(k + 1) / (n + np.arange(k + 1))
    return float(w @ np.asarray(f(nodes), dtype=float))


def _mkz_mix(shares, branch):
    """Sum of share * branch(share, reflect) over the plain and the
    reflected branch.  A branch whose share is zero is skipped rather than
    weighted by 0: it would be evaluated next to its hard endpoint."""
    out = None
    for share, reflect in zip(shares, (False, True)):
        if share:
            term = share * branch(share, reflect)
            out = term if out is None else out + term
    return out


def _mkz_family_apply(spec: OperatorSpec, f: Function01, x):
    """Share-weighted plain and reflected series values; the reflected
    branch is the plain series of f(1-t) at 1-x, and each branch is
    truncated at share * eps."""
    if np.ndim(x):
        return np.array([_mkz_family_apply(spec, f, float(v)) for v in np.asarray(x)])
    x = float(x)

    def branch(share, reflect):
        g, t = (f.reflected(), 1.0 - x) if reflect else (f, x)
        return mkz_apply(spec.n, g, t, share * spec.truncation_eps)

    return _mkz_mix(spec.record.shares, branch)


def _mkz_central_moment(n: int, kpow: int, x: float, tail: float) -> float:
    """Central moment of the plain series operator at x."""
    if x == 1.0:
        return 1.0 if kpow == 0 else 0.0
    k = mkz_truncation_index(n, x, tail)
    w = mkz_weight_row(n, x, k)
    nodes = np.arange(k + 1) / (n + np.arange(k + 1))
    return float(w @ (nodes - x) ** kpow)


def _mkz_moment(spec: OperatorSpec, k: int, x: float) -> float:
    def branch(share, reflect):
        tail = share * spec.truncation_eps
        if reflect:
            return (-1.0) ** k * _mkz_central_moment(spec.n, k, 1.0 - x, tail)
        return _mkz_central_moment(spec.n, k, x, tail)

    return _mkz_mix(spec.record.shares, branch)


def _mkz_weight_grid(n: int, xs: np.ndarray, tail: float):
    """Stacked weight rows for many points, sized by the deepest point.

    Returns (W, nodes); each row's omitted tail is below `tail` by the
    a-priori bound, and the realized row-sum deficit gives the exact
    omitted mass.
    """
    xs = np.asarray(xs, dtype=float)
    kmax = max(mkz_truncation_index(n, float(v), tail) for v in xs)
    w = mkz_weight_matrix(n, xs, kmax)
    nodes = np.arange(kmax + 1) / (n + np.arange(kmax + 1))
    return w, nodes


def _m2_vec(n: int, xs: np.ndarray, tail: float) -> np.ndarray:
    """Plain-series second central moments at many points (vectorized)."""
    w, nodes = _mkz_weight_grid(n, xs, tail)
    d = nodes[None, :] - xs[:, None]
    return np.einsum("ij,ij->i", w, d * d)


def _mkz_alpha(spec: OperatorSpec, xs: np.ndarray) -> np.ndarray:
    tail = 0.1 * spec.truncation_eps
    m2 = _mkz_mix(spec.record.shares, lambda share, reflect: _m2_vec(
        spec.n, 1.0 - xs if reflect else xs, tail))
    return m2 / psi(xs)


# ---------------------------------------------------------------------------
# Moments and the contraction profile
# ---------------------------------------------------------------------------

def _shifted_power_coeffs(kpow: int, x: float) -> np.ndarray:
    """(t - x)^kpow expanded in powers of t."""
    out = np.array([math.comb(kpow, j) * (-x) ** (kpow - j)
                    for j in range(kpow + 1)])
    return out


def _bernstein_moment(op: OperatorSpec, k: int, x: float) -> float:
    nodes = np.arange(op.n + 1) / op.n
    row = bernstein_basis_matrix(op.n, np.array([x]))[0]
    return float(row @ (nodes - x) ** k)


def _durrmeyer_moment(op: OperatorSpec, k: int, x: float) -> float:
    coeffs = _shifted_power_coeffs(k, x)
    mono = _durrmeyer_monomial_moments(op.n, op.rho, k)
    interior = mono @ coeffs  # functional values of (t-x)^k, k = 1..n-1
    full = np.concatenate(([(0.0 - x) ** k], interior, [(1.0 - x) ** k]))
    row = bernstein_basis_matrix(op.n, np.array([x]))[0]
    return float(row @ full)


def moment(op: OperatorSpec, k: int, x):
    """Central moment L((e1 - x e0)^k)(x)."""
    if k < 0:
        raise DomainError("moment order must be >= 0")
    if np.ndim(x):
        return np.array([moment(op, k, float(v)) for v in np.asarray(x)])
    return op.record.moment(op, k, float(x))


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

    def alpha(self, x):
        """Piecewise-linear read-back of the profile at interior points."""
        return np.interp(np.asarray(x, dtype=float), self.grid.points,
                         self.alpha_values)


def alpha_profile(op: OperatorSpec, grid: Optional[EvaluationGrid] = None) -> AlphaProfile:
    """Contraction profile on the family-capped grid."""
    grid = op.grid(grid)
    alpha = op.record.alpha(op, grid.points)
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
    """Finite carrier of one operator: nodes, a square transfer matrix that
    advances the family's representation vector by one application, and a
    certified truncation bound.

    rep(f) is the representation of L(f): node samples of f (the default)
    for bernstein and the series families, whose images are determined by
    those values, Beta-functional coefficients for durrmeyer.  apply_rep
    evaluates the image of a representation (one per column) anywhere:

        L^m(f)(x) = apply_rep(transfer^(m-1) @ rep(f), x),  m >= 1.

    The exact carriers apply the Bernstein basis matrix at x; the series
    carriers sum each branch's weights at x against its columns plus the
    routed mass times its endpoint entry, without full-width rows.

    mkz-symmetric keeps its transfer as two parity blocks over the mirror
    pairs (p_k, r_k) = (k/(n+k), n/(n+k)), k = 0..depth.  Row k sits at
    the pair's node in [0, 1/2] (p_k for k <= n, r_k beyond); its even and
    odd inputs are the half sum and half difference of that node's entry
    and its mirror's.  A merged node p_j = r_m (j m = n^2) belongs to the
    pairs j and m, whose columns add up to its column; the midpoint pair
    k = n has odd input 0.

    truncation_error_bound certifies rows at points within the family's
    certified interval; rows at deeper nodes carry larger omitted mass,
    which the endpoint routing converts into an error of order psi(node)
    for weighted-space inputs.
    """

    def __init__(self, spec: OperatorSpec, nodes: np.ndarray,
                 transfer: Optional[np.ndarray], truncation_error_bound: float,
                 apply_rep: Callable, rep_builder=None, parity=None):
        self.spec = spec
        self.nodes = nodes
        self._transfer = transfer
        self.truncation_error_bound = float(truncation_error_bound)
        self._apply_rep = apply_rep  # (rep, 1-D points) -> values
        self._rep_builder = rep_builder
        self._parity = parity  # (low, high, t_even, t_odd), indexed by pair
        self.interior = (nodes > 0.0) & (nodes < 1.0)

    @property
    def transfer(self) -> np.ndarray:
        if self._transfer is None:
            # unfold the parity blocks; columns of T are advances of the
            # unit vectors (used by tests and the small exact carriers)
            self._transfer = self.advance(np.eye(self.nodes.size))
        return self._transfer

    def advance(self, v: np.ndarray) -> np.ndarray:
        """One transfer-matrix application; v may have several columns."""
        if self._parity is None:
            return self._transfer @ v
        low, high, t_even, t_odd = self._parity
        vl, vh = v[low], v[high]
        # (x.T @ t.T).T streams each block once; t @ x with a few columns
        # makes the BLAS pack the whole block first.
        even2 = ((0.5 * (vl + vh)).T @ t_even.T).T
        odd2 = ((0.5 * (vl - vh)).T @ t_odd.T).T
        out = np.empty_like(v)
        out[low] = even2 + odd2
        out[high] = even2 - odd2
        return out

    def rep(self, f: Function01) -> np.ndarray:
        if self._rep_builder is None:
            return np.asarray(f(self.nodes), dtype=float)
        return self._rep_builder(f)

    def apply_rep(self, rep: np.ndarray, xs) -> np.ndarray:
        """The image rep stands for at the points xs, one row per point."""
        return self._apply_rep(rep, np.atleast_1d(np.asarray(xs, dtype=float)))


def _bernstein_disc(spec: OperatorSpec) -> NodeDiscretization:
    n = spec.n
    nodes = np.arange(n + 1) / n
    return NodeDiscretization(spec, nodes, bernstein_basis_matrix(n, nodes), 0.0,
                              lambda rep, xs: bernstein_basis_matrix(n, xs) @ rep)


def _durrmeyer_disc(spec: OperatorSpec) -> NodeDiscretization:
    n, rho = spec.n, spec.rho
    nodes = np.arange(n + 1) / n
    j = np.arange(n + 1)
    log_comb = np.array([log_binomial(n, int(v)) for v in j])
    transfer = np.zeros((n + 1, n + 1))
    transfer[0, 0] = 1.0
    transfer[n, n] = 1.0
    for i in range(1, n):
        a = i * rho
        b = (n - i) * rho
        # F_{n,i}(p_{n,j}) = C(n,j) B(a + j, b + n - j) / B(a, b)
        transfer[i] = np.exp(log_comb + log_beta(a + j, b + n - j) - log_beta(a, b))
    return NodeDiscretization(spec, nodes, transfer, 0.0,
                              lambda rep, xs: bernstein_basis_matrix(n, xs) @ rep,
                              partial(_durrmeyer_coeffs, n, rho))


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


def _mkz_disc(spec: OperatorSpec) -> NodeDiscretization:
    """The carrier of every series family.

    Its nodes are 0, 1 and the nodes of the branches in use: k/(n+k) for
    the plain branch, n/(n+k) for the reflected one.  Each branch adds its
    share-weighted weights to its own columns and routes each row's
    omitted mass to its hard endpoint node (1 plain, 0 reflected): the
    skipped terms sample f next to that endpoint, where weighted-space
    inputs vanish like psi.
    """
    n, fam = spec.n, spec.record
    depth = _mkz_node_depth(spec)
    parity = fam.shares[0] == fam.shares[1]
    k = np.arange(depth + 1)
    used = [(s, reflect) for s, reflect in zip(fam.shares, (False, True)) if s]
    # Collisions p_j = r_m happen exactly when j*m = n^2; both quotients
    # round to the same float, so value-level merging is exact.
    nodes, inv = np.unique(np.concatenate(
        [n / (n + k) if reflect else k / (n + k) for _, reflect in used]
        + [[0.0, 1.0]]), return_inverse=True)
    branch_cols = np.split(inv[: len(used) * (depth + 1)], len(used))
    if not parity:
        # A lone branch owns every column but its endpoint's, ascending
        # (plain) or descending (reflected); a slice reads and writes
        # them several times faster than an index array.
        branch_cols = [slice(depth + 1, 0, -1) if used[0][1] else slice(0, depth + 1)]

    def branches(xs):
        """Per branch in use at the points xs: its share-weighted weights,
        their columns, its endpoint column and each row's routed mass."""
        out = []
        for (share, reflect), cols in zip(used, branch_cols):
            t = 1.0 - xs if reflect else xs
            at_end = t == 1.0
            w = mkz_weight_matrix(n, np.where(at_end, 0.0, t), depth)
            if share != 1.0:
                w *= share
            w[at_end] = 0.0
            mass = np.where(at_end, share, np.maximum(0.0, share - w.sum(axis=1)))
            out.append((w, cols, 0 if reflect else -1, mass))
        return out

    def blocks(xs):
        for start in range(0, xs.size, _ROW_BLOCK):
            sl = slice(start, start + _ROW_BLOCK)
            yield sl, branches(xs[sl])

    def apply_rep(rep, xs):
        out = np.zeros((xs.size,) + rep.shape[1:])
        for sl, parts in blocks(xs):
            for w, cols, end, mass in parts:
                out[sl] += w @ rep[cols] + np.multiply.outer(mass, rep[end])
        return out

    def bound(at, routed):
        lo, hi = spec.certified_interval()
        certified = (at >= lo) & (at <= hi)
        return float(np.max(routed[certified])) if np.any(certified) else 1.0

    if not parity:
        # One pass over all rows: a few large temporaries page-fault far
        # less than a sequence of row blocks.
        ((w, cols, end, routed),) = branches(nodes)
        transfer = np.empty((nodes.size, nodes.size))
        transfer[:, cols] = w
        transfer[:, end] = routed
        return NodeDiscretization(spec, nodes, transfer, bound(nodes, routed),
                                  apply_rep)

    # Parity blocks over the pairs k (see NodeDiscretization): the odd
    # sign flips where the pair's node in [0, 1/2] is r_k, and pair 0,
    # (node 0, node 1), takes the masses routed to those two endpoints.
    p_cols, r_cols = branch_cols
    first = k <= n
    low, high = np.where(first, p_cols, r_cols), np.where(first, r_cols, p_cols)
    sign = np.where(first, 1.0, -1.0)
    t_even, t_odd = np.empty((2, depth + 1, depth + 1))
    routed = np.empty(depth + 1)
    for sl, ((w_p, _, _, m_p), (w_r, _, _, m_r)) in blocks(nodes[low]):
        np.add(w_p, w_r, out=t_even[sl])
        np.subtract(w_p, w_r, out=t_odd[sl])
        t_odd[sl] *= sign
        t_even[sl, 0] += m_r + m_p
        t_odd[sl, 0] += m_r - m_p
        routed[sl] = m_p + m_r
    return NodeDiscretization(spec, nodes, None, bound(nodes[low], routed),
                              apply_rep, parity=(low, high, t_even, t_odd))


def check_carrier_budget(spec: OperatorSpec) -> None:
    """Raise TruncationBudgetError, without building anything, if the
    arrays a series carrier build holds at once exceed _CARRIER_BYTES_CAP:
    two (depth+1)-square parity blocks (equal shares), or an N-square
    transfer, N = depth + 2, next to the N x (depth+1) weights it is
    filled from (one branch).  The exact carriers are (n+1)-square."""
    if not spec.record.series:
        return
    depth = _mkz_node_depth(spec)
    plain, refl = spec.record.shares
    size = 8 * (2 * (depth + 1) ** 2 if plain == refl
                else (depth + 2) * (2 * depth + 3))
    if size > _CARRIER_BYTES_CAP:
        raise TruncationBudgetError(
            f"{spec.family} carrier for n={spec.n} needs {size / 2**30:.1f} "
            f"GiB, above the {_CARRIER_BYTES_CAP / 2**30:.0f} GiB budget")


_DISC_CACHE: dict = {}


def node_discretization(op: OperatorSpec) -> NodeDiscretization:
    """Build (or fetch) the finite carrier for one operator instance."""
    got = _DISC_CACHE.get(op)
    if got is None:
        check_carrier_budget(op)
        got = op.record.carrier(op)
        if len(_DISC_CACHE) > 12:
            _DISC_CACHE.clear()  # the mkz carriers are large; keep few
        _DISC_CACHE[op] = got
    return got


# ---------------------------------------------------------------------------
# Little-o condition report
# ---------------------------------------------------------------------------

def condition_report(family: str, n_list, grid: Optional[EvaluationGrid] = None,
                     rho: Optional[float] = None,
                     truncation_eps: Optional[float] = None):
    """Per-n grid suprema of M^4/M^2, the alpha-oscillation ratio eta, and
    the mixed bound L(psi |alpha - alpha(x)|)(x) / (nu^2 psi(x)).

    Returns a list of dict rows, one per n, each column shrinking toward 0
    along n for the supported families.
    """
    rows = []
    for n in n_list:
        spec = OperatorSpec(family=family, n=n, rho=rho,
                            truncation_eps=truncation_eps)
        fam_grid = spec.grid(grid)
        xs = fam_grid.points
        prof = alpha_profile(spec, grid)
        m2 = np.array([moment(spec, 2, float(v)) for v in xs])
        m4 = np.array([moment(spec, 4, float(v)) for v in xs])
        sup_ratio = float(np.max(m4 / m2))
        rows.append({"n": n, "sup_m4_over_m2": sup_ratio,
                     "eta": prof.eta, "cond55": _cond55_sup(spec, prof, xs)})
    return rows


def _cond55_sup(spec: OperatorSpec, prof: AlphaProfile, xs: np.ndarray) -> float:
    """sup over the grid of L(psi |alpha - alpha(x)|)(x) / (nu^2 psi(x))."""
    if not spec.record.series:
        return 0.0  # alpha is constant: the integrand vanishes
    shares = spec.record.shares
    n = spec.n
    tail = 0.1 * spec.truncation_eps
    memo = {}

    def alpha_at(points: np.ndarray) -> np.ndarray:
        out = np.empty(points.size)
        for i, t in enumerate(points):
            val = memo.get(t)
            if val is None:
                if t == 0.0 or t == 1.0:
                    # alpha extends continuously; endpoint nodes carry no
                    # psi weight in the integrand anyway
                    val = float(prof.alpha_values[0 if t == 0.0 else -1])
                else:
                    m2 = _mkz_mix(shares, lambda share, reflect, t=t:
                                  _mkz_central_moment(n, 2, 1.0 - t if reflect else t,
                                                      tail))
                    val = m2 / psi(t)
                memo[t] = val
            out[i] = val
        return out

    a_x = prof.alpha(xs)
    acc = np.zeros(xs.size)
    for share, reflect in zip(shares, (False, True)):
        if share:
            w, nodes = _mkz_weight_grid(n, 1.0 - xs if reflect else xs, tail)
            if reflect:
                nodes = 1.0 - nodes
            integ = psi(nodes)[None, :] * np.abs(alpha_at(nodes)[None, :] - a_x[:, None])
            acc += share * np.einsum("ij,ij->i", w, integ)
    return float(np.max(acc / (prof.nu ** 2 * psi(xs))))


# ---------------------------------------------------------------------------
# The family table
# ---------------------------------------------------------------------------

# The plain series operator; the reflected and symmetrical members differ
# only in their branch shares (and the symmetrical one in its order range
# and contraction bound).  The plain and reflected operators lose the
# contraction at their hard endpoint, where their second moment over psi
# vanishes, so their bound is 1 and they stay outside the Lambda class.
_MKZ = Family(min_n=1, param="truncation_eps", contraction=lambda s: 1.0,
              apply=_mkz_family_apply, moment=_mkz_moment, alpha=_mkz_alpha,
              carrier=_mkz_disc, shares=(1.0, 0.0), default_eps=1e-6)

_FAMILY_TABLE = {
    "bernstein": Family(
        min_n=1, param=None,
        contraction=lambda s: 1.0 - 1.0 / s.n,
        apply=lambda s, f, x: bernstein_apply(s.n, f, x),
        moment=_bernstein_moment,
        alpha=lambda s, xs: np.full(xs.size, 1.0 / s.n),
        carrier=_bernstein_disc),
    "durrmeyer": Family(
        min_n=2, param="rho",
        contraction=lambda s: 1.0 - (s.rho + 1.0) / (s.n * s.rho + 1.0),
        apply=lambda s, f, x: durrmeyer_apply(s.n, s.rho, f, x),
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
