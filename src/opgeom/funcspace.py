"""Function-space substrate: evaluable functions on [0,1], the weight
psi(x) = x(1-x), the weighted sup norm, endpoint interpolation, and the
kernel transform that inverts -d^2/dx^2 with vanishing endpoint values.

Function01 values are immutable after construction, and a kernel transform
holds only the cumulative integrals it computes when it is built: no
evaluation writes to it, so everything here is safe for concurrent reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import DomainError, QuadratureError

__all__ = [
    "psi",
    "Function01",
    "registry",
    "EvaluationGrid",
    "default_grid",
    "psi_sup",
    "psi_norm",
    "project_to_Cpsi",
    "F_transform",
]


def psi(x):
    """The weight x(1-x), maximal value 1/4 at the midpoint."""
    x = np.asarray(x, dtype=float)
    out = x * (1.0 - x)
    return out if out.ndim else float(out)


class Function01:
    """An evaluable real function on [0, 1].

    poly_coeffs (low-to-high powers) are carried through arithmetic when
    both operands are polynomial, which lets operator code use exact
    monomial moments instead of quadrature.
    """

    __slots__ = ("name", "_eval", "_d2", "poly_coeffs", "quad_error_bound")

    def __init__(self, eval_fn, name=None, d2=None, poly_coeffs=None):
        self._eval = eval_fn
        self.name = name
        self._d2 = d2
        self.poly_coeffs = None if poly_coeffs is None else tuple(float(c) for c in poly_coeffs)
        self.quad_error_bound = None

    # -- construction -----------------------------------------------------

    @classmethod
    def polynomial(cls, coeffs, name=None):
        coeffs = tuple(float(c) for c in coeffs)

        def ev(x):
            return np.polynomial.polynomial.polyval(np.asarray(x, dtype=float), coeffs)

        obj = cls(ev, name=name, poly_coeffs=coeffs)
        if len(coeffs) <= 2:
            obj._d2 = _ZERO
        else:
            obj._d2 = cls.polynomial(_poly_deriv(coeffs, 2))
        return obj

    # -- evaluation --------------------------------------------------------

    def __call__(self, x):
        out = np.asarray(self._eval(np.asarray(x, dtype=float)), dtype=float)
        return out if out.ndim else float(out)

    def second_derivative(self) -> Optional["Function01"]:
        return self._d2

    # -- arithmetic (closed under poly tracking) ----------------------------

    def __add__(self, other: "Function01") -> "Function01":
        pc = None
        if self.poly_coeffs is not None and other.poly_coeffs is not None:
            pc = tuple(np.polynomial.polynomial.polyadd(self.poly_coeffs, other.poly_coeffs))
        d2 = None
        if self._d2 is not None and other._d2 is not None:
            d2 = self._d2 + other._d2
        out = Function01(lambda x, a=self, b=other: a._eval(x) + b._eval(x),
                         poly_coeffs=pc)
        out._d2 = d2
        return out

    def __neg__(self) -> "Function01":
        return self.scaled(-1.0)

    def __sub__(self, other: "Function01") -> "Function01":
        return self + other.scaled(-1.0)

    def scaled(self, c: float) -> "Function01":
        pc = None if self.poly_coeffs is None else tuple(c * v for v in self.poly_coeffs)
        d2 = None if self._d2 is None else self._d2.scaled(c)
        out = Function01(lambda x, a=self, cc=c: cc * a._eval(x), poly_coeffs=pc)
        out._d2 = d2
        return out

    def __mul__(self, other: "Function01") -> "Function01":
        pc = None
        if self.poly_coeffs is not None and other.poly_coeffs is not None:
            pc = tuple(np.polynomial.polynomial.polymul(self.poly_coeffs, other.poly_coeffs))
        return Function01(lambda x, a=self, b=other: a._eval(x) * b._eval(x),
                          poly_coeffs=pc)

    def reflected(self) -> "Function01":
        """Composition with tau(x) = 1 - x."""
        pc = None
        if self.poly_coeffs is not None:
            p = np.polynomial.Polynomial(self.poly_coeffs)
            pc = tuple(p(np.polynomial.Polynomial([1.0, -1.0])).coef)
        return Function01(lambda x, a=self: a._eval(1.0 - np.asarray(x, dtype=float)),
                          poly_coeffs=pc)

    def __repr__(self):
        return f"Function01({self.name or 'unnamed'})"


def _poly_deriv(coeffs, order):
    c = np.polynomial.polynomial.polyder(coeffs, order)
    return tuple(float(v) for v in np.atleast_1d(c))


def _zeros(x):
    return np.zeros_like(np.asarray(x, dtype=float))


# the second derivative of every polynomial of degree <= 1, two levels deep
# so that derivative chains end without a cycle
_ZERO = Function01(_zeros, name="zero", poly_coeffs=(0.0,),
                   d2=Function01(_zeros, name="zero", poly_coeffs=(0.0,)))


def _osc_eval(x):
    x = np.asarray(x, dtype=float)
    w = x * (1.0 - x)
    with np.errstate(divide="ignore"):
        inner = np.where(w > 0.0, 1.0 / np.where(w > 0.0, w, 1.0), 0.0)
    return np.where(w > 0.0, np.sin(inner), 0.0)


def _build_registry():
    reg = {}
    for j in range(5):
        coeffs = (0.0,) * j + (1.0,)
        reg[f"e{j}"] = Function01.polynomial(coeffs, name=f"e{j}")
    reg["psi"] = Function01.polynomial((0.0, 1.0, -1.0), name="psi")
    sin_pi = Function01(
        lambda x: np.sin(math.pi * np.asarray(x, dtype=float)),
        name="sin_pi")
    sin_pi._d2 = Function01(
        lambda x: -math.pi ** 2 * np.sin(math.pi * np.asarray(x, dtype=float)),
        name="sin_pi''")
    reg["sin_pi"] = sin_pi
    expf = Function01(
        lambda x: np.exp(np.asarray(x, dtype=float)), name="exp")
    expf._d2 = Function01(
        lambda x: np.exp(np.asarray(x, dtype=float)), name="exp''")
    reg["exp"] = expf
    reg["abs_half"] = Function01(
        lambda x: np.abs(np.asarray(x, dtype=float) - 0.5),
        name="abs_half")
    reg["osc"] = Function01(_osc_eval, name="osc")
    return reg


_REGISTRY = _build_registry()


def registry(name: str) -> Function01:
    """Look up a named test function; an unknown name raises a KeyError
    that lists the set."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown registry function {name!r}; "
                       f"choose from {sorted(_REGISTRY)}") from None


# ---------------------------------------------------------------------------
# Grids and the weighted norm
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EvaluationGrid:
    """Strictly interior evaluation points for sup-norm estimates.

    Endpoints are excluded by construction: the weighted norm divides by
    psi, which vanishes there.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.size < 3:
            raise DomainError("grid needs at least 3 points")
        if pts[0] <= 0.0 or pts[-1] >= 1.0 or np.any(np.diff(pts) <= 0.0):
            raise DomainError("grid points must be strictly increasing inside (0, 1)")
        object.__setattr__(self, "points", pts)

    @classmethod
    def chebyshev_interior(cls, count: int) -> "EvaluationGrid":
        i = np.arange(count)
        pts = np.sin(math.pi * (2 * i + 1) / (4.0 * count)) ** 2
        return cls(points=pts)

    def restricted(self, lo: float, hi: float) -> "EvaluationGrid":
        mask = (self.points >= lo) & (self.points <= hi)
        return EvaluationGrid(points=self.points[mask])


@lru_cache(maxsize=8)
def _default_grid_cached(count: int) -> EvaluationGrid:
    return EvaluationGrid.chebyshev_interior(count)


def default_grid(count: int = 1001) -> EvaluationGrid:
    return _default_grid_cached(count)


def psi_sup(values, points) -> float:
    """max |values| / psi(points): the weighted sup of samples at interior
    points (inf or nan if a ratio overflows)."""
    with np.errstate(over="ignore"):
        return float(np.max(np.abs(values) / psi(points)))


def psi_norm(f: Function01, grid: Optional[EvaluationGrid] = None) -> float:
    """The grid maximum of |f|/psi over interior points: an estimate from
    below of the weighted sup norm of f."""
    x = (grid or default_grid()).points
    value = psi_sup(f(x), x)
    if not math.isfinite(value):
        raise OverflowError("|f|/psi exceeds the representable range; "
                            "f is numerically outside the weighted space")
    return value


def project_to_Cpsi(f: Function01) -> Function01:
    """f minus its endpoint interpolation; vanishes at 0 and 1 exactly."""
    f0 = float(f(0.0))
    f1 = float(f(1.0))

    def ev(x, base=f, a=f0, b=f1):
        x = np.asarray(x, dtype=float)
        return base._eval(x) - ((1.0 - x) * a + x * b)

    pc = None
    if f.poly_coeffs is not None:
        pc = tuple(np.polynomial.polynomial.polysub(f.poly_coeffs, (f0, f1 - f0)))
    out = Function01(ev, poly_coeffs=pc)
    out._d2 = f._d2
    return out


# ---------------------------------------------------------------------------
# The kernel transform  (1-x) int_0^x t f + x int_x^1 (1-t) f
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_PANEL_CAP = 1024  # panels per interval at which refinement stalls
_PANEL_CELLS = 2**18  # integrand samples per call of the integrand
_STALL_BUDGET = 1e-3  # largest accumulated stall bound a transform accepts


def _panel_integrals(h, lo, hi):
    """Integrals of a vector-valued integrand over the intervals
    [lo[i], hi[i]] (at least one): h maps points t to an array of shape
    (components, t.size).  Returns the integrals, shape (components,
    intervals), and one error bound per interval.

    Each interval is split into 1, 2, 4, ... equal panels, each with the
    16-point Gauss-Legendre rule; at every level the open intervals are
    sampled together, one call of h per block of at most _PANEL_CELLS
    points.  With the amplitude the largest |h| sampled so far, an
    interval settles once two levels agree to 1e-14 of the larger of its
    integrals and amplitude * (hi - lo), and its bound is that difference.
    At _PANEL_CAP panels it stalls with the bound min(difference,
    amplitude * (hi - lo)): the unresolved mass of a bounded integrand
    that oscillates toward an endpoint shrinks with the widths there.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    width, err = hi - lo, np.zeros(lo.size)
    open_, prev, panels, amp = np.arange(lo.size), None, 1, 0.0
    while open_.size:
        step, parts = max(1, _PANEL_CELLS // (panels * _GL_NODES.size)), []
        for start in range(0, open_.size, step):
            idx = open_[start:start + step]
            # panel edges placed as np.linspace(lo, hi, panels + 1) does
            edges = lo[idx, None] + np.arange(panels + 1) * (width[idx, None] / panels)
            edges[:, -1] = hi[idx]
            half = 0.5 * (edges[:, 1:] - edges[:, :-1])[:, :, None]
            t = (0.5 * (edges[:, 1:] + edges[:, :-1])[:, :, None]
                 + half * _GL_NODES).reshape(idx.size, -1)
            hv = np.asarray(h(t.ravel()), dtype=float).reshape(-1, *t.shape)
            parts.append(np.sum(hv * (half * _GL_WEIGHTS).reshape(t.shape), axis=2))
            amp = max(amp, float(np.max(np.abs(hv))))
        cur = np.concatenate(parts, axis=1)
        if prev is None:
            out = np.zeros((cur.shape[0], lo.size))
        else:
            delta, mass = np.max(np.abs(cur - prev), axis=0), amp * width[open_]
            settled = delta <= 1e-14 * np.maximum(np.max(np.abs(cur), axis=0), mass)
            done = settled | (panels >= _PANEL_CAP)
            err[open_[done]] = np.where(settled, delta, np.minimum(delta, mass))[done]
            out[:, open_[done]] = cur[:, done]
            open_, cur = open_[~done], cur[:, ~done]
        prev, panels = cur, 2 * panels
    return out, err


def F_transform(f: Function01,
                grid: Optional[EvaluationGrid] = None) -> Function01:
    """Kernel transform of f, with its integrals anchored at 0, the grid
    points and 1.

    The result vanishes at both endpoints and its second derivative equals
    -f on (0, 1).  All integrals come from the batched panel rule
    _panel_integrals: the grid segments in one call when the transform is
    built, summed from 0 for t*f and from 1 for (1-t)*f (so neither sum
    is a difference of nearly equal totals), and the partial segments of
    an evaluation's off-grid points in one more.  An anchor reads the
    sums, so F(0) == F(1) == 0.0 exactly.  Quadrature error is below
    1e-10 for f with a bounded second derivative; for bounded f that
    oscillates near the endpoints, the summed segment bounds are checked
    against _STALL_BUDGET (a QuadratureError above it) and stored on the
    result as quad_error_bound.
    """
    anchors = np.concatenate(([0.0], (grid or default_grid()).points, [1.0]))

    def h(t):
        ft = np.asarray(f(t), dtype=float)
        return np.stack((t * ft, (1.0 - t) * ft))

    (seg_a, seg_b), err = _panel_integrals(h, anchors[:-1], anchors[1:])
    bound = float(np.sum(err))
    if bound > _STALL_BUDGET:
        raise QuadratureError(f"panel refinement stalled: residual bound {bound:.3e} "
                              f"exceeds budget {_STALL_BUDGET:.3e}")
    # head_a[i] = int_0^anchor_i t f ; tail_b[i] = int_anchor_i^1 (1-t) f
    head_a = np.concatenate(([0.0], np.cumsum(seg_a)))
    tail_b = np.concatenate((np.cumsum(seg_b[::-1])[::-1], [0.0]))

    def ev(x):
        flat = x.ravel()
        j = np.clip(np.searchsorted(anchors, flat, side="right") - 1, 0, anchors.size - 1)
        ax, bx = head_a[j], tail_b[j]
        off = flat != anchors[j]
        if off.any():
            xo, jo = flat[off], np.minimum(j[off], anchors.size - 2)
            ints, _ = _panel_integrals(h, np.concatenate((anchors[jo], xo)),
                                       np.concatenate((xo, anchors[jo + 1])))
            ax[off] = head_a[jo] + ints[0, :xo.size]
            bx[off] = tail_b[jo + 1] + ints[1, xo.size:]
        return ((1.0 - flat) * ax + flat * bx).reshape(x.shape)

    out = Function01(ev)
    out.quad_error_bound = bound
    return out

