"""Iterates L^k and the geometric series G_L = sum_k L^k on the weighted
space, through one entry, geometric_series, with three methods:

* "krylov" (default): a restarted GMRES solve of (I - T) on the interior
  node block per input (every member of the contraction class);
* "neumann": truncated Neumann sums sharing one sweep, formed by the
  carrier's sweep_sums and certified by the geometric tail plus the
  step's compression term (see _neumann_sweep); the Krylov oracle; and
* "solve": a direct linear solve of (I - T) on the interior node block
  per input (exact carriers only, i.e. bernstein and durrmeyer).

Whichever path produced g, |g - G f|_psi <= |(I - L) g - f|_psi / (1 - b)
with b = contraction_bound(), since |G|_psi <= 1 / (1 - b).  The Krylov
and solve paths report that residual certificate as their tail bound;
the residual is a sup over the family grid, so it is an estimate from
below of the true sup, like every weighted norm here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DegenerateOperatorError, DomainError, NotInCpsiError
from .funcspace import EvaluationGrid, Function01, psi, psi_norm, psi_sup
from .operators import NodeDiscretization, OperatorSpec, node_discretization

__all__ = [
    "GeometricSeriesResult",
    "iterate_apply",
    "neumann_tail_terms",
    "geometric_series",
    "geometric_series_neumann_batch",
    "geometric_series_solve",
    "check_inversion_identities",
]

_ENDPOINT_TOL = 1e-12
_GMRES_RESTART = 40  # Arnoldi basis vectors per cycle
_GMRES_RTOL = 1e-13  # relative 2-norm residual target on the interior block


@dataclass(frozen=True)
class GeometricSeriesResult:
    """G_L(f) on the node carrier, evaluable anywhere through the
    fixed-point extension g = f + L(g-on-nodes)."""

    g: Function01
    method: str
    terms_used: Optional[int]
    tail_bound: float
    residual_psi_norm: float


def iterate_apply(op: OperatorSpec, k: int, f: Function01, x):
    """L^k(f)(x): identity for k = 0, otherwise one pointwise application
    of L to the representation advanced by k-1 transfer products."""
    if k < 0:
        raise DomainError("iterate order must be >= 0")
    if k == 0:
        return f(x)
    disc = node_discretization(op)
    v = disc.rep(f)
    for _ in range(k - 1):
        v = disc.advance(v)
    out = disc.apply_rep(v, x)
    return out if np.ndim(x) else float(out[0])


def neumann_tail_terms(b_norm: float, f_psi_norm: float, eps: float) -> int:
    """Smallest K with b^(K+1)/(1-b) * |f| <= eps."""
    if not 0.0 < b_norm < 1.0:
        raise DomainError("tail bound needs 0 < b_norm < 1")
    if not (0.0 <= f_psi_norm < math.inf and 0.0 < eps < math.inf):
        raise DomainError("need a finite f_psi_norm >= 0 and a finite eps > 0")
    if f_psi_norm == 0.0:
        return 0

    def bound(k):
        return b_norm ** (k + 1) / (1.0 - b_norm) * f_psi_norm

    guess = math.log(eps * (1.0 - b_norm) / f_psi_norm) / math.log(b_norm) - 1.0
    k = max(0, math.ceil(guess) - 2)
    while bound(k) > eps:
        k += 1
    while k > 0 and bound(k - 1) <= eps:
        k -= 1
    return k


def _series_function(f_eval, disc: NodeDiscretization, acc: np.ndarray) -> Function01:
    def ev(x, base=f_eval, d=disc, r=acc):
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.asarray(base(xs), dtype=float) + d.apply_rep(r, xs)
        return out if np.ndim(x) else out[0]

    return Function01(ev, name="geometric-series")


def _residual_norms(disc: NodeDiscretization, acc: np.ndarray, rep0: np.ndarray,
                    grid: EvaluationGrid) -> list:
    """|(I - L) g - f|_psi per column of acc: off the nodes (I - L) g - f
    is the image of acc - rep0 - T acc, formed for all columns at once."""
    pts = grid.points
    defect = acc - rep0 - disc.advance(acc)
    images = disc.apply_rep(defect, pts).reshape(pts.size, -1)
    return [psi_sup(col, pts) for col in images.T]


def _interior_result(op: OperatorSpec, disc: NodeDiscretization, f: Function01,
                     rep0: np.ndarray, idx: np.ndarray, sol: np.ndarray,
                     grid: EvaluationGrid, method: str,
                     terms_used: Optional[int]) -> GeometricSeriesResult:
    """The series result whose representation is sol on the interior
    nodes idx and zero at the endpoints, certified by
    tail_bound = |(I - L) g - f|_psi / (1 - b)."""
    acc = np.zeros_like(rep0)
    acc[idx] = sol
    (resid,) = _residual_norms(disc, acc, rep0, grid)
    return GeometricSeriesResult(
        g=_series_function(f, disc, acc), method=method, terms_used=terms_used,
        tail_bound=resid / (1.0 - op.contraction_bound()),
        residual_psi_norm=resid)


def _zero_result(method: str) -> GeometricSeriesResult:
    zero = Function01(lambda x: np.zeros_like(np.asarray(x, dtype=float)))
    return GeometricSeriesResult(g=zero, method=method, terms_used=0,
                                 tail_bound=0.0, residual_psi_norm=0.0)


def _neumann_sweep(op: OperatorSpec, disc: NodeDiscretization, f_evals,
                   reps, norms, eps: float, grid: EvaluationGrid) -> list:
    """Truncated Neumann sums sum_{k<=K} L^k(f), one per input, sharing
    one transfer-matrix sweep over the stacked representations reps.

    The carrier's sweep_sums forms the sums under a stand-in step whose
    error is at most delta |v|_psi per step; on the paired mkz-symmetric
    carrier each term is one small matrix product in the coordinates of
    the factored step (NodeDiscretization), elsewhere an exact advance.
    With |T| <= b on the nodes, the K partial sums then drift from the
    exact ones by at most delta |rep f|_nodes / (1 - b - delta)^2, and
    one more application of L scales that by b, so each certificate is

        tail_bound = b^(K+1) / (1 - b) |f|_psi
                     + b delta |rep f|_nodes / (1 - b - delta)^2,

    with |rep f|_nodes the weighted max over the interior nodes.  K is the
    largest term count over the inputs that keeps every tail_bound <= eps;
    a step whose term would take half of eps is replaced by the exact
    advance_sums (delta = 0).  The factors are freed before the
    residuals, which take one exact advance for all the columns.  f_evals
    evaluate the inputs off the nodes and norms are their weighted norms.
    """
    b = op.contraction_bound()
    rep0 = np.column_stack(reps)
    idx = np.flatnonzero(disc.interior)
    rep_norms = np.max(np.abs(rep0[idx]) / psi(disc.nodes[idx])[:, None],
                       axis=0, initial=0.0)
    sums, delta = disc.sweep_sums()
    terms = b * delta / (1.0 - b - delta) ** 2 * rep_norms
    if np.any(terms > 0.5 * eps):
        sums, terms = disc.advance_sums, np.zeros_like(terms)
    k_max = max(neumann_tail_terms(b, v, eps - t) for v, t in zip(norms, terms))
    # acc holds rep(sum_{k<K} L^k f), so g = f + L(acc) sums K + 1 terms
    acc = sums(rep0, k_max)
    del sums
    resids = _residual_norms(disc, acc, rep0, grid)
    return [GeometricSeriesResult(
        g=_series_function(f_eval, disc, acc[:, i].copy()), method="neumann",
        terms_used=k_max + 1,
        tail_bound=b ** (k_max + 1) / (1.0 - b) * norm + float(terms[i]),
        residual_psi_norm=resids[i])
        for i, (f_eval, norm) in enumerate(zip(f_evals, norms))]


def _gmres(matvec, rhs: np.ndarray, max_matvecs: int):
    """Restarted GMRES from x = 0 with modified Gram-Schmidt Arnoldi.

    Stops once the Arnoldi estimate of |rhs - A x|_2 falls to
    _GMRES_RTOL |rhs|_2 or after max_matvecs products; returns
    (x, matvecs used).  Restart residuals come from the Arnoldi relation,
    not from an extra product.
    """
    x = np.zeros_like(rhs)
    r = rhs.copy()
    target = _GMRES_RTOL * np.linalg.norm(rhs)
    used = 0
    while used < max_matvecs:
        beta = np.linalg.norm(r)
        if beta <= target:
            break
        m = min(_GMRES_RESTART, max_matvecs - used)
        q = np.zeros((m + 1, rhs.size))
        h = np.zeros((m + 1, m))
        q[0] = r / beta
        for j in range(m):
            w = matvec(q[j])
            used += 1
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
            if h[j + 1, j] == 0.0 or np.linalg.norm(short) <= target:
                break
        x += q[:j + 1].T @ y
        r = q[:j + 2].T @ short
    return x, used


def _krylov(op: OperatorSpec, disc: NodeDiscretization, fs, reps, norms,
            eps: float, grid: EvaluationGrid) -> list:
    """GMRES on the interior block (I - T_II) x = rep(f)_I per input,
    certified by tail_bound = |(I - L) g - f|_psi / (1 - b).

    terms_used counts carrier applications (advance calls), the
    residual's included.  GMRES gets at most as many products as the
    Neumann sum would need for eps; if its certificate still exceeds eps
    the Neumann result is returned instead, so tail_bound <= eps always.
    """
    b = op.contraction_bound()
    idx = np.flatnonzero(disc.interior)

    def matvec(x):
        # endpoint entries are held at zero: G f vanishes there
        v = np.zeros(disc.nodes.size)
        v[idx] = x
        return x - disc.advance(v)[idx]

    out = []
    for f, rep0, norm in zip(fs, reps, norms):
        sol, used = _gmres(matvec, rep0[idx], neumann_tail_terms(b, norm, eps))
        res = _interior_result(op, disc, f, rep0, idx, sol, grid, "krylov",
                               used + 1)
        if res.tail_bound > eps:
            res = _neumann_sweep(op, disc, [f], [rep0], [norm], eps, grid)[0]
        out.append(res)
    return out


def _solve(op: OperatorSpec, disc: NodeDiscretization, fs, reps, norms,
           eps: float, grid: EvaluationGrid) -> list:
    """Direct inversion of (I - T) on the interior node block.

    Endpoint rows of an exact carrier's T are identities, so they are
    dropped rather than zeroed, and the interior block of I - T is a
    strictly diagonally dominated M-matrix solved by dense LU, once per
    input: a stacked right-hand side does not round like a single one.
    tail_bound is the residual certificate |(I - L) g - f|_psi / (1 - b),
    as for the Krylov path; eps plays no part.
    """
    idx = np.flatnonzero(disc.interior)
    a = np.eye(idx.size) - disc.transfer[np.ix_(idx, idx)]
    out = []
    for f, rep0 in zip(fs, reps):
        try:
            sol = np.linalg.solve(a, rep0[idx])
        except np.linalg.LinAlgError as exc:
            raise DegenerateOperatorError(
                "interior block of I - T is singular; the operator is "
                "outside the contraction class") from exc
        out.append(_interior_result(op, disc, f, rep0, idx, sol, grid,
                                    "solve", None))
    return out


_METHODS = {"krylov": _krylov, "neumann": _neumann_sweep, "solve": _solve}


def _check_request(op: OperatorSpec, fs: Sequence[Function01], eps: float) -> None:
    """Reject a series request outside the theory: eps <= 0, op outside
    the contraction class, or an input with nonzero endpoint values."""
    if not 0.0 < eps < math.inf:
        raise DomainError(f"eps must be finite and positive, got {eps!r}")
    if not op.in_lambda_class:
        raise DegenerateOperatorError(
            f"{op.family} (n={op.n}) has no certified contraction constant "
            "below one; the geometric series is not available")
    for f in fs:
        if abs(float(f(0.0))) > _ENDPOINT_TOL or abs(float(f(1.0))) > _ENDPOINT_TOL:
            raise NotInCpsiError(
                "input has nonzero endpoint values; split off the affine "
                "part with project_to_Cpsi first")


def geometric_series(op: OperatorSpec, fs: Sequence[Function01], eps: float,
                     grid: Optional[EvaluationGrid] = None,
                     method: str = "krylov") -> list:
    """One GeometricSeriesResult G_L(f) per input f in fs, in order, by
    method "krylov", "neumann" or "solve" (see the module docstring).

    Inputs must lie in the weighted space (endpoint values zero), op in
    the contraction class, and "solve" needs an exact carrier.  Krylov and
    Neumann results certify tail_bound <= eps.
    """
    engine = _METHODS.get(method)
    if engine is None:
        raise DomainError(f"unknown series method {method!r}; choose from "
                          f"{tuple(_METHODS)}")
    _check_request(op, fs, eps)
    if method == "solve" and op.record.series:
        raise DomainError("the solve path needs an exact finite carrier "
                          "(bernstein or durrmeyer)")
    fam_grid = op.grid(grid)
    norms = [psi_norm(f, fam_grid) for f in fs]
    live = [i for i, v in enumerate(norms) if v > 0.0]
    out = [_zero_result(method) for _ in fs]  # G 0 = 0, with no carrier work
    if live:
        disc = node_discretization(op)
        done = engine(op, disc, [fs[i] for i in live],
                      [disc.rep(fs[i]) for i in live], [norms[i] for i in live],
                      eps, fam_grid)
        for i, res in zip(live, done):
            out[i] = res
    return out


# The benchmark harness under bench/ still calls these two names; they
# go once it calls geometric_series itself.
def geometric_series_neumann_batch(op, fs, eps, grid=None):
    return geometric_series(op, fs, eps, grid, method="neumann")


def geometric_series_solve(op, f, grid=None):
    return geometric_series(op, [f], 1.0, grid, method="solve")[0]


def check_inversion_identities(op: OperatorSpec, f: Function01, eps: float,
                               grid: Optional[EvaluationGrid] = None):
    """Weighted-norm residuals of the two inversion identities,
    ((I-L) o G_L - I)(f) and (G_L o (I-L) - I)(f), through one two-column
    Neumann sweep over G_L f and G_L h, h = (I - L) f, with one K (the
    larger of the two) and one compressed step; both columns start from
    one representation rep(f)."""
    _check_request(op, [f], eps)
    fam_grid = op.grid(grid)
    pts = fam_grid.points
    disc = node_discretization(op)
    rep0 = disc.rep(f)
    # h = (I - L) f has the same representation algebra in every carrier:
    # rep(h) = rep(f) - T rep(f), and off the nodes h = f + L(-rep(f)).
    h = _series_function(f, disc, -rep0)
    res1, res2 = _neumann_sweep(
        op, disc, [f, h], [rep0, rep0 - disc.advance(rep0)],
        [psi_norm(f, fam_grid), psi_sup(h(pts), pts)], eps, fam_grid)
    second = psi_sup(np.asarray(res2.g(pts)) - np.asarray(f(pts)), pts)
    return res1.residual_psi_norm, second
