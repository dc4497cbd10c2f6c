"""Iterates L^k and the geometric series G_L = sum_k L^k on the weighted
space, through one entry, geometric_series, with three methods:

* "krylov" (the default on bernstein and durrmeyer): one GMRES cycle on
  (I - T) on the interior node block per input (every member of the
  contraction class), split by parity; a miss of eps is answered by
  "solve" (_krylov);
* "neumann": truncated Neumann sums sharing one sweep, summed and
  certified once by the carrier's sweep_sums (_neumann_sweep); the
  oracle; and
* "solve" (the default on mkz-symmetric): a direct solve of (I - T) on
  the interior node block per input, by dense LU on the exact carriers
  and by Woodbury's identity on the factors of the mkz-symmetric stack,
  which it never fills (_solve).

Whichever path produced g, |g - G f|_psi <= |(I - L) g - f|_psi / (1 - b)
with b = contraction_bound(), since |G|_psi <= 1 / (1 - b).  Every result
is certified by one rule, formed in one place (_certify): its tail_bound
is the larger of that residual certificate and, for a truncated Neumann
sum of K + 1 terms, the geometric tail b^(K+1) / (1 - b) |f|_psi.  The
residual is a sup over the family grid, so it is an estimate from below
of the true sup, like every weighted norm here.  Every result also keeps
g at the points of that grid, from the same evaluation of the grid basis
as the residual.

The series is defined on the weighted space only (L fixes affine
functions, whose series diverges).  The entry admits inputs within
_ENDPOINT_TOL of zero at 0 and 1 and projects each once (project_to_Cpsi),
so every engine sees zero endpoint entries and every method solves,
certifies and returns the series of the same input.

Every carrier that reaches the series (bernstein, durrmeyer and
mkz-symmetric: the contraction class) commutes with the reflection
x -> 1 - x, which reverses its interior coordinates: node values for
bernstein and the mkz-symmetric mirror pairs, Bernstein coefficients
c_k <-> c_(n-k) for durrmeyer.  So (I - T) x = b splits into an even and
an odd problem, b = (b + Rb)/2 + (b - Rb)/2, and T maps each half into
itself.  The Krylov path solves the two halves by GMRES in lockstep, as
two full-length rows that keep their parity exactly, one carrier product
of the sum of their Arnoldi vectors per step, split back the same way;
it stops at the first of two stops (_gmres).  The 2-norm stop is the
combined estimate sqrt(r_even^2 + r_odd^2) <= _GMRES_RTOL |b|_2, so it
never takes more products than one GMRES on b would, and each half only
damps its own part of the spectrum.  A half at or below that target (the
odd half of psi, sin_pi, psi sin_pi) is set to zero and gets no basis.
The weighted stop reads the node residual d = r_even + r_odd from the
Arnoldi bases, with no product, and ends the cycle once
max_j |d_j| / psi(x_j) <= (1 - b) eps / 2 over the interior nodes x_j.
Every image kernel of the class is positive with
sum_j row_j(x) psi(x_j) <= psi(x) (L psi <= b psi for bernstein and the
mkz-symmetric rows, B_n psi = (1 - 1/n) psi over durrmeyer's
coefficients), so the residual certificate of _certify is at most that
node sup over (1 - b), and a cycle the weighted stop ends certifies
within eps / 2 up to the rounding of d.

terms_used counts carrier products: for Krylov one per step, plus the
residual's; for a Neumann sum its K + 1 terms; for the solve the passes
over the stack: the certificate's, and on mkz-symmetric a refinement's
certificate, or the unfolding where its stack is not factored (the
factors take none: their rows of the stack come in closed form).  Every
residual takes one exact product that fills no stack
(NodeDiscretization.product): a carrier that holds its stack reads it,
and the mkz-symmetric one that holds none streams it.

Every engine call on the paired mkz-symmetric carrier, and the sweep of
check_inversion_identities there, runs on one BLAS thread
(operators._one_blas_thread), whether or not the carrier holds its
stack: its work is small dense products and factorizations that a
second thread only stalls, and so its bits follow neither the process's
thread count nor whether another thread's scope is open.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .errors import DegenerateOperatorError, DomainError, NotInCpsiError
from .funcspace import (EvaluationGrid, Function01, project_to_Cpsi, psi,
                        psi_norm, psi_sup)
from .operators import (NodeDiscretization, OperatorSpec, _check_order,
                        _one_blas_thread, _points, node_discretization)

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
_GMRES_MAX = 40  # carrier products in the one Arnoldi cycle
_GMRES_RTOL = 1e-13  # relative 2-norm residual target on the interior block


@dataclass(frozen=True)
class GeometricSeriesResult:
    """G_L(f) on the node carrier, evaluable anywhere through the
    fixed-point extension g = f + L(g-on-nodes); grid_values is g at the
    points of the family grid the residual was taken on, equal to
    g(points) bit for bit.  g keeps the carrier's image kernel and its
    coefficients, not the carrier, so a held result pins no stack."""

    g: Function01
    method: str
    terms_used: int
    tail_bound: float
    residual_psi_norm: float
    grid_values: np.ndarray


def iterate_apply(op: OperatorSpec, k: int, f: Function01, x):
    """L^k(f)(x) at a point (a float) or at an array of points (an array):
    identity for k = 0, otherwise one pointwise application of L to the
    representation advanced by k-1 transfer products.  The order and the
    points are checked as moment checks them."""
    _check_order(k, "iterate")
    xs = _points(x)
    if k == 0:
        out = np.asarray(f(xs), dtype=float)
    else:
        disc = node_discretization(op)
        v = disc.rep(f)
        for _ in range(k - 1):
            v = disc.advance(v)
        out = disc.apply_rep(v, xs)
    return out if np.ndim(x) else float(out[0])


def neumann_tail_terms(b_norm: float, f_psi_norm: float, eps: float) -> int:
    """Smallest K with b^(K+1)/(1-b) * |f| <= eps."""
    if not 0.0 < b_norm < 1.0:
        raise DomainError("tail bound needs 0 < b_norm < 1")
    if not (0.0 <= f_psi_norm < math.inf and 0.0 < eps < math.inf):
        raise DomainError("need a finite f_psi_norm >= 0 and a finite eps > 0")

    def bound(k):
        return b_norm ** (k + 1) / (1.0 - b_norm) * f_psi_norm

    if bound(0) <= eps:  # also where eps (1-b) / |f| would overflow
        return 0
    ratio = eps * (1.0 - b_norm) / f_psi_norm
    if ratio < np.finfo(float).tiny:  # subnormal b^(K+1): K could fall short
        raise DomainError("eps * (1 - b_norm) / f_psi_norm underflows the "
                          "normal float range")
    guess = math.log(ratio) / math.log(b_norm) - 1.0
    k = max(0, math.ceil(guess) - 2)
    while bound(k) > eps:
        k += 1
    while k > 0 and bound(k - 1) <= eps:
        k -= 1
    return k


def _series_function(f_eval, disc: NodeDiscretization, acc: np.ndarray) -> Function01:
    """f_eval + L(acc): apply_rep of acc, from the carrier's image kernel
    alone, so the function keeps no stack alive."""
    def ev(x, base=f_eval, images=disc._images, r=acc):
        xs = _points(x)
        out = np.asarray(base(xs), dtype=float) + images([r], xs)[0]
        return out if np.ndim(x) else out[0]

    return Function01(ev, name="geometric-series")


def _defect(disc: NodeDiscretization, acc: np.ndarray, rep0: np.ndarray) -> np.ndarray:
    """acc - rep0 - T acc, the defect of (I - T) acc = rep0 on the nodes,
    by one exact product that fills no stack (NodeDiscretization.product:
    the held stack, or one streamed pass with none held)."""
    return acc - rep0 - disc.product(acc)


def _residual_norms(disc: NodeDiscretization, defect: np.ndarray,
                    grid: EvaluationGrid, accs: Sequence[np.ndarray]):
    """(norms, images): |(I - L) g - f|_psi per column of the defect, and
    the images L(acc_i) at the grid points of accs, the columns of acc one
    by one, each taken on its own as g(points) takes it, from the same
    evaluation of the grid basis.  Off the nodes (I - L) g - f is the
    image of the defect acc - rep0 - T acc (_defect)."""
    pts = grid.points
    images, *parts = disc.apply_reps([defect, *accs], pts)
    norms = [psi_sup(col, pts) for col in images.reshape(pts.size, -1).T]
    return norms, parts


def _certify(op: OperatorSpec, disc: NodeDiscretization, f_evals,
             rep0: np.ndarray, acc: np.ndarray, grid: EvaluationGrid,
             method: str, terms_used: int, tails=None, defect=None) -> list:
    """One result g_i = f_i + L(acc_i) per column of acc, rep0 holding the
    inputs' representations as columns, each certified by the rule every
    series result here follows:

        tail_bound = max(tails_i, |(I - L) g_i - f_i|_psi / (1 - b)),

    with tails_i the a-priori Neumann tail of a truncated sum and zero
    where tails is None (krylov, solve).  One exact product serves the
    residuals of all the columns (_defect), unless the caller has formed
    the defect already."""
    b = op.contraction_bound()
    accs = [col.copy() for col in acc.T]
    if defect is None:
        defect = _defect(disc, acc, rep0)
    resids, images = _residual_norms(disc, defect, grid, accs)
    return [GeometricSeriesResult(
        g=_series_function(f_eval, disc, col), method=method,
        terms_used=terms_used, tail_bound=max(tail, resid / (1.0 - b)),
        residual_psi_norm=resid,
        grid_values=np.asarray(f_eval(grid.points), dtype=float) + image)
        for f_eval, col, tail, resid, image
        in zip(f_evals, accs, tails or [0.0] * len(accs), resids, images)]


def _zero_result(method: str, grid: EvaluationGrid) -> GeometricSeriesResult:
    zero = Function01(lambda x: np.zeros_like(np.asarray(x, dtype=float)))
    return GeometricSeriesResult(g=zero, method=method, terms_used=0,
                                 tail_bound=0.0, residual_psi_norm=0.0,
                                 grid_values=np.zeros(grid.points.size))


def _neumann_sweep(op: OperatorSpec, disc: NodeDiscretization, f_evals,
                   reps, norms, eps: float, grid: EvaluationGrid) -> list:
    """Truncated Neumann sums sum_{k<=K} L^k(f), one per input, sharing
    one transfer-matrix sweep over the stacked representations reps.

    K is the smallest term count whose a-priori tail
    b^(K+1) / (1 - b) |f|_psi meets eps for every input.  The carrier's
    sweep_sums forms the sums once: on the paired mkz-symmetric carrier
    each term is one small matrix product in the coordinates of its
    factored step (NodeDiscretization), elsewhere an exact advance.  Each
    sum is certified once by _certify, the larger of that tail and the
    residual certificate, which is reported even above eps (a coarse
    factored step, or a sum near its rounding).  f_evals evaluate the
    inputs off the nodes and norms are their weighted norms.
    """
    b = op.contraction_bound()
    rep0 = np.column_stack(reps)
    k_max = max(neumann_tail_terms(b, v, eps) for v in norms)
    tails = [b ** (k_max + 1) / (1.0 - b) * norm for norm in norms]
    # acc holds rep(sum_{k<K} L^k f), so g = f + L(acc) sums K + 1 terms
    acc = disc.sweep_sums(rep0, k_max)
    return _certify(op, disc, f_evals, rep0, acc, grid, "neumann", k_max + 1,
                    tails)


def _arnoldi_residual(bases, shorts) -> np.ndarray:
    """sum_k Q_k s_k: the residual sum_k (rhs_k - A x_k) of the rows in
    lockstep, from each row's basis Q_k and its short residual
    s_k = beta_k e_1 - H_k y_k, with no product (Saad, Iterative Methods
    for Sparse Linear Systems, 2nd ed., 6.5)."""
    d = 0.0
    for q, s in zip(bases, shorts):
        for qi, si in zip(q, s):
            d = d + si * qi
    return d


def _gmres(matvec, rhs: np.ndarray, max_matvecs: int, psis: np.ndarray,
           threshold: float):
    """One GMRES cycle from x = 0 with modified Gram-Schmidt Arnoldi, for
    the rows of rhs in lockstep: matvec maps a block of rows v (one per
    row of rhs) to the block of their products A v_k at the cost of one
    carrier product, and row k solves A x_k = rhs[k].

    Each row grows its own Arnoldi basis by one vector per product; a row
    whose basis breaks down (its Krylov space is invariant, so its
    estimate is exact) stops growing and is fed zeros.  The rows stop
    together after max_matvecs products (there is no restart), or at the
    first of two stops:

    * the 2-norm stop: the combined Arnoldi estimate
      sqrt(sum_k |rhs_k - A x_k|_2^2) falls to _GMRES_RTOL |rhs|_2;
    * the weighted stop: the residual d = sum_k (rhs_k - A x_k), formed
      from the bases (_arnoldi_residual), meets
      max_j |d_j| / psis_j <= threshold.  As psis <= 1/4, that sup is at
      least 4 |d|_2 / sqrt(size), and the rows are orthogonal, so d is
      only formed once 4 sqrt(sum_k |rhs_k - A x_k|_2^2) / sqrt(size)
      meets threshold; threshold 0 leaves the 2-norm stop alone.

    Each x_k is the running sum of y_i q_i over its basis, entry by
    entry, so it keeps any mirror symmetry the rows of rhs and the
    products have.  Returns (x, matvecs used).
    """
    betas = [np.linalg.norm(rk) for rk in rhs]
    target = _GMRES_RTOL * math.hypot(*betas)
    gate = threshold * math.sqrt(rhs.shape[1]) / 4.0
    bases = [[rk / beta] if beta > 0.0 else [] for rk, beta in zip(rhs, betas)]
    h = np.zeros((len(rhs), max_matvecs + 1, max_matvecs))
    ys = [np.zeros(0) for _ in rhs]
    shorts = [np.array([beta]) for beta in betas]
    used = 0
    for j in range(max_matvecs if any(bases) else 0):
        w = matvec(np.array([q[j] if len(q) > j else np.zeros(rk.size)
                             for q, rk in zip(bases, rhs)]))
        used += 1
        for k, (q, hk, wk) in enumerate(zip(bases, h, w)):
            if len(q) <= j:
                continue
            for i in range(j + 1):
                hk[i, j] = q[i] @ wk
                wk -= hk[i, j] * q[i]
            hk[j + 1, j] = np.linalg.norm(wk)
            if hk[j + 1, j] > 0.0:
                q.append(wk / hk[j + 1, j])
            e1 = np.zeros(j + 2)
            e1[0] = betas[k]
            ys[k] = np.linalg.lstsq(hk[:j + 2, :j + 1], e1, rcond=None)[0]
            shorts[k] = e1 - hk[:j + 2, :j + 1] @ ys[k]
        est = math.hypot(*map(np.linalg.norm, shorts))
        if all(len(q) <= j + 1 for q in bases) or est <= target or (
                est <= gate and np.max(np.abs(
                    _arnoldi_residual(bases, shorts)) / psis) <= threshold):
            break
    x = np.zeros_like(rhs)
    for xk, q, yk in zip(x, bases, ys):
        for qi, yi in zip(q, yk):
            xk += yi * qi
    return x, used


def _halves(t: np.ndarray) -> np.ndarray:
    """The even and odd halves (t + Rt)/2 and (t - Rt)/2 of t under its
    reversal R, as the two rows of a (2, size) array, whose sum is t to
    rounding.  Mirror entries are formed by the same operations, so the
    rows are even and odd bit for bit (an odd size's middle odd entry is
    0)."""
    return np.array([t + t[::-1], t - t[::-1]]) / 2.0


def _krylov(op: OperatorSpec, disc: NodeDiscretization, fs, reps, norms,
            eps: float, grid: EvaluationGrid) -> list:
    """GMRES on the interior block (I - T_II) x = rep(f)_I per input,
    certified by _certify with no a-priori tail:
    tail_bound = |(I - L) g - f|_psi / (1 - b).

    The even and odd halves of the right-hand side (module docstring),
    the two rows of _halves, are solved by _gmres in lockstep, and the
    solution is the sum of the rows; a half at or below the stopping
    target is set to zero, so its row gets no basis.

    terms_used counts carrier applications (advance calls): one per
    GMRES step, the residual's included, whichever stop ends the cycle.
    GMRES runs one cycle of at most _GMRES_MAX products, and no more than
    the Neumann sum would need for eps; both cycles get psi at the
    interior nodes and the weighted stop's target (1 - b) eps / 2.  If
    its certificate still exceeds eps (a 2-norm stop or the product cap
    can end short of a weighted eps), the input's _solve result is
    returned instead.
    """
    b = op.contraction_bound()
    idx = np.flatnonzero(disc.interior)
    stop = (psi(disc.nodes[idx]), (1.0 - b) * eps / 2.0)

    def matvec(u):
        # endpoint entries are held at zero: G f vanishes there
        v = np.zeros(disc.nodes.size)
        v[idx] = u.sum(axis=0)
        return u - _halves(disc.advance(v)[idx])

    def certified(f, rep0, sol, products):
        acc = np.zeros((rep0.size, 1))
        acc[idx, 0] = sol.sum(axis=0)
        return _certify(op, disc, [f], rep0[:, None], acc, grid, "krylov",
                        products + 1)[0]

    out = []
    for f, rep0, norm in zip(fs, reps, norms):
        halves = _halves(rep0[idx])
        sizes = np.linalg.norm(halves, axis=1)
        halves[sizes <= _GMRES_RTOL * math.hypot(*sizes)] = 0.0
        budget = min(_GMRES_MAX, neumann_tail_terms(b, norm, eps))
        sol, used = _gmres(matvec, halves, budget, *stop)
        res = certified(f, rep0, sol, used)
        if res.tail_bound > eps:
            (res,) = _solve(op, disc, [f], [rep0], [norm], eps, grid)
        out.append(res)
    return out


def _solve(op: OperatorSpec, disc: NodeDiscretization, fs, reps, norms,
           eps: float, grid: EvaluationGrid) -> list:
    """Direct inversion of (I - T) on the interior node block, one input
    at a time (a stacked right-hand side does not round like a single
    one), so a result alone is the same result in a batch, bit for bit.

    Endpoint rows of an exact carrier's T are identities, so they are
    dropped rather than zeroed, and the interior block of I - T is a
    strictly diagonally dominated M-matrix solved by dense LU.  terms_used
    is 1, the residual's carrier product.

    mkz-symmetric takes the factored step S = expand o lift of its stack
    (NodeDiscretization.factored_step) and Woodbury's identity,

        (I - S)^-1 v = v + expand(lift(v) (I - H)^-1),  H = lift o expand,

    one small 2a-square solve per input; v has zero endpoint entries, and
    so has the result.  Its certificate is refined at most once: above
    eps / 2 (the Krylov target), the defect d that _certify reads is
    solved the same way, acc - (I - S)^-1 d is certified in turn, and the
    result with the smaller certificate stands.  Where the stack is not
    factored (a sample past a quarter of its width: small carriers), the
    interior block is unfolded by one product of the unit vectors and
    solved by dense LU, as an exact carrier's.  No path fills the stack:
    the factors read none of it (their rows of it come in closed form),
    every product reads the held stack or streams it, and terms_used
    counts those passes: the unfolding, if any, then each certificate,
    so 1 for a factored solve (2 refined).  tail_bound is the residual
    certificate of _certify, as for the Krylov path.
    """
    idx = np.flatnonzero(disc.interior)
    step = disc.factored_step() if op.record.series else None
    if step is not None:
        y, z, h = step
        a, passes = 0.0 - h.T, 1  # the certificate
    elif op.record.series:  # T on the interior nodes, by one streamed pass
        a, passes = 0.0 - disc.product(np.eye(disc.nodes.size)[:, idx])[idx], 2
    else:
        a, passes = 0.0 - disc.transfer[np.ix_(idx, idx)], 1
    a.flat[::a.shape[0] + 1] += 1.0  # np.eye - T (or H^T), bit for bit

    def inverse(v):
        # (I - T)^-1 v on the interior block, or (I - S)^-1 v
        try:
            if step is None:
                acc = np.zeros_like(v)
                acc[idx] = np.linalg.solve(a, v[idx])
                return acc
            return v + disc._expand(np.linalg.solve(a, disc._lift(v, y).T).T, z)
        except np.linalg.LinAlgError as exc:
            raise DegenerateOperatorError(
                "interior block of I - T is singular; the operator is "
                "outside the contraction class") from exc

    out = []
    for f, rep0 in zip(fs, reps):
        rep0 = rep0[:, None]
        acc = inverse(rep0)
        defect = _defect(disc, acc, rep0)
        (res,) = _certify(op, disc, [f], rep0, acc, grid, "solve", passes,
                          defect=defect)
        if step is not None and res.tail_bound > eps / 2.0:
            fixed = acc - inverse(defect)
            (again,) = _certify(op, disc, [f], rep0, fixed, grid, "solve",
                                passes + 1)
            res = again if again.tail_bound <= res.tail_bound else replace(
                res, terms_used=again.terms_used)
        out.append(res)
    return out


_METHODS = {"krylov": _krylov, "neumann": _neumann_sweep, "solve": _solve}


def _check_request(op: OperatorSpec, fs: Sequence[Function01], eps: float) -> None:
    """Reject a series request outside the theory: eps <= 0, op outside
    the contraction class, or an input with an endpoint value above
    _ENDPOINT_TOL."""
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
                     method: Optional[str] = None) -> list:
    """One GeometricSeriesResult G_L(f) per input f in fs, in order, by
    method "krylov", "neumann" or "solve" (see the module docstring); by
    default "solve" on mkz-symmetric, whose stack it then never fills, and
    "krylov" on the exact families.

    Inputs must lie in the weighted space up to _ENDPOINT_TOL at the
    endpoints, and op in the contraction class.  Every result is that of
    project_to_Cpsi(f), whose values are f's, bit for bit, if f is exactly
    0 at 0 and 1.  Every result reports its certificate even above eps:
    a solve is as accurate as its rounding allows, whatever eps (eps only
    decides whether an mkz-symmetric solve is refined), and a Krylov or
    Neumann result near rounding, or a Neumann sum with a coarse factored
    step, can miss it.
    """
    if method is None:
        method = "solve" if op.record.series else "krylov"
    engine = _METHODS.get(method)
    if engine is None:
        raise DomainError(f"unknown series method {method!r}; choose from "
                          f"{tuple(_METHODS)}")
    _check_request(op, fs, eps)
    fs = [project_to_Cpsi(f) for f in fs]
    fam_grid = op.grid(grid)
    norms = [psi_norm(f, fam_grid) for f in fs]
    live = [i for i, v in enumerate(norms) if v > 0.0]
    out = [_zero_result(method, fam_grid) for _ in fs]  # G 0 = 0, no carrier work
    if live:
        disc = node_discretization(op)
        with _one_blas_thread(disc._pairs is not None):
            done = engine(op, disc, [fs[i] for i in live],
                          [disc.rep(fs[i]) for i in live],
                          [norms[i] for i in live], eps, fam_grid)
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
    one representation rep(f) of the projected input (geometric_series)."""
    _check_request(op, [f], eps)
    f = project_to_Cpsi(f)
    fam_grid = op.grid(grid)
    pts = fam_grid.points
    disc = node_discretization(op)
    rep0 = disc.rep(f)
    # h = (I - L) f has the same representation algebra in every carrier:
    # rep(h) = rep(f) - T rep(f), and off the nodes h = f + L(-rep(f)).
    h = _series_function(f, disc, -rep0)
    with _one_blas_thread(disc._pairs is not None):
        res1, res2 = _neumann_sweep(
            op, disc, [f, h], [rep0, rep0 - disc.advance(rep0)],
            [psi_norm(f, fam_grid), psi_sup(h(pts), pts)], eps, fam_grid)
    second = psi_sup(res2.grid_values - np.asarray(f(pts)), pts)
    return res1.residual_psi_norm, second
