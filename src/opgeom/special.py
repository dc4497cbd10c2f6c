"""Numerically stable special functions behind the operator weights.

Everything here is pure and stateless; all functions accept scalars or
numpy arrays and may be called concurrently.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "bernstein_values",
    "mkz_weight_matrix",
]

_SLAB = 32  # coefficient indices per slab of bernstein_values
_POW_SPAN = 1022  # largest power of a number >= 1/2 that is always normal


def bernstein_values(n: int, coeffs, xs: np.ndarray, per_point: bool = False) -> list:
    """The Bernstein-form values sum_k c[k] p_{n,k}(x) of each coefficient
    array c of coeffs at the points xs in [0, 1], with
    p_{n,k}(x) = C(n,k) x^k (1-x)^(n-k): the one evaluator of every
    exact-family image, pointwise value and moment, run the same way at
    every n.

    c has n + 1 rows.  Row k is shared by every point and may have
    columns, which the values then have too; or, with per_point, c is
    (n+1) x xs.size and its column i holds the coefficients of xs[i].

    Each point is taken as y = min(x, 1-x), its coefficients read
    backwards where x > 1/2, and the sum runs forward over k in slabs of
    _SLAB indices: the nested form of Schumaker and Volk (Comput. Aided
    Geom. Design 3 (1986)) taken a slab at a time.  A slab's basis values
    at every point are one cumulative product of the ratios
    y (n-k) / ((k+1)(1-y)), started at the value of its first index, and
    each coefficient array meets them in one matrix product per mirror
    half.  Every point carries that first value as h 2^e, h in [1/2, 1),
    starting from (1-y)^n taken in powers of at most _POW_SPAN, which stay
    normal, and a slab's values are scaled by 2^e (ldexp, exact unless the
    result is subnormal) before they meet the coefficients: so nothing
    overflows or underflows at any n, and no binomial is formed.
    Dividing by 1 - y in every ratio, not multiplying by one rounded
    y/(1-y), keeps the rounding of the k-th value a random walk rather
    than k times one rounding.  The slabs depend on the points only, so
    each coefficient array is evaluated on its own, to the same bits
    alone or beside others.

    Error: with u = 2^-53, each value is within (6n + 64) u times
    sum_k |c[k]| p_{n,k}(x) of the exact sum, plus (n + 1) 2^-1021
    max_k |c[k]| for terms below the normal range.  Of that, n u is the
    rounding of 1 - x for x < 1/2 (the pow table has it too), 4 u per
    index the ratios and their running product, the rest the powers and
    the sums.  Against 40 digits at n = 1..1000, the largest error over
    a grid is the pow table's to within 2%; at a point where 1 - x is
    exact the pow table is closer (x = 1/2, n = 1000: 23 u against 1.2 u).
    """
    xs = np.asarray(xs, dtype=float)
    order = np.argsort(xs > 0.5, kind="stable")  # the points x <= 1/2 first
    low = xs.size - int(np.count_nonzero(xs > 0.5))
    y = np.minimum(xs, 1.0 - xs)[order]
    head, exps = np.ones(xs.size), np.zeros(xs.size, dtype=np.int32)
    for done in range(0, n, _POW_SPAN):
        head, step = np.frexp(head * (1.0 - y) ** min(_POW_SPAN, n - done))
        exps += step
    # each array's coefficient rows for the low points and, backwards, for
    # the mirrored ones; per-point columns are taken in the points' order
    frames = [(c[:, order[:low]], c[::-1, order[low:]]) if per_point
              else (c, c[::-1]) for c in coeffs]
    # one value per point, times the shared arrays' columns
    sums = [np.zeros((xs.size,) + c.shape[1 + per_point:]) for c in coeffs]
    for k0 in range(0, n + 1, _SLAB):
        k = np.arange(k0, min(k0 + _SLAB, n + 1), dtype=float)
        vals = np.empty((k.size + 1, xs.size))  # row j: index k0 + j at every point
        vals[0] = head
        np.multiply.outer((n - k) / (k + 1.0), y, out=vals[1:])
        vals[1:] /= 1.0 - y
        for j in range(1, k.size + 1):
            vals[j] *= vals[j - 1]
        basis = np.ldexp(vals[:-1], exps)  # exact but where it lands subnormal
        head, step = np.frexp(vals[-1])
        exps += step
        for total, frame in zip(sums, frames):
            for rows, c in zip((slice(None, low), slice(low, None)), frame):
                part, c = basis[:, rows], c[k0:k0 + k.size]
                total[rows] += np.einsum("ji,ji->i", part, c) if per_point else part.T @ c
    return [total[np.argsort(order)] for total in sums]


def mkz_weight_matrix(n: int, xs: np.ndarray, kmax: int) -> np.ndarray:
    """Weight rows for many x at once; W[i, k] = weight k at xs[i].

    The ratios are written into the output and their running product is
    taken in place, so the call holds no array beside its result.
    """
    xs = np.asarray(xs, dtype=float)
    k = np.arange(kmax, dtype=float)
    out = np.empty((xs.size, kmax + 1))
    out[:, 0] = 1.0
    np.multiply(xs[:, None], (n + 1.0 + k) / (k + 1.0), out=out[:, 1:])
    np.cumprod(out[:, 1:], axis=1, out=out[:, 1:])
    out *= ((1.0 - xs) ** (n + 1))[:, None]
    return out
