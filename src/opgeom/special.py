"""Numerically stable special functions behind the operator weights.

Everything here is pure and stateless; all functions accept scalars or
numpy arrays and may be called concurrently.
"""

from __future__ import annotations

import math
import numpy as np

__all__ = [
    "bernstein_basis_matrix",
    "mkz_weight_matrix",
]

_EXACT_COMB_N = 1000  # largest order whose binomials and powers stay in range


def bernstein_basis_matrix(n: int, xs: np.ndarray) -> np.ndarray:
    """Matrix P with P[i, k] = C(n,k) xs[i]^k (1-xs[i])^(n-k), xs in [0, 1].

    C(n, k) comes from one exact-integer recurrence over half the row.  Up
    to n = _EXACT_COMB_N it is floated, times x^k, times (1-x)^(n-k), with
    pow's powers (_powers).  Above it, where C(n, k) overflows and the
    powers go subnormal, every entry is formed in the log domain from the
    log of the exact integer (a running sum of float logs would carry its
    rounding into every entry).
    """
    xs = np.asarray(xs, dtype=float)
    k = np.arange(n + 1)
    half, comb = [1], 1
    for j in range(1, n // 2 + 1):
        comb = comb * (n - j + 1) // j
        half.append(comb)
    row = half + half[n - n // 2 - 1::-1]
    if n <= _EXACT_COMB_N:
        out = _powers(xs, k)
        out *= np.array([float(c) for c in row])
        return np.multiply(out, _powers(1.0 - xs, n - k), out=out)
    log_comb = np.array([math.log(c) for c in row])
    with np.errstate(divide="ignore", invalid="ignore"):
        lx, l1x = np.log(xs)[:, None], np.log1p(-xs)[:, None]
        # 0 * log 0 is 0 here: the k = 0 and k = n powers are 1 at x = 0, 1
        return np.exp(log_comb + np.where(k > 0, k * lx, 0.0)
                      + np.where(k < n, (n - k) * l1x, 0.0))


def _powers(base: np.ndarray, e: np.ndarray) -> np.ndarray:
    """base[i]^e[j] for base in [0, 1], bit for bit pow's, skipping pow's
    slow path on underflow: a cell with e > 1100 / -log2(base) is below
    2^-1100, 25 binades under half the smallest subnormal, and set to +0 as
    pow would (rounding moves the cut far less than a binade).  0.0 - log2
    makes the limit +inf at base 1; at base 0 it is 0, which keeps 0^0 = 1."""
    with np.errstate(divide="ignore"):
        limit = 1100.0 / (0.0 - np.log2(base))
    cut = limit < e.max()
    out = np.where(cut, 1.0, base)[:, None] ** e
    out[cut] = np.power(base[cut, None], e, out=np.zeros((cut.sum(), e.size)),
                        where=e <= limit[cut, None])
    return out


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
