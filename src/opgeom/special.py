"""Numerically stable special functions behind the operator weights.

Everything here is pure and stateless; all functions accept scalars or
numpy arrays and may be called concurrently.
"""

from __future__ import annotations

import math
import numpy as np

from .errors import DomainError

__all__ = [
    "log_gamma",
    "log_beta",
    "beta",
    "log_binomial",
    "bernstein_basis_row",
    "bernstein_basis_matrix",
    "mkz_weight_row",
    "mkz_weight_matrix",
]

# Lanczos approximation, g = 9, 11 terms (Godfrey's coefficient set).
# Pinned for reproducibility; relative accuracy a few ulp over [1e-6, 1e6].
_LANCZOS_G = 9.0
_LANCZOS_C = np.array(
    [
        1.000000000000000174663,
        5716.400188274341379136,
        -14815.30426768413909044,
        14291.49277657478554025,
        -6348.160217641458813289,
        1301.608286058321874105,
        -108.1767053514369634679,
        2.605696505611755827729,
        -0.7423452510201416151527e-2,
        0.5384136432509564062961e-7,
        -0.4023533141268236372067e-8,
    ]
)
_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)
_EXACT_COMB_N = 1000  # largest order whose binomials and powers stay in range


def _log_gamma_core(x):
    # Valid for x >= 0.5.
    z = x - 1.0
    series = np.full_like(z, _LANCZOS_C[0])
    for i in range(1, len(_LANCZOS_C)):
        series = series + _LANCZOS_C[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return _HALF_LOG_TWO_PI + (z + 0.5) * np.log(t) - t + np.log(series)


def log_gamma(x):
    """Natural log of the Gamma function for x > 0.

    Uses the pinned Lanczos series above; arguments below 1/2 go through
    the reflection formula.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise DomainError("log_gamma requires x > 0")
    small = x < 0.5
    # Evaluate both branches on safe arguments, then select.
    x_big = np.where(small, 1.0, x)
    x_small = np.where(small, x, 0.25)
    direct = _log_gamma_core(x_big)
    reflected = (
        math.log(math.pi)
        - np.log(np.sin(math.pi * x_small))
        - _log_gamma_core(1.0 - x_small)
    )
    out = np.where(small, reflected, direct)
    return out if out.ndim else float(out)


def log_beta(a, b):
    """log B(a, b) for a, b > 0."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if np.any(a <= 0.0) or np.any(b <= 0.0):
        raise DomainError("log_beta requires a, b > 0")
    return log_gamma(a) + log_gamma(b) - log_gamma(a + b)


def beta(a, b):
    """Euler's Beta function B(a, b) = Gamma(a)Gamma(b)/Gamma(a+b)."""
    out = np.exp(log_beta(a, b))
    return out if np.ndim(out) else float(out)


def log_binomial(n: int, k: int) -> float:
    """log C(n, k), assembled as a sum of n - k (or k) log ratios.

    Summing log((m+j)/j) keeps the absolute error near machine level,
    which exp() turns into relative error; the three-log-gamma form
    would lose ~1e-9 relative accuracy for large arguments.
    """
    if k < 0 or k > n:
        raise DomainError(f"binomial index k={k} outside [0, {n}]")
    k = min(k, n - k)
    if k == 0:
        return 0.0
    j = np.arange(1, k + 1, dtype=float)
    return float(np.sum(np.log((n - k + j) / j)))


def bernstein_basis_row(n: int, x) -> np.ndarray:
    """All n+1 Bernstein basis values at x, as a nonnegative row."""
    row = bernstein_basis_matrix(n, np.atleast_1d(np.asarray(x, dtype=float)))
    return row[0] if np.ndim(x) == 0 else row


def bernstein_basis_matrix(n: int, xs: np.ndarray) -> np.ndarray:
    """Matrix P with P[i, k] = C(n,k) xs[i]^k (1-xs[i])^(n-k).

    Up to n = _EXACT_COMB_N the binomials are exact floats and the powers
    direct products.  Above it, where C(n, k) overflows and the powers
    go subnormal, every entry is formed in the log domain, with log C(n, k)
    the log of the exact integer (a running sum of float logs would carry
    its rounding into every entry).
    """
    xs = np.asarray(xs, dtype=float)
    k = np.arange(n + 1)
    if n <= _EXACT_COMB_N:
        comb_row = np.array([float(math.comb(n, j)) for j in range(n + 1)])
        with np.errstate(divide="ignore", invalid="ignore"):
            return comb_row * xs[:, None] ** k * (1.0 - xs[:, None]) ** (n - k)
    half, comb = [0.0], 1
    for j in range(1, n // 2 + 1):
        comb = comb * (n - j + 1) // j
        half.append(math.log(comb))
    log_comb = np.array(half + half[n - n // 2 - 1::-1])
    with np.errstate(divide="ignore", invalid="ignore"):
        lx, l1x = np.log(xs)[:, None], np.log1p(-xs)[:, None]
        # 0 * log 0 is 0 here: the k = 0 and k = n powers are 1 at x = 0, 1
        return np.exp(log_comb + np.where(k > 0, k * lx, 0.0)
                      + np.where(k < n, (n - k) * l1x, 0.0))


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


def mkz_weight_matrix(n: int, xs: np.ndarray, kmax: int) -> np.ndarray:
    """Weight rows for many x at once; W[i, k] = weight k at xs[i]."""
    xs = np.asarray(xs, dtype=float)
    k = np.arange(kmax, dtype=float)
    ratios = xs[:, None] * ((n + 1.0 + k) / (k + 1.0))
    out = np.empty((xs.size, kmax + 1))
    out[:, 0] = 1.0
    np.cumprod(ratios, axis=1, out=out[:, 1:])
    out *= ((1.0 - xs) ** (n + 1))[:, None]
    return out
