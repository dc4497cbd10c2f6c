"""The geometric series G = I + L + L^2 + ... inverts I - L on the
weighted space.  The three methods of the one series entry
geometric_series are compared (the Krylov solve with its residual
certificate, the Neumann sum with its tail bound, and the dense interior
solve), and the inversion identities are checked as residuals.

Run:  python demos/03_geometric_series.py
"""

import numpy as np

from opgeom import (OperatorSpec, check_inversion_identities, default_grid,
                    geometric_series, psi, psi_norm, registry)

grid = default_grid(401)
pts = grid.points
w = registry("psi")

print("Eigenfunction sanity: for the order-n polynomial family, psi is an")
print("eigenfunction with value 1 - 1/n, so G(psi) = n psi exactly.")
for n in (2, 8, 32):
    op = OperatorSpec("bernstein", n)
    neu, kry, sol = (geometric_series(op, [w], 1e-8, grid, method=m)[0]
                     for m in ("neumann", "krylov", "solve"))
    err_n = np.max(np.abs(np.asarray(neu.g(pts)) - n * psi(pts)) / psi(pts))
    err_k = np.max(np.abs(np.asarray(kry.g(pts)) - n * psi(pts)) / psi(pts))
    err_s = np.max(np.abs(np.asarray(sol.g(pts)) - n * psi(pts)) / psi(pts))
    print(f"  n={n:2d}: neumann err {err_n:.2e} ({neu.terms_used} terms, "
          f"tail bound {neu.tail_bound:.1e}); krylov err {err_k:.2e} "
          f"({kry.terms_used} matvecs, certificate {kry.tail_bound:.1e}); "
          f"solve err {err_s:.2e}")

print("\nInversion residuals |(I-L)G f - f|_psi and |G(I-L) f - f|_psi")
for spec, eps in [(OperatorSpec("bernstein", 8), 1e-8),
                  (OperatorSpec("durrmeyer", 8, rho=1.0), 1e-8),
                  (OperatorSpec("mkz-symmetric", 8, truncation_eps=1e-6), 1e-6)]:
    r1, r2 = check_inversion_identities(spec, w, eps, grid)
    print(f"  {spec.family:14s}: {r1:.2e}   {r2:.2e}   (series eps = {eps:g})")

print("\nNorm bounds: (1 - |b|) |G(psi)|_psi stays below 1, and the series")
print("operator norm is bounded by 1/(1 - |b|).")
for spec in (OperatorSpec("bernstein", 8),
             OperatorSpec("mkz-symmetric", 8, truncation_eps=1e-6)):
    eps = 1e-8 if spec.family == "bernstein" else 1e-6
    b = spec.contraction_bound()
    f = registry("sin_pi")
    # one Neumann sweep serves both inputs
    res, res_f = geometric_series(spec, [w, f], eps, grid, method="neumann")
    product = (1.0 - b) * psi_norm(res.g, spec.grid(grid)).value
    ratio = psi_norm(res_f.g, spec.grid(grid)).value * (1.0 - b) \
        / psi_norm(f, spec.grid(grid)).value
    print(f"  {spec.family:14s}: (1-b)|G psi| = {product:.6f};"
          f"   (1-b)|G f|/|f| = {ratio:.6f}   (both <= 1)")
