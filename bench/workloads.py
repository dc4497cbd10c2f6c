"""The benchmark workloads and the output records they are checked by.

Each workload drives opgeom through its public surface (the CLI entry
``opgeom.cli.main`` or the public series functions) and returns one record
per operation, i.e. per (n, input) result:

    {"id": str, "value": [float] | None, "radius": [float] | None,
     "passed": bool, "terms": int | None}

``radius`` is how far ``value`` may sit from the exact quantity by the
bounds the code itself reports (Neumann tail, contraction bound and
residual, truncation and quadrature tolerances); ``checks.check`` compares
records with the stored reference within the sum of both radii.

The workloads are fixed configurations. The seed permutes the order of
independent operations (the input columns of a batch, the commands of a
multi-command workload), which must change no result and no count.
"""

from __future__ import annotations

import random
from pathlib import Path

import numpy as np

import opgeom
import opgeom.cli
from opgeom import OperatorSpec, default_grid, psi, read_report, registry

MKZ_EPS = 1e-6
EXACT_EPS = 1e-8  # the CLI default for the exact families
EXACT_N_LIST = "32,64,128,256,512"
BATCH_ORDERS = (4, 8, 16)
BATCH_INPUTS = ("psi", "psi*e1", "psi*sin_pi", "psi*osc", "sin_pi")
SAMPLE_STRIDE = 20  # batch results are compared on every 20th grid point
# Gauss-Jacobi stops once successive rules agree to 1e-13 (relative to
# max(1, |value|)); the Durrmeyer functionals carry that much error.
QUADRATURE_TOL = 1e-13


def series_batch(op, fs, eps, grid):
    """The multi-input series entry point; the one line to change if it is
    renamed or replaced."""
    return opgeom.series.geometric_series_neumann_batch(op, fs, eps, grid)


def _cli(argv, ok=(0,)):
    code = opgeom.cli.main(argv)
    if code not in ok:
        raise RuntimeError(f"opgeom {' '.join(argv)} exited with {code}")


def _record(op_id, value=None, radius=None, passed=True, terms=None):
    listed = (lambda a: None if a is None
              else [float(v) for v in np.atleast_1d(np.asarray(a, dtype=float))])
    return {"id": op_id, "value": listed(value), "radius": listed(radius),
            "passed": bool(passed), "terms": terms}


def _geom_records(family, csv_path):
    return [_record(f"geom/{family}/n={n}", [err], [tail], terms=terms)
            for n, err, terms, tail in read_report(csv_path, "geom")]


def _function(expr):
    f = registry(expr.split("*")[0])
    for name in expr.split("*")[1:]:
        f = f * registry(name)
    return f


# -- geom-mkz ----------------------------------------------------------------

def geom_mkz(seed, out: Path):
    path = out / "geom-mkz.csv"
    _cli(["geom", "--family", "mkz-symmetric", "--function", "e1",
          "--jobs", "1", "-o", str(path)])
    return _geom_records("mkz-symmetric", path)


# -- batch-mkz ---------------------------------------------------------------

def batch_mkz(seed, out: Path):
    names = list(BATCH_INPUTS)
    random.Random(seed).shuffle(names)
    base = default_grid()
    records = []
    for n in BATCH_ORDERS:
        op = OperatorSpec("mkz-symmetric", n, truncation_eps=MKZ_EPS)
        results = series_batch(op, [_function(s) for s in names], MKZ_EPS, base)
        pts = op.grid(base).points[::SAMPLE_STRIDE]
        one_minus_b = 1.0 - op.contraction_bound()
        for name, res in zip(names, results):
            # Either bound certifies |g - G f|_psi: the a-priori tail, or
            # the residual through |G|_psi <= 1 / (1 - b).
            cert = max(res.tail_bound, res.residual_psi_norm / one_minus_b)
            weighted = np.asarray(res.g(pts), dtype=float) / psi(pts)
            records.append(_record(f"series/n={n}/{name}", weighted,
                                   np.full(pts.size, cert), terms=res.terms_used))
    return records


# -- pointwise-mkz -----------------------------------------------------------

def _condition_radius(n, eps, values):
    """Truncation moves every moment by at most eps; relative to the
    smallest second moment on the capped grid, psi(cap) / (2 (n + 1)),
    each column of the condition table moves by a few kappa."""
    cap = 1.0 / (4.0 * n)
    kappa = eps / (psi(cap) / (2.0 * (n + 1.0)))
    return [2.0 * kappa * abs(v) for v in values]


def pointwise_mkz(seed, out: Path):
    cond = out / "conditions.csv"
    inv = out / "invariants.csv"
    _cli(["conditions", "--family", "mkz-symmetric", "--jobs", "1", "-o", str(cond)])
    _cli(["invariants", "--jobs", "1", "-o", str(inv)], ok=(0, 1))
    records = [_record(f"conditions/n={n}", vals, _condition_radius(n, MKZ_EPS, vals))
               for n, *vals in read_report(cond, "conditions")]
    records += [_record(f"invariants/{name}", passed=ok)
                for name, _, _, ok in read_report(inv, "invariants")]
    return records


# -- exact-large-n -----------------------------------------------------------

EXACT_COMMANDS = (
    ("geom", "bernstein"),
    ("geom", "durrmeyer"),
    ("voronovskaya", "durrmeyer"),
)


def _voronovskaya_records(path):
    """Rows (n, weighted error, plain error).  Each functional carries
    QUADRATURE_TOL; the basis rows sum to one and the residual divides by
    nu = 2 / (n + 1) (rho = 1), and the weighted column by psi."""
    psi_min = float(np.min(psi(default_grid().points)))
    out = []
    for n, err_psi, err_sup in read_report(path, "voronovskaya"):
        plain = QUADRATURE_TOL * (n + 1.0) / 2.0
        out.append(_record(f"voronovskaya/durrmeyer/n={n}", [err_psi, err_sup],
                           [plain / psi_min, plain]))
    return out


def exact_large_n(seed, out: Path):
    commands = list(EXACT_COMMANDS)
    random.Random(seed).shuffle(commands)
    records = []
    for experiment, family in commands:
        path = out / f"{experiment}-{family}.csv"
        argv = [experiment, "--family", family, "--function", "sin_pi",
                "--n-list", EXACT_N_LIST, "--jobs", "1", "-o", str(path)]
        if family == "durrmeyer":
            argv += ["--rho", "1"]
        _cli(argv)
        if experiment == "geom":
            records += _geom_records(family, path)
        else:
            records += _voronovskaya_records(path)
    return records


WORKLOADS = {
    "geom-mkz": geom_mkz,
    "batch-mkz": batch_mkz,
    "pointwise-mkz": pointwise_mkz,
    "exact-large-n": exact_large_n,
}


def solve_oracle(family, n):
    """The geom row of the exact-large-n workload through the dense
    interior solve instead of the Neumann sum: (error_psi, certificate)."""
    f = registry("sin_pi")
    base = default_grid()
    op = OperatorSpec(family, n, rho=1.0 if family == "durrmeyer" else None)
    pts = op.grid(base).points
    ref = 2.0 * np.asarray(opgeom.F_transform(f, grid=op.grid(base))(pts))
    alpha = opgeom.alpha_profile(op, base).alpha_values
    sol = opgeom.geometric_series_solve(op, registry("psi") * f, base)
    err = float(np.max(np.abs(alpha * np.asarray(sol.g(pts)) - ref) / psi(pts)))
    return err, sol.residual_psi_norm / (1.0 - op.contraction_bound())


def requested_eps(op_id):
    """The accuracy a series record was requested at; its certificate
    (radius) must not exceed it."""
    if op_id.startswith(("geom/mkz", "series/")):
        return MKZ_EPS
    if op_id.startswith("geom/"):
        return EXACT_EPS
    return None
