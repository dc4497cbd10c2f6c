"""Experiment harness: convergence studies across operator families with
CSV reports, plus the invariant suite used as a health gate.

One table maps each experiment name to its CSV header, column types and
runner.  A runner returns chunks (rows, sidecar values), one per order n
(invariants returns a single one).  Each per-order study is a function
of its order's operator, family grid and carrier; _map_per_n makes those
three for every order and calls the study.  run_experiment is the one
place that assembles a report: it joins the rows in n order and turns
each sidecar key into the list of its per-order values.
ExperimentReport.csv_lines is the one CSV row format, for files and for
stdout alike.

Every report is deterministic given its config: fixed grids, fixed
quadrature, no randomness.  Distinct n values may be computed in parallel
(--jobs); rows are always emitted in n order.
"""

from __future__ import annotations

import json
import math
import numbers
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .errors import DomainError
from .funcspace import (EvaluationGrid, F_transform, default_grid,
                        project_to_Cpsi, psi, psi_norm, psi_sup, registry)
from .operators import (OperatorSpec, alpha_profile, check_carrier_budget,
                        condition_report, family_record, moment,
                        node_discretization)
from .series import check_inversion_identities, geometric_series
from .special import bernstein_values

__all__ = [
    "EXPERIMENTS",
    "ExperimentConfig",
    "ExperimentReport",
    "run_experiment",
    "read_report",
]

ITERATE_STEPS = 30


@dataclass(frozen=True)
class _Experiment:
    header: tuple  # CSV column names
    types: tuple  # column types that read_report parses back
    runner: Callable  # config -> one chunk (rows, sidecar values) per order


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    family: str = "bernstein"
    n_list: tuple = ()
    rho: Optional[float] = None
    function: str = "e2"
    grid_size: int = 1001
    eps: Optional[float] = None
    output: Optional[str] = None
    jobs: int = 1

    def __post_init__(self):
        if self.experiment not in _TABLE:
            raise DomainError(f"unknown experiment {self.experiment!r}")
        for name, kind in (("grid_size", numbers.Integral), ("jobs", numbers.Integral),
                           ("rho", numbers.Real), ("eps", numbers.Real)):
            value = getattr(self, name)  # rho and eps may be None: the defaults
            if isinstance(value, bool) or not isinstance(value, (kind, type(None))):
                raise DomainError(
                    f"{name} must be {kind.__name__.lower()}, got {value!r}")
        if not isinstance(self.n_list, (list, tuple)) or not all(
                isinstance(n, numbers.Integral) and not isinstance(n, bool)
                for n in self.n_list):
            raise DomainError(
                f"n_list must be a list of integers, got {self.n_list!r}")
        if not isinstance(self.output, (str, type(None))):
            raise DomainError(f"output must be a string path, got {self.output!r}")
        fam = family_record(self.family)
        if self.rho is not None and fam.param != "rho":
            raise DomainError(f"{self.family} takes no rho")
        n_list = tuple(self.n_list) or fam.default_n_list
        if any(b <= a for a, b in zip(n_list, n_list[1:])):
            raise DomainError("n_list must be strictly increasing")
        object.__setattr__(self, "n_list", n_list)
        if self.rho is None:
            object.__setattr__(self, "rho", fam.default_rho)
        elif not 0.0 < self.rho < math.inf:
            raise DomainError(f"rho must be finite and positive, got {self.rho!r}")
        if self.grid_size < 33:
            raise DomainError("grid_size must be >= 33")
        eps = self.eps if self.eps is not None else fam.default_eps
        if not 0.0 < eps < math.inf:
            raise DomainError(f"eps must be finite and positive, got {eps!r}")
        object.__setattr__(self, "eps", eps)
        if self.jobs < 1:
            raise DomainError("jobs must be >= 1")

    @property
    def truncation_eps(self) -> Optional[float]:
        """eps for the families that take a truncation budget, else None."""
        return self.eps if family_record(self.family).series else None

    def spec(self, n: int) -> OperatorSpec:
        return OperatorSpec(family=self.family, n=n, rho=self.rho,
                            truncation_eps=self.truncation_eps)

    def base_grid(self) -> EvaluationGrid:
        return default_grid(self.grid_size)


@dataclass
class ExperimentReport:
    experiment: str
    header: tuple
    rows: list
    metadata: dict = field(default_factory=dict)

    def csv_lines(self) -> list:
        """Header and rows as CSV lines: exact float repr, true/false."""
        def cell(v):
            if isinstance(v, bool):
                return "true" if v else "false"
            return repr(v) if isinstance(v, float) else str(v)

        return [",".join(self.header)] + [",".join(map(cell, row))
                                          for row in self.rows]

    def write_csv(self, path) -> None:
        path = Path(path)
        path.write_text("\n".join(self.csv_lines()) + "\n", encoding="utf-8",
                        newline="\n")
        meta_path = path.with_name(path.name + ".meta.json")
        meta_path.write_text(json.dumps(self.metadata, indent=2, sort_keys=True)
                             + "\n", encoding="utf-8")

    @property
    def failures(self):
        if self.experiment != "invariants":
            return []
        return [row for row in self.rows if not row[-1]]


def read_report(path, experiment: str) -> list:
    """Parse an emitted CSV back into typed rows (exact float round-trip)."""
    record = _TABLE[experiment]
    lines = Path(path).read_text(encoding="utf-8").strip().split("\n")
    if tuple(lines[0].split(",")) != record.header:
        raise DomainError(f"unexpected header in {path}")
    rows = []
    for number, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(record.types):
            raise DomainError(f"{path} line {number}: {len(cells)} cells, "
                              f"header has {len(record.types)}")
        rows.append(tuple(cell == "true" if typ is bool else typ(cell)
                          for cell, typ in zip(cells, record.types)))
    return rows


def _map_per_n(study, config: ExperimentConfig):
    """One chunk (rows, sidecar values) per order of config.n_list, in n
    order, on config.jobs threads: study(op, family grid, carrier), with
    the operator, family grid and carrier of the order made here.  Every
    order's carrier is first checked against the memory budget, so an
    oversized one fails before any order's work starts."""
    base = config.base_grid()
    ops = [config.spec(n) for n in config.n_list]
    for op in ops:
        check_carrier_budget(op)

    def one(op):
        return study(op, op.grid(base), node_discretization(op))

    if config.jobs <= 1:
        return [one(op) for op in ops]
    # imported here: with logging it costs a few ms at every start-up,
    # and a one-worker run never needs it
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=config.jobs) as ex:
        return list(ex.map(one, ops))


# ---------------------------------------------------------------------------
# Runners: config -> one chunk (rows, sidecar values) per order
# ---------------------------------------------------------------------------

def _iterates(config: ExperimentConfig):
    """Decay of the iterates toward endpoint interpolation, with the
    geometric envelope b^k |f - B1 f| alongside."""
    f1 = project_to_Cpsi(registry(config.function))

    def study(op, fam_grid, disc):
        pts = fam_grid.points
        norm0 = psi_norm(f1, fam_grid)
        b = op.contraction_bound()
        # reps[:, k-1] = rep(L^(k-1) f1), so its image on the grid is L^k f1
        reps = [disc.rep(f1)]
        for _ in range(ITERATE_STEPS - 1):
            reps.append(disc.advance(reps[-1]))
        vals = disc.apply_rep(np.column_stack(reps), pts)
        return [(op.n, 0, norm0, norm0)] + [
            (op.n, k, psi_sup(vals[:, k - 1], pts), b ** k * norm0)
            for k in range(1, ITERATE_STEPS + 1)], {}

    return _map_per_n(study, config)


def _geom(config: ExperimentConfig):
    """Weighted-norm distance between alpha_n G_n(psi f) and twice the
    kernel transform of f, with G_n from the Krylov solve; terms_used is
    its count of carrier applications and tail_bound its certificate.
    The sidecar's eps_met says, per n, whether tail_bound <= eps; it also
    lists, per n, the bounds computed on the way: b, the carrier's
    truncation_error_bound, node count and stack_bytes (recorded as the
    carrier is made, so a carrier rebuilt unfilled reads the same), and
    the quad_error_bound of the kernel transform.  gauss_rules lists, per
    n, how many Gauss-Jacobi rules of each order the carrier solved for
    this series ({} for the families other than durrmeyer): rules that an
    earlier call left in a cached carrier are not counted, so the value
    does not depend on what ran before in the process.

    The kernel transform is built once per certified interval, that is
    once per family grid, on the first n that needs it: the exact
    families take one grid for every n, the series families one per n.
    The memo fills inside each n's work, after _map_per_n's carrier budget
    check; two threads may build the same transform, with equal bits."""
    f = registry(config.function)
    psi_f = registry("psi") * f
    base = config.base_grid()
    transforms = {}  # certified_interval() -> kernel transform on that grid

    def study(op, fam_grid, disc):
        pts = fam_grid.points
        interval = op.certified_interval()
        if interval not in transforms:
            transforms[interval] = F_transform(f, grid=fam_grid)
        transform = transforms[interval]
        ref = 2.0 * np.asarray(transform(pts), dtype=float)
        prof = alpha_profile(op, base)
        before = Counter(disc.gauss_rules)
        (res,) = geometric_series(op, [psi_f], config.eps, base)
        err = psi_sup(prof.alpha_values * res.grid_values - ref, pts)
        return [(op.n, err, res.terms_used, res.tail_bound)], {
            "tail_bounds": res.tail_bound,
            "eps_met": bool(res.tail_bound <= config.eps),
            "series_method": res.method,
            "residual_psi_norms": res.residual_psi_norm,
            "contraction_bounds": op.contraction_bound(),
            "truncation_error_bounds": disc.truncation_error_bound,
            "carrier_nodes": int(disc.nodes.size),
            "stack_bytes": disc.stack_bytes,
            "gauss_rules": dict(Counter(disc.gauss_rules) - before),
            "quad_error_bounds": transform.quad_error_bound}

    return _map_per_n(study, config)


def _defects(config: ExperimentConfig):
    """f, f'' and the premise of both Voronovskaya studies as a function
    of an order's operator, family grid and carrier: the grid points,
    L_n f - f on them and the alpha profile."""
    f = registry(config.function)
    d2 = f.second_derivative()
    if d2 is None:
        raise DomainError(f"function {config.function!r} has no registered "
                          "second derivative")
    base = config.base_grid()

    def defect(op, fam_grid, disc):
        pts = fam_grid.points
        lf = disc.apply_rep(disc.rep(f), pts)
        return pts, lf - np.asarray(f(pts)), alpha_profile(op, base)

    return f, d2, defect


def _voronovskaya(config: ExperimentConfig):
    """Distance of (1/nu)(L_n f - f) from psi f''/2, weighted and plain.
    The sidecar's error_psi_condition holds max_x 1/(nu psi(x)) per n: a
    change delta of L_n f moves error_psi by at most delta times it."""
    _, d2, defect = _defects(config)

    def study(op, fam_grid, disc):
        pts, dev, prof = defect(op, fam_grid, disc)
        resid = dev / prof.nu - 0.5 * np.asarray(d2(pts)) * psi(pts)
        cond = float(np.max(1.0 / (prof.nu * psi(pts))))
        return [(op.n, psi_sup(resid, pts), float(np.max(np.abs(resid))))], {
            "error_psi_condition": cond}

    return _map_per_n(study, config)


def _inverse_voronovskaya(config: ExperimentConfig):
    """Per-n premise residual (1/alpha)(L_n f - f) - g psi with g = f''/2,
    plus the n-independent reconstruction residual |(f - B1 f) + 2 F(g)|
    in the aux column.  The sidecar's error_psi_condition holds
    max_x 1/(alpha(x) psi(x)) per n: a change delta of L_n f moves
    error_psi by at most delta times it."""
    f, d2, defect = _defects(config)
    g = d2.scaled(0.5)
    base = config.base_grid()
    fg = F_transform(g, grid=base)
    pts_full = base.points
    recon = psi_sup(np.asarray(project_to_Cpsi(f)(pts_full))
                    + 2.0 * np.asarray(fg(pts_full)), pts_full)

    def study(op, fam_grid, disc):
        pts, dev, prof = defect(op, fam_grid, disc)
        resid = dev / prof.alpha_values - np.asarray(g(pts)) * psi(pts)
        cond = float(np.max(1.0 / (prof.alpha_values * psi(pts))))
        return [(op.n, psi_sup(resid, pts), recon)], {"error_psi_condition": cond}

    return _map_per_n(study, config)


def _conditions(config: ExperimentConfig):
    """Little-o condition table: sup M^4/M^2, eta, and the mixed bound,
    one chunk per row of condition_report, which builds no carrier.  The
    sidecar lists, per n, the rest of the row: cond55_nodes and
    cond55_terms, the interior nodes and the most closed-form M2 terms
    behind the cond55 cell."""
    table = condition_report(config.family, config.n_list,
                             config.base_grid(), rho=config.rho,
                             truncation_eps=config.truncation_eps)
    header = _TABLE["conditions"].header
    return [([tuple(r.pop(key) for key in header)], r) for r in table]


# ---------------------------------------------------------------------------
# Invariant suite
# ---------------------------------------------------------------------------

def _invariants(config: ExperimentConfig):
    """One row per invariant: (name, measured, threshold, pass)."""
    base = config.base_grid()
    pts = base.points
    fexp = registry("exp")
    rows = []

    def add(name, measured, threshold):
        rows.append((name, float(measured), float(threshold),
                     bool(measured <= threshold)))

    # Bernstein moment identities
    n = 16
    spec_16 = OperatorSpec("bernstein", n)
    m2 = moment(spec_16, 2, pts)
    add("bernstein-m2-identity", np.max(np.abs(m2 - psi(pts) / n)), 1e-12)
    m4 = moment(spec_16, 4, pts)
    ref4 = psi(pts) / n ** 2 * ((3.0 - 6.0 / n) * psi(pts) + 1.0 / n)
    add("bernstein-m4-identity", np.max(np.abs(m4 - ref4)), 1e-10)
    add("bernstein-m4-over-m2-bound",
        np.max(m4 / m2) - (0.75 / n - 0.5 / n ** 2), 1e-12)

    # Durrmeyer closed forms
    nd, rho = 8, 1.0
    spec_d = OperatorSpec("durrmeyer", nd, rho=rho)
    sample = pts[:: max(1, pts.size // 101)]
    m2d = moment(spec_d, 2, sample)
    add("durrmeyer-m2-closed-form",
        np.max(np.abs(m2d - (rho + 1.0) * psi(sample) / (nd * rho + 1.0))), 1e-10)
    m4d = moment(spec_d, 4, sample)
    denom = (nd * rho + 1.0) * (nd * rho + 2.0) * (nd * rho + 3.0)
    ref = (3.0 * rho * (rho + 1.0) ** 2 * psi(sample) ** 2 * nd
           + (-6.0 * (rho + 1.0) * (rho ** 2 + 3.0 * rho + 3.0) * psi(sample) ** 2
              + (rho + 1.0) * (rho + 2.0) * (rho + 3.0) * psi(sample))) / denom
    add("durrmeyer-m4-closed-form", np.max(np.abs(m4d - ref)), 1e-8)

    # Basis health
    (unity,) = bernstein_values(64, [np.ones(65)], pts)
    add("bernstein-partition-of-unity", np.max(np.abs(unity - 1.0)), 1e-12)
    sym = np.abs(bernstein_values(33, [np.eye(34)], pts)[0]
                 - bernstein_values(33, [np.eye(34)[::-1]], 1.0 - pts)[0])
    add("bernstein-basis-symmetry", np.max(sym), 1e-13)
    bpsi = OperatorSpec("bernstein", 16).apply(registry("psi"), pts)
    add("bernstein-eigenfunction",
        np.max(np.abs(bpsi - (1.0 - 1.0 / 16) * psi(pts))), 1e-12)

    # Positivity and the psi contraction across families
    specs = [OperatorSpec("bernstein", 6),
             OperatorSpec("durrmeyer", 6, rho=1.0),
             OperatorSpec("mkz", 6, truncation_eps=1e-10),
             OperatorSpec("mkz-symmetric", 6, truncation_eps=1e-10)]
    worst_pos = 0.0
    worst_contr = 0.0
    worst_endpoint = 0.0
    for spec in specs:
        fam_pts = spec.grid(base).points[:: 7]
        vals = np.asarray(spec.apply(registry("abs_half"), fam_pts))
        worst_pos = max(worst_pos, float(np.max(-vals)))
        lpsi = np.asarray(spec.apply(registry("psi"), fam_pts))
        worst_contr = max(worst_contr, float(np.max(lpsi - psi(fam_pts))))
        e0 = abs(spec.apply(fexp, 0.0) - fexp(0.0))
        e1 = abs(spec.apply(fexp, 1.0) - fexp(1.0))
        worst_endpoint = max(worst_endpoint, e0, e1)
    add("positivity", worst_pos, 1e-12)
    add("psi-contraction", worst_contr, 1e-12)
    add("endpoint-interpolation", worst_endpoint, 1e-10)

    # Lower second-moment bounds for the series family, n = 5.  Only the
    # lower halves are gated: the mirrored upper bounds (the same form
    # with the inner denominator tightened by one) are violated by the
    # exact moment at interior points; see the acceptance suite.
    nz = 5
    spec_z = OperatorSpec("mkz", nz, truncation_eps=1e-12)
    zpts = spec_z.grid(base).points[:: 3]
    m2z = moment(spec_z, 2, zpts)
    lo = zpts * (1.0 - zpts) ** 2 / (nz + 1.0) * (1.0 + 2.0 * zpts / (nz + 2.0))
    add("mkz-m2-lower-bound", np.max(lo - m2z), 1e-10)
    spec_zs = OperatorSpec("mkz-symmetric", nz, truncation_eps=1e-12)
    spts = spec_zs.grid(base).points[:: 3]
    m2s = moment(spec_zs, 2, spts)
    los = psi(spts) / (2.0 * (nz + 1.0)) * (1.0 + 4.0 * psi(spts) / (nz + 2.0))
    add("mkz-symmetric-m2-lower-bound", np.max(los - m2s), 1e-10)

    # Geometric series norm bounds
    spec_b = OperatorSpec("bernstein", 8)
    prof = alpha_profile(spec_b, base)
    (res,) = geometric_series(spec_b, [registry("psi")], 1e-8, base,
                              method="neumann")
    gnorm = psi_norm(res.g, base)
    add("series-norm-product", (1.0 - prof.b_norm) * gnorm - 1.0, 1e-6)
    f_sin = registry("sin_pi")
    (res_sin,) = geometric_series(spec_b, [f_sin], 1e-8, base, method="neumann")
    ratio = psi_norm(res_sin.g, base) * (1.0 - prof.b_norm) \
        / psi_norm(f_sin, base)
    add("series-operator-norm", ratio - 1.0, 1e-6)
    spec_d6 = OperatorSpec("durrmeyer", 6, rho=1.0)
    r1, r2 = check_inversion_identities(spec_d6, registry("psi").scaled(-1.0),
                                        1e-8, base)
    add("series-inversion-residuals", max(r1, r2), 1e-7)
    f_e3 = project_to_Cpsi(registry("e3"))
    (sol,) = geometric_series(spec_b, [f_e3], 1e-8, base, method="solve")
    (neu,) = geometric_series(spec_b, [f_e3], 1e-8, base, method="neumann")
    diff = psi_sup(np.asarray(sol.g(pts)) - np.asarray(neu.g(pts)), pts)
    add("series-method-agreement", diff,
        1e-8 / (1.0 - spec_b.contraction_bound()) + 1e-9)

    # Carrier consistency: one matrix application against direct evaluation
    worst_disc = 0.0
    for spec in specs:
        disc = node_discretization(spec)
        lo, hi = spec.certified_interval()
        mask = disc.interior & (disc.nodes >= lo) & (disc.nodes <= hi)
        nodes = disc.nodes[mask][:: max(1, mask.sum() // 40)]
        direct = np.asarray(spec.apply(fexp, nodes))
        via_t = disc.apply_rep(disc.rep(fexp), nodes)
        tol = disc.truncation_error_bound * math.e + 1e-10
        worst_disc = max(worst_disc, float(np.max(np.abs(via_t - direct))) - tol)
    add("discretization-consistency", worst_disc, 0.0)

    # Reflection identity between the carrier and the pointwise route
    spec_r = OperatorSpec("mkz-reflected", 5, truncation_eps=1e-10)
    disc_r = node_discretization(spec_r)
    rpts = spec_r.grid(base).points[:: 37]
    lhs = disc_r.apply_rep(disc_r.rep(fexp), rpts)
    rhs = OperatorSpec("mkz", 5, truncation_eps=1e-10).apply(fexp.reflected(),
                                                             1.0 - rpts)
    add("mkz-reflection-identity", np.max(np.abs(lhs - rhs)), 1e-8)

    # Second-moment asymptotic: the sup of |n(Z_n e2 - e2) - x(1-x)^2|/psi
    # halves (within factor 0.7) per doubling of n
    errs = []
    for nn in (4, 8, 16, 32):
        spec_a = OperatorSpec("mkz", nn, truncation_eps=1e-10)
        apts = spec_a.grid(base).points
        m2a = moment(spec_a, 2, apts)
        lead = apts * (1.0 - apts) ** 2
        errs.append(np.max(np.abs(nn * m2a - lead) / psi(apts)))
    add("mkz-moment-asymptotic-order", max(b / a for a, b in zip(errs, errs[1:])), 0.7)

    return [(rows, {})]


_TABLE = {
    "iterates": _Experiment(("n", "k", "error_psi", "envelope"),
                            (int, int, float, float), _iterates),
    "geom": _Experiment(("n", "error_psi", "terms_used", "tail_bound"),
                        (int, float, int, float), _geom),
    "voronovskaya": _Experiment(("n", "error_psi", "aux_error"),
                                (int, float, float), _voronovskaya),
    "inverse-voronovskaya": _Experiment(("n", "error_psi", "aux_error"),
                                        (int, float, float),
                                        _inverse_voronovskaya),
    "conditions": _Experiment(("n", "sup_m4_over_m2", "eta", "cond55"),
                              (int, float, float, float), _conditions),
    "invariants": _Experiment(("name", "measured", "threshold", "pass"),
                              (str, float, float, bool), _invariants),
}

EXPERIMENTS = tuple(_TABLE)


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run one experiment and assemble its report: the rows of its chunks
    joined in n order, and the sidecar metadata (config, each sidecar key
    as the list of its per-chunk values, wall time).  Writes the CSV and
    its sidecar when config.output is set; an output whose directory is
    missing, or that is itself a directory, raises DomainError before the
    runner starts."""
    start = time.perf_counter()
    if config.output and not Path(config.output).parent.is_dir():
        raise DomainError(f"output directory of {config.output} does not exist")
    if config.output and Path(config.output).is_dir():
        raise DomainError(f"output {config.output} is a directory")
    record = _TABLE[config.experiment]
    chunks = record.runner(config)
    metadata = {"config": {**asdict(config), "n_list": list(config.n_list)},
                **{key: [values[key] for _, values in chunks]
                   for key in chunks[0][1]},
                "wall_time_s": time.perf_counter() - start}
    report = ExperimentReport(config.experiment, record.header,
                              [row for rows, _ in chunks for row in rows],
                              metadata)
    if config.output:
        report.write_csv(config.output)
    return report
