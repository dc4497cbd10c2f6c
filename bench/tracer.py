"""Span tracer for one traced benchmark run.

The tracer wraps public opgeom functions at each module boundary and
records one span per call: name, start, end and the enclosing span.
Every wrapped name is patched both where it is defined and wherever an
opgeom module imported it by name (``operators.mkz_weight_matrix``,
``experiments.geometric_series_neumann`` and so on), so calls through any
route are seen.  Methods are patched on their class.  Leaving the
``traced`` context restores every original object.

Spans live in memory; ``write`` saves them after the run.  A span's self
time is its duration minus the durations of its direct children; spans
nest strictly because the workloads run with ``--jobs 1`` (one thread).
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
import weakref
from contextlib import contextmanager

import numpy as np

# (span name, defining module, attribute); "Class.method" names a method.
TARGETS = (
    ("special.mkz_weight_matrix", "opgeom.special", "mkz_weight_matrix"),
    ("special.mkz_weight_row", "opgeom.special", "mkz_weight_row"),
    ("special.bernstein_basis_matrix", "opgeom.special", "bernstein_basis_matrix"),
    ("special.log_gamma", "opgeom.special", "log_gamma"),
    ("operators.mkz_truncation_index", "opgeom.operators", "mkz_truncation_index"),
    ("operators.node_discretization", "opgeom.operators", "node_discretization"),
    ("operators.advance", "opgeom.operators", "NodeDiscretization.advance"),
    ("operators.basis_matrix", "opgeom.operators", "NodeDiscretization.basis_matrix"),
    ("operators.rep", "opgeom.operators", "NodeDiscretization.rep"),
    ("operators.moment", "opgeom.operators", "moment"),
    ("operators.alpha_profile", "opgeom.operators", "alpha_profile"),
    ("operators.apply", "opgeom.operators", "OperatorSpec.apply"),
    ("operators.condition_report", "opgeom.operators", "condition_report"),
    ("series.neumann", "opgeom.series", "geometric_series_neumann"),
    ("series.neumann", "opgeom.series", "geometric_series_neumann_batch"),
    ("series.solve", "opgeom.series", "geometric_series_solve"),
    ("series.inversion", "opgeom.series", "check_inversion_identities"),
    ("funcspace.psi_norm", "opgeom.funcspace", "psi_norm"),
    ("funcspace.F_transform", "opgeom.funcspace", "F_transform"),
    ("experiments.run", "opgeom.experiments", "run_experiment"),
    ("experiments.write_csv", "opgeom.experiments", "ExperimentReport.write_csv"),
)

ROOT_SPAN = "bench.workload"

# Per-layer metrics of a traced run, in report order: (name, unit).
LAYER_METRICS = (
    ("special.mkz_weight_matrix.calls", "count"),
    ("special.mkz_weight_matrix.s", "s"),
    ("special.mkz_weight_matrix.cells", "count"),
    ("special.mkz_weight_row.calls", "count"),
    ("special.mkz_weight_row.s", "s"),
    ("special.bernstein_basis_matrix.calls", "count"),
    ("special.bernstein_basis_matrix.s", "s"),
    ("special.log_gamma.calls", "count"),
    ("special.log_gamma.s", "s"),
    ("operators.mkz_truncation_index.calls", "count"),
    ("operators.node_discretization.calls", "count"),
    ("operators.node_discretization.builds", "count"),
    ("operators.node_discretization.hit_ratio", "ratio"),
    ("operators.node_discretization.build_s", "s"),
    ("operators.node_discretization.nodes", "count"),
    ("operators.carrier_mb.computed", "MB"),
    ("operators.advance.calls", "count"),
    ("operators.advance.cols", "count"),
    ("operators.advance.s", "s"),
    ("operators.advance.gbytes.computed", "GB"),
    ("operators.advance.gflop.computed", "GFLOP"),
    ("operators.basis_matrix.calls", "count"),
    ("operators.basis_matrix.rows", "count"),
    ("operators.basis_matrix.s", "s"),
    ("operators.rep.calls", "count"),
    ("operators.rep.s", "s"),
    ("operators.moment.calls", "count"),
    ("operators.moment.s", "s"),
    ("operators.alpha_profile.calls", "count"),
    ("operators.alpha_profile.s", "s"),
    ("operators.apply.calls", "count"),
    ("operators.apply.s", "s"),
    ("operators.condition_report.s", "s"),
    ("series.neumann.calls", "count"),
    ("series.neumann.rhs", "count"),
    ("series.neumann.terms", "count"),
    ("series.neumann.s", "s"),
    ("series.solve.calls", "count"),
    ("series.solve.s", "s"),
    ("series.inversion.calls", "count"),
    ("series.inversion.s", "s"),
    ("funcspace.psi_norm.calls", "count"),
    ("funcspace.psi_norm.s", "s"),
    ("funcspace.F_transform.calls", "count"),
    ("funcspace.F_transform.s", "s"),
    ("experiments.run.s", "s"),
    ("experiments.write_csv.s", "s"),
    ("trace.wall_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead", "ratio"),
)


def matrix_bytes(carrier) -> int:
    """Bytes of the 2-D arrays a carrier holds (its transfer matrix or the
    parity blocks), found by value so that the count survives refactors."""
    total = 0
    for value in vars(carrier).values():
        items = value if isinstance(value, (tuple, list)) else (value,)
        total += sum(a.nbytes for a in items
                     if isinstance(a, np.ndarray) and a.ndim == 2)
    return total


class Tracer:
    """In-memory span recorder with per-name counters."""

    def __init__(self):
        # span: [name, start, end, parent index, children's total duration]
        self.spans = []
        self._stack = []
        self.counters = {}
        self._patches = []
        self._seen_carriers = weakref.WeakSet()
        self.carriers = []  # (family, n, nodes) per built carrier
        self.neumann_terms = []  # terms_used per series call

    # -- recording ---------------------------------------------------------

    def count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def _enter(self, name):
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), 0.0, parent, 0.0])

    def _exit(self):
        record = self.spans[self._stack.pop()]
        record[2] = time.perf_counter()
        if record[3] >= 0:
            self.spans[record[3]][4] += record[2] - record[1]
        return record[2] - record[1]

    @contextmanager
    def span(self, name):
        self._enter(name)
        try:
            yield
        finally:
            self._exit()

    def wrap(self, name, fn):
        hook = _HOOKS.get(name)
        calls = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = self._exit()
            self.count(calls)
            if hook is not None:
                hook(self, args, out, dt)
            return out

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self):
        """Patch every target where it is defined and where it was imported."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "opgeom" or key.startswith("opgeom."))]
        for name, module_name, attr in TARGETS:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name, None)
                if owner is not None and meth in vars(owner):
                    self._patch(owner, meth, name)
                continue
            orig = getattr(module, attr, None)
            if orig is None:
                continue
            wrapped = self.wrap(name, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, key, orig))
                        setattr(mod, key, wrapped)

    def _patch(self, owner, attr, name):
        orig = vars(owner)[attr]
        self._patches.append((owner, attr, orig))
        setattr(owner, attr, self.wrap(name, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- summaries ---------------------------------------------------------

    def self_times(self):
        out = {}
        for name, start, end, _, children in self.spans:
            out[name] = out.get(name, 0.0) + (end - start - children)
        return out

    def layer_metrics(self, wall_s):
        """LAYER_METRICS values from the recorded spans and counters; the
        caller adds trace.overhead, which needs an untraced run."""
        selfs = self.self_times()
        values = dict(self.counters)
        for name, t in selfs.items():
            values[name + ".s"] = t
        calls = values.get("operators.node_discretization.calls", 0)
        builds = values.get("operators.node_discretization.builds", 0)
        values["operators.node_discretization.hit_ratio"] = (
            (calls - builds) / calls if calls else 0.0)
        values["trace.wall_s"] = wall_s
        values["trace.spans"] = len(self.spans)
        return {name: {"value": float(values.get(name, 0)), "unit": unit}
                for name, unit in LAYER_METRICS if name != "trace.overhead"}

    def write(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        blob = {"names": names,
                "columns": ["name", "start_s", "end_s", "parent"],
                "spans": [[index[n], round(a, 9), round(b, 9), p]
                          for n, a, b, p, _ in self.spans],
                "carriers": self.carriers,
                "neumann_terms": self.neumann_terms}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(blob, fh, separators=(",", ":"))


@contextmanager
def traced(tracer: Tracer):
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()


# -- per-layer counters read off arguments and results ----------------------

def _cells(tracer, args, out, dt):
    tracer.count("special.mkz_weight_matrix.cells", int(out.size))


def _carrier(tracer, args, out, dt):
    if out in tracer._seen_carriers:
        return
    tracer._seen_carriers.add(out)
    tracer.count("operators.node_discretization.builds")
    tracer.count("operators.node_discretization.build_s", dt)
    tracer.count("operators.node_discretization.nodes", int(out.nodes.size))
    tracer.count("operators.carrier_mb.computed", matrix_bytes(out) / 1e6)
    tracer.carriers.append((out.spec.family, out.spec.n, int(out.nodes.size)))


def _advance(tracer, args, out, dt):
    carrier, v = args[0], np.asarray(args[1])
    cols = v.shape[1] if v.ndim == 2 else 1
    mat = matrix_bytes(carrier)
    tracer.count("operators.advance.cols", cols)
    # Bytes a single pass must move: the matrix once plus vector in and out.
    tracer.count("operators.advance.gbytes.computed",
                 (mat + v.nbytes + np.asarray(out).nbytes) / 1e9)
    tracer.count("operators.advance.gflop.computed", 2.0 * (mat / 8) * cols / 1e9)


def _rows(tracer, args, out, dt):
    tracer.count("operators.basis_matrix.rows", int(out.shape[0]))


def _neumann(tracer, args, out, dt):
    results = out if isinstance(out, list) else [out]
    tracer.count("series.neumann.rhs", len(results))
    # A batch shares one sweep, so its terms count once.
    tracer.count("series.neumann.terms",
                 max((r.terms_used or 0 for r in results), default=0))
    tracer.neumann_terms.append([r.terms_used for r in results])


_HOOKS = {
    "special.mkz_weight_matrix": _cells,
    "operators.node_discretization": _carrier,
    "operators.advance": _advance,
    "operators.basis_matrix": _rows,
    "series.neumann": _neumann,
}
