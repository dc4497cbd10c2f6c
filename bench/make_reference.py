"""Regenerate bench/reference.json, the outputs every run is checked against.

    PYTHONPATH=src python3 bench/make_reference.py

Each workload runs once (seed 0).  Its records become the reference, with
one exception: the geom rows of exact-large-n are replaced by the dense
interior solve (``geometric_series_solve``), so that the Neumann path of
every later run is checked against an independent oracle.  Regenerate only
when a change is meant to move the results, and say so in the change.
"""

import json
import sys
import tempfile
from pathlib import Path

import checks
from workloads import WORKLOADS, requested_eps, solve_oracle


def reference_for(workload):
    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent.parent) as tmp:
        records = WORKLOADS[workload](0, Path(tmp))
    out = {}
    for rec in records:
        entry = {"value": rec["value"], "radius": rec["radius"],
                 "limit": requested_eps(rec["id"])}
        kind, family, n = (rec["id"].split("/") + [""])[:3]
        if workload == "exact-large-n" and kind == "geom":
            err, cert = solve_oracle(family, int(n.removeprefix("n=")))
            entry.update(value=[err], radius=[cert], oracle="geometric_series_solve")
        out[rec["id"]] = entry
    return out


def main():
    reference = {}
    for workload in sorted(WORKLOADS):
        print(f"reference: {workload}", file=sys.stderr)
        reference[workload] = reference_for(workload)
    checks.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                                encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
