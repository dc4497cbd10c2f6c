"""One benchmark process: import opgeom, run one workload once, check it,
and print a JSON summary as the last line of standard output.

    python3 bench/worker.py --probe
    python3 bench/worker.py --workload geom-mkz --seed 0 --out DIR [--trace]

``run.py`` starts this file with ``PYTHONPATH`` pointing at the checkout's
``src``.  Nothing but opgeom is imported before the import timestamp, so
set-up time is interpreter start plus ``import opgeom``.
"""

import time

import opgeom  # noqa: E402  (first import: this is what set-up measures)
import opgeom.cli  # noqa: F401

IMPORTED = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _cpu_s():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _run_and_check(fn, seed, out, reference):
    try:
        records = fn(seed, out)
    except Exception:
        # A crash fails every operation of the workload; the run goes on
        # to report it.
        traceback.print_exc()
        records = []
    (out / "records.json").write_text(json.dumps(records), encoding="utf-8")
    return records, checks.check(records, reference)


def run_once(workload, seed, out: Path, reference, tracer=None):
    """Run and check one workload; returns the summary dict."""
    out.mkdir(parents=True, exist_ok=True)
    fn = WORKLOADS[workload]
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    if tracer is None:
        records, (attempted, failed, messages) = _run_and_check(fn, seed, out, reference)
    else:
        with tracing.traced(tracer), tracer.span(tracing.ROOT_SPAN):
            records, (attempted, failed, messages) = _run_and_check(
                fn, seed, out, reference)
    wall = time.perf_counter() - t0
    cpu = _cpu_s() - cpu0
    terms = {r["id"]: r["terms"] for r in records if r["terms"] is not None}
    summary = {"wall_s": wall, "cpu_s": cpu,
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
               "attempted": attempted, "failed": failed, "failures": messages,
               "terms": terms}
    if tracer is not None:
        summary["layers"] = tracer.layer_metrics(wall)
        summary["carriers"] = tracer.carriers
        summary["advance_calls"] = tracer.counters.get("operators.advance.calls", 0)
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--probe", action="store_true",
                        help="only import opgeom and report the time")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    result = {"imported": IMPORTED}
    if not args.probe:
        if args.workload is None or args.out is None:
            parser.error("--workload and --out are required")
        reference = checks.load_reference()[args.workload]
        tracer = tracing.Tracer() if args.trace else None
        result.update(run_once(args.workload, args.seed, args.out, reference, tracer))
        if tracer is not None:
            tracer.write(args.out / "spans.json.gz")
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
