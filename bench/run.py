"""Benchmark entry: time to a certified result, per workload.

    python3 bench/run.py --workload geom-mkz --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all          # every workload, timed and traced
    python3 bench/run.py --check                 # untimed output check only

Every timed repetition is a fresh process (bench/worker.py) that imports
opgeom from this checkout's ``src``, runs the workload once and checks
its outputs.  With ``--trace 0`` repetitions run until ``--seconds`` have
passed and the end-to-end metrics are medians over them; with
``--trace 1`` one untraced and one traced process give the per-layer
metrics and the tracing overhead.  The last line of standard output is
one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("geom-mkz", "batch-mkz", "pointwise-mkz", "exact-large-n")
SETUP_PROBES = 3  # import-only processes per timed run, besides the workers
DEADLINE_S = 170.0  # a run must end within 180 s
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB"))


class BenchError(RuntimeError):
    pass


def _spawn(args, deadline):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a process")
    started = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), *args],
                              env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {' '.join(args)} timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["imported"] - started
    return result


def _worker(workload, seed, deadline, trace=False):
    out = OUT / f"{workload}-seed{seed}-{'traced' if trace else 'timed'}"
    args = ["--workload", workload, "--seed", str(seed), "--out", str(out)]
    return _spawn(args + (["--trace"] if trace else []), deadline)


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def timed(workload, seed, seconds, deadline):
    """Repeat the workload in fresh processes for `seconds` (at least once)."""
    setup = [_spawn(["--probe"], deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    runs = []
    begin = time.monotonic()
    while True:
        runs.append(_worker(workload, seed, deadline))
        elapsed = time.monotonic() - begin
        if elapsed >= seconds or time.monotonic() + elapsed / len(runs) > deadline:
            break
    setup += [r["setup_s"] for r in runs]
    samples = {"setup_s": setup}
    for key in ("wall_s", "cpu_s", "peak_rss_mb"):
        samples[key] = [r[key] for r in runs]
    return runs, samples


def traced(workload, seed, deadline):
    plain = _worker(workload, seed, deadline)
    trace = _worker(workload, seed, deadline, trace=True)
    layers = dict(trace["layers"])
    layers["trace.overhead"] = {"value": trace["wall_s"] / plain["wall_s"] - 1.0,
                                "unit": "ratio"}
    return [plain, trace], layers


def _counts(runs):
    """Counts that must repeat exactly: Neumann terms per operation, and in
    a traced run the carriers' node counts and the advance calls."""
    out = {"neumann_terms": runs[-1]["terms"]}
    for r in runs:
        if "carriers" in r:
            out["carrier_nodes"] = {f"{fam} n={n}": nodes for fam, n, nodes in r["carriers"]}
            out["advance_calls"] = r["advance_calls"]
    return out


def _baseline_note(workload, counts):
    path = BENCH / "baseline.json"
    if not path.exists():
        return "no recorded baseline"
    base = json.loads(path.read_text(encoding="utf-8")).get("counts", {}).get(workload, {})
    differ = [key for key, value in counts.items() if key in base and base[key] != value]
    if differ:
        return "differ from the recorded baseline in " + ", ".join(differ)
    return "same as the recorded baseline"


def run_one(workload, seed, seconds, trace, deadline):
    import machine

    if trace:
        runs, metrics = traced(workload, seed, deadline)
        samples = {}
    else:
        runs, samples = timed(workload, seed, seconds, deadline)
        metrics = {key: {"value": statistics.median(samples[key]), "unit": unit}
                   for key, unit in END_TO_END}
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    counts = _counts(runs)
    record = {"workload": workload, "seed": seed, "trace": int(trace),
              "repetitions": len(runs), "metrics": metrics,
              "samples": samples,
              "attempted": attempted, "failed": failed,
              "fail_frac": failed / attempted, "counts": counts,
              "failures": [m for r in runs for m in r["failures"]],
              "machine": machine.record(ROOT)}
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"{workload} seed={seed} trace={int(trace)}: {len(runs)} process(es), "
          f"{attempted // len(runs)} operations each")
    for key, m in metrics.items():
        extra = ""
        if key in samples:
            q1, q3 = _quartiles(samples[key])
            extra = f"  (q1 {q1:.4g}, q3 {q3:.4g}, n={len(samples[key])})"
        print(f"  {key:<42} {m['value']:>14.6g} {m['unit']}{extra}")
    print(f"  {'fail_frac':<42} {failed / attempted:>14.6g}  ({failed} of {attempted})")
    for message in record["failures"][:20]:
        print(f"  FAIL {message}")
    print(f"  counts {json.dumps(counts, sort_keys=True)}: "
          f"{_baseline_note(workload, counts)}")
    mach = record["machine"]
    print(f"  machine: {mach['cpu_model']}, nproc {mach['nproc']}, {mach['caches']}, "
          f"BLAS {mach['blas']}, numpy {mach['numpy']}, scipy {mach['scipy']}, "
          f"python {mach['python']}, git {mach['git_sha']}")
    print(f"  record: {path.relative_to(ROOT)}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def check_all(workloads, deadline):
    bad = 0
    for workload in workloads:
        r = _worker(workload, 0, deadline)
        bad += r["failed"]
        print(f"{workload}: {r['attempted'] - r['failed']} of {r['attempted']} "
              f"operations within their certificates")
        for message in r["failures"]:
            print(f"  FAIL {message}")
    return 1 if bad else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", action="store_true",
                        help="run each workload once, untimed, and check its outputs")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "opgeom" / "__init__.py").is_file():
        print(f"error: no opgeom sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not (BENCH / "reference.json").is_file():
        print("error: bench/reference.json is missing", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        if args.check:
            return check_all(workloads, time.monotonic() + 600.0 * len(workloads))
        if args.workload != "all":
            result = run_one(args.workload, args.seed, args.seconds, bool(args.trace),
                             time.monotonic() + DEADLINE_S)
            print(json.dumps(result))
            return 0
        for workload in workloads:
            for trace in (False, True):
                result = run_one(workload, args.seed, args.seconds, trace,
                                 time.monotonic() + DEADLINE_S)
                print(json.dumps(result))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
