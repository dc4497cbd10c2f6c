"""Tests of the benchmark harness itself (not of opgeom).

    python3 -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import opgeom
import opgeom.cli
import checks
import tracer as tracing
import worker

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


def _opgeom_bindings():
    """Every attribute of every opgeom module and class, by identity."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "opgeom" or name.startswith("opgeom.")):
            continue
        for key, value in list(vars(mod).items()):
            out[(name, key)] = value
            if isinstance(value, type) and value.__module__.startswith("opgeom"):
                for attr, member in vars(value).items():
                    out[(name, key, attr)] = member
    return out


def test_synthetic_spans_nest_and_self_times_add_up():
    t = tracing.Tracer()

    def leaf():
        time.sleep(0.02)

    def middle():
        time.sleep(0.01)
        leaf_w()
        leaf_w()

    leaf_w = t.wrap("leaf", leaf)
    middle_w = t.wrap("middle", middle)
    with t.span("root"):
        middle_w()
    names = [s[0] for s in t.spans]
    assert names == ["root", "middle", "leaf", "leaf"]
    assert [s[3] for s in t.spans] == [-1, 0, 1, 1]
    for name, start, end, parent, _ in t.spans[1:]:
        assert t.spans[parent][1] <= start <= end <= t.spans[parent][2]
    selfs = t.self_times()
    assert selfs["leaf"] == pytest.approx(0.04, abs=0.015)
    assert selfs["middle"] == pytest.approx(0.01, abs=0.015)
    root = t.spans[0]
    assert sum(selfs.values()) == pytest.approx(root[2] - root[1], rel=1e-9)
    assert t.counters["leaf.calls"] == 2


def test_traced_cli_run_self_times_sum_to_traced_wall(tmp_path):
    t = tracing.Tracer()
    start = time.perf_counter()
    with tracing.traced(t), t.span(tracing.ROOT_SPAN):
        code = opgeom.cli.main(["geom", "--family", "bernstein", "--function", "e1",
                                "--n-list", "4,8", "-o", str(tmp_path / "g.csv")])
    wall = time.perf_counter() - start
    assert code == 0
    stack_ok = all(s[3] < i and t.spans[s[3]][1] <= s[1] <= s[2] <= t.spans[s[3]][2]
                   for i, s in enumerate(t.spans) if s[3] >= 0)
    assert stack_ok
    assert {s[0] for s in t.spans} >= {"experiments.run", "series.neumann",
                                       "operators.node_discretization",
                                       "operators.advance", "funcspace.F_transform"}
    total_self = sum(t.self_times().values())
    root = t.spans[0]
    assert total_self == pytest.approx(root[2] - root[1], rel=1e-9)
    # What the spans do not cover is the context managers' own cost.
    assert 0.0 <= wall - total_self <= 0.01
    metrics = t.layer_metrics(wall)
    assert metrics["operators.node_discretization.builds"]["value"] == 2
    assert metrics["series.neumann.calls"]["value"] == 2


def test_wrappers_are_removed_after_the_traced_run(tmp_path):
    before = _opgeom_bindings()
    t = tracing.Tracer()
    with tracing.traced(t):
        patched = _opgeom_bindings()
        assert opgeom.operators.mkz_weight_matrix is not before[
            ("opgeom.operators", "mkz_weight_matrix")]
        assert opgeom.experiments.geometric_series_neumann is not before[
            ("opgeom.experiments", "geometric_series_neumann")]
        opgeom.cli.main(["geom", "--family", "bernstein", "--n-list", "4",
                         "-o", str(tmp_path / "g.csv")])
    after = _opgeom_bindings()
    changed = [k for k in before if before[k] is not patched.get(k)]
    assert len(changed) >= len(tracing.TARGETS)
    assert all(after[k] is before[k] for k in before)
    assert t.counters["series.neumann.calls"] == 1


def test_corrupted_reference_makes_fail_frac_nonzero(tmp_path):
    reference = checks.load_reference()["pointwise-mkz"]
    summary = worker.run_once("pointwise-mkz", 0, tmp_path, reference)
    assert summary["failed"] == 0 and summary["attempted"] == 23
    records = json.loads((tmp_path / "records.json").read_text())

    corrupted = json.loads(json.dumps(reference))
    row = corrupted["conditions/n=8"]
    row["value"][0] *= 1.05
    attempted, failed, messages = checks.check(records, corrupted)
    assert failed / attempted > 0
    assert messages[0].startswith("conditions/n=8:")

    del corrupted["conditions/n=8"]
    corrupted["invariants/positivity"]["value"] = None
    records[-1]["passed"] = False
    attempted, failed, _ = checks.check(records, corrupted)
    assert failed == 2  # the failed invariant row and the unknown row


def test_certificate_beyond_the_requested_accuracy_fails():
    ref = {"geom/x/n=4": {"value": [0.5], "radius": [1e-7], "limit": 1e-6}}
    rec = {"id": "geom/x/n=4", "value": [0.5 + 5e-7], "radius": [9e-7],
           "passed": True, "terms": 10}
    assert checks.check([rec], ref)[1] == 0
    rec["radius"] = [2e-6]
    assert checks.check([rec], ref)[1] == 1


def test_layer_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert declared == list(tracing.LAYER_METRICS)


def test_run_refuses_a_directory_without_opgeom(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "geom-mkz",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
