"""Tests of the benchmark itself: ``python3 -m pytest perfbench``.

The end-to-end tests run the liouville workload, the cheapest one (about
8 s per CLI run), through ``run.py`` exactly as the benchmark command does.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
COUNT_KEYS = ("calls", "steps", "sweeps", "outer_iters", "inner_convs",
              "pairs_used", "tap_cells", "padded_cells")

_spec = importlib.util.spec_from_file_location("perfbench_run", os.path.join(BENCH_DIR, "run.py"))
bench = sys.modules["perfbench_run"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


def _declared(kind: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def _bench(trace: int, seed: int = 0) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", "liouville",
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=180,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


def test_declared_metrics_match_the_tables():
    assert dict(bench.END_TO_END) == _declared("end_to_end")
    assert dict(bench.PER_LAYER) == _declared("per_layer")


def test_untraced_run_reports_every_end_to_end_metric():
    metrics = _bench(trace=0)["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == _declared("end_to_end")
    assert all(v["value"] > 0 for v in metrics.values())


def test_two_traced_runs_give_equal_counts():
    a, b = _bench(trace=1)["metrics"], _bench(trace=1)["metrics"]
    assert {k: v["unit"] for k, v in a.items()} == _declared("per_layer")
    counts = sorted(m for m in a if m.rsplit(".", 1)[1] in COUNT_KEYS)
    assert {m.rsplit(".", 1)[1] for m in counts} == set(COUNT_KEYS)
    assert [a[m]["value"] for m in counts] == [b[m]["value"] for m in counts]
    assert a["solver.evolve.steps"]["value"] > 0
    assert a["grid.holder_quotient.calls"]["value"] > 0


def test_layer_metrics_self_time_and_coverage():
    spans = [
        ["solver.maximal_solution", 0.0, 10.0, None, {"outer_iters": 2}],
        ["solver.resolvent_solve", 1.0, 5.0, 0, None],
        ["convolve.fast", 1.0, 2.0, 1, {"padded_cells": 100}],
        ["convolve.fast", 3.0, 4.0, 1, {"padded_cells": 100}],
        ["convolve.fast", 6.0, 7.0, 0, {"padded_cells": 100}],
        ["grid.field_to_csv", 11.0, 12.0, None, {"bytes": 5}],
    ]
    m = bench.layer_metrics(spans, traced_s=16.0, untraced_s=15.0)
    assert m["solver.maximal_solution.self_s"] == 10.0 - 4.0 - 1.0
    assert m["solver.resolvent_solve.self_s"] == 2.0
    assert m["solver.resolvent_solve.inner_convs"] == 2
    assert m["convolve.fast.calls"] == 3 and m["convolve.fast.padded_cells"] == 300
    assert m["solver.maximal_solution.outer_iters"] == 2
    assert m["trace.coverage"] == 11.0 / 16.0
    assert m["trace.overhead_s"] == 1.0
    assert m["grid.holder_quotient.exact_frac"] == 0.0


def test_gate_rejects_a_failed_certificate(tmp_path):
    wl = bench.WORKLOADS["maximal"]
    for name in wl.artifacts:
        (tmp_path / name).write_text("")
    checks = [{"name": "final_increment", "passed": True, "measured": 1e-11},
              {"name": "max_above_theta", "passed": False, "measured": 0.2}]
    (tmp_path / wl.artifacts[0]).write_text(json.dumps({"passed": False, "checks": checks}))
    assert bench.gate(wl, 0, str(tmp_path)) == [
        "report passed is not true", "certificate max_above_theta did not pass"]
    (tmp_path / "iterations.csv").unlink()
    assert "missing artifact iterations.csv" in bench.gate(wl, 1, str(tmp_path))
