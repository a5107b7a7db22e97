"""Smoke tests for the benchmark: each workload at tiny size, untraced and
traced, the self-time arithmetic of the tracer, and the refusal to run
without the program's sources."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from bench_trace import Tracer, layer_totals, root_duration, self_times  # noqa: E402
from bench_workloads import WORKLOADS, ar1_design  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace, cwd=ROOT, bench_dir=HERE):
    return subprocess.run(
        [sys.executable, str(bench_dir / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_workload(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= (5 if trace else 2)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    if trace:
        self_total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
        assert self_total == pytest.approx(metrics["trace.wall_s"], rel=1e-9, abs=1e-9)
        assert metrics["harness.write.bytes"] > 0
    else:
        assert all(v > 0 for v in metrics.values())


def test_self_times_partition_the_root_span():
    spans = [
        ["cli", -1, 0.0, 10.0, None],
        ["harness", 0, 1.0, 9.0, None],
        ["regression.fit", 1, 2.0, 4.0, None],
        ["regression.fit", 1, 5.0, 6.0, None],
        ["bayesfactors.scalar_opt", 3, 5.25, 5.75, {"nfev": 7}],
    ]
    assert self_times(spans) == pytest.approx([2.0, 5.0, 2.0, 0.5, 0.5])
    totals = layer_totals(spans)
    assert totals["regression.fit"] == {"calls": 2, "self_s": pytest.approx(2.5)}
    assert totals["bayesfactors.scalar_opt"]["nfev"] == 7
    assert totals["nonparametric.optimizer"] == {"calls": 0, "self_s": 0.0}
    assert sum(t["self_s"] for t in totals.values()) == pytest.approx(root_duration(spans))


def test_self_time_counts_overlapping_children_once():
    spans = [["a", -1, 0.0, 10.0, None], ["b", 0, 1.0, 4.0, None], ["c", 0, 3.0, 6.0, None]]
    assert self_times(spans)[0] == pytest.approx(5.0)


def test_tracer_records_nesting_and_counters():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1, count=lambda a, k, r: {"bytes": r})
    outer = tracer.wrap("outer", lambda x: inner(inner(x)))
    assert outer(1) == 3
    names = [(s[0], s[1], s[4]) for s in tracer.spans]
    assert names == [("outer", -1, None), ("inner", 0, {"bytes": 2}),
                     ("inner", 0, {"bytes": 3})]
    assert layer_totals(tracer.spans)["inner"]["bytes"] == 5


def test_bf_wide_design_is_the_package_construction():
    from ml2bf import CorrelationSpec, make_correlated_design

    expected = make_correlated_design(100, 12, CorrelationSpec.ar1(0.5),
                                      np.random.default_rng(5))
    np.testing.assert_array_equal(ar1_design(np.random.default_rng(5), 100, 12, 0.5),
                                  expected)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("table1", 0, cwd=tmp_path, bench_dir=tmp_path / "perfbench")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
