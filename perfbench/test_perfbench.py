"""Tests of the benchmark itself: its counts repeat, tracing changes no
gradient bit, span self times add up to the step, and a run is hermetic.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import measure
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Counts a run of one seed must reproduce exactly.
COUNTS = (
    "scan.ops",
    "scan.flops",
    "scan.bytes",
    "scan.levels",
    "scan.op.dense_mm",
    "scan.op.sparse_mm",
    "scan.op.mixed_mm",
    "scan.op.mv",
    "backend.tasks",
    "sparse.plan_misses",
    "sparse.plan_misses_cold",
    "jacobian.stored_values",
)

#: LeNet's step takes over a second; the repeated-run tests skip it.
FAST = ["rnn_bitstream", "pruned_mlp_retrain"]


@pytest.fixture(scope="module", params=FAST)
def traced_pair(request):
    """Two short traced measurements of one workload and seed."""
    return [measure.measure(request.param, 5, 0.2, trace=True) for _ in range(2)]


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.BUILDERS)


def test_counts_repeat_exactly(traced_pair):
    first, second = (r["layers"] for r in traced_pair)
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}
    assert first["scan.ops"] > 0 and first["jacobian.stored_values"] > 0


def test_traced_run_reports_every_layer_metric(traced_pair):
    result = traced_pair[0]
    assert {m["name"] for m in SPEC["per_layer"]} <= set(result["layers"])
    assert result["failed"] == 0 and result["grad_checks"] == 2


def test_span_self_times_sum_to_traced_step(traced_pair):
    for result in traced_pair:
        ratios = result["self_sum_ratios"]
        assert ratios and all(abs(r - 1.0) <= 0.05 for r in ratios)


@pytest.mark.parametrize("name", list(workloads.BUILDERS))
def test_tracing_changes_no_gradient_bit(name):
    plain, traced = workloads.build(name, 7), workloads.build(name, 7)
    engine = traced.engine
    for x, y in plain.batches[:2]:
        want = plain.step(x, y)
        tracer = spans.Tracer()
        tracer.start_step()
        with spans.instrument(traced, tracer), tracer.span("step"):
            got = traced.step(x, y)
        pairs = zip(plain.model.parameters(), traced.model.parameters())
        assert all(np.array_equal(want[id(p)], got[id(q)]) for p, q in pairs)
    names = {s.name for s in tracer.spans}
    assert {"step", "nn.forward", "jacobian.gen", "scan", "backend.level", "scan.op"} <= names
    assert "compute_gradients" not in vars(engine) and "op" not in vars(engine.context)
    assert not isinstance(engine.executor, spans.TracingExecutor)
    for p, q in zip(plain.model.parameters(), traced.model.parameters()):
        assert np.array_equal(p.data, q.data)


def test_step_metrics_fold_self_times():
    tracer = spans.Tracer()
    tracer.start_step()
    with tracer.span("step"):
        with tracer.span("scan"):
            tracer.begin("backend.level")
            with tracer.span("scan.op"):
                pass
            tracer.spans[-1].attrs.update(kind="mv", bytes=10)
            tracer.end().update(tasks=1, phase="up")
    m = spans.step_metrics(tracer.spans)
    root = tracer.spans[-1]
    assert root.name == "step" and root.parent is None
    assert m["trace.self_sum_ms"] == pytest.approx((root.end_ns - root.start_ns) * 1e-6)
    assert m["scan.ms"] == pytest.approx(m["scan.dispatch_ms"] + m["backend.level_ms"])
    assert m["scan.op.mv"] == 1 and m["scan.bytes"] == 10 and m["scan.levels"] == 1


def _run_bench(cwd: Path, *extra_env: str):
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_SCAN_")}
    env.update(kv.split("=", 1) for kv in extra_env)
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pruned_mlp_retrain",
         "--seed", "1", "--seconds", "0.3", "--trace", "0"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=170,
    )


def test_run_fails_without_source_tree(tmp_path):
    (tmp_path / "perfbench").mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in (ROOT / "perfbench").glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench")
    proc = _run_bench(tmp_path)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout


def test_run_refuses_scan_environment():
    proc = _run_bench(ROOT, "REPRO_SCAN_BACKEND=serial")
    assert proc.returncode != 0 and "REPRO_SCAN_BACKEND" in proc.stderr


def _git_status():
    if shutil.which("git") is None:
        return None
    proc = subprocess.run(
        ["git", "status", "--porcelain", "--untracked-files=all"],
        cwd=ROOT, capture_output=True, text=True,
    )
    return proc.stdout if proc.returncode == 0 else None


def test_run_is_hermetic_and_prints_every_metric():
    before = _git_status()
    proc = _run_bench(ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert f"{m['name']} " in proc.stdout
    if before is not None:
        assert _git_status() == before
