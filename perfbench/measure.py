"""Measure one workload in this process: set-up, timed loop, checks, trace.

``python3 perfbench/measure.py --workload NAME --seed N --seconds S
--trace 0|1`` prints one JSON object on its last stdout line; with
``--setup-only`` it builds the workload, runs the cold step and prints
only the set-up time.  ``perfbench/run.py`` starts this module in fresh
processes (with ``src`` on the path and BLAS pinned) and reports the
result.

Closed loop, one trainer: the next step starts when the previous one
finishes.  A step is ``compute_gradients``, ``apply_gradients``,
``optimizer.step`` and, for the pruned MLP, the mask re-apply and
assert.  It fails if it raises, if its loss is not finite, or if it
fails the taped-BP check, which runs outside the timed region on the
cold (first) step and on a final step after the timed phase.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import time
from typing import Any, Dict, List, Optional

import numpy as np

import spans
import workloads

#: Gradient-check scale, as in tests/test_core_equivalence.py:
#: max|g_bppsa - g_bp| <= GRAD_RTOL * max(1, max|g_bp|), per parameter.
GRAD_RTOL = 1e-9

#: Warm-up after the cold step: at least this many steps and seconds.
WARMUP_STEPS, WARMUP_SECONDS = 1, 0.5

#: Every timed phase runs at least this many steps, however short,
#: unless more than MAX_FAILURES steps have failed.
MIN_PHASE_STEPS, MAX_FAILURES = 2, 100

#: Percentiles step_ms_tail may report.  The fixed grid keeps a run's
#: tail at the same depth from run to run; on a shared 2-vCPU host the
#: p99 of a 7 ms step spread 0.18 (IQR/median) across runs, its p90 0.08.
TAIL_PERCENTILES = (50.0, 90.0)

#: Taped BP and BPPSA gradients are each timed outside the loop for at
#: least this many repeats and seconds, and reported as medians.
COMPARE_REPEATS, COMPARE_SECONDS = 3, 0.5


def grad_mismatch(workload, grads: Dict[int, np.ndarray], ref) -> Optional[str]:
    """``None`` when every parameter gradient matches taped BP."""
    for i, p in enumerate(workload.model.parameters()):
        want = ref[id(p)]
        got = grads.get(id(p))
        if got is None:
            return f"parameter {i}: no BPPSA gradient"
        err = float(np.max(np.abs(got.reshape(want.shape) - want)))
        tol = GRAD_RTOL * max(1.0, float(np.max(np.abs(want))))
        if not err <= tol:
            return f"parameter {i}: max|g_bppsa - g_bp| = {err:.3e} > {tol:.3e}"
    return None


def xent(logits: np.ndarray, targets: np.ndarray) -> float:
    shifted = logits - logits.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1))
    return float(np.mean(logz - shifted[np.arange(len(targets)), targets]))


def counters(workload) -> Dict[str, int]:
    """The counters the engine's scan context already keeps."""
    ctx = workload.engine.context
    stats = ctx.cache.stats()
    return {
        "hits": stats["hits"],
        "misses": stats["misses"],
        "allocations": ctx.arena.allocations,
        "ops": len(ctx.trace),
        "flops": ctx.total_flops,
    }


class Run:
    """One workload's measurement: the step loop and its failure ledger."""

    def __init__(self, name: str, seed: int) -> None:
        self.attempted = 0
        self.failures: List[str] = []
        self.checks = 0
        self.batch_index = 0
        # Set-up: build, then the cold step; the taped-BP reference for
        # the cold step is computed in between, outside the timer.
        start = time.perf_counter()
        self.workload = workloads.build(name, seed)
        built = time.perf_counter() - start
        self.setup_s = built + self.checked_step()
        self.cold_counters = counters(self.workload)

    def next_batch(self):
        batches = self.workload.batches
        batch = batches[self.batch_index % len(batches)]
        self.batch_index += 1
        return batch

    def step(self, x, y, tracer: Optional[spans.Tracer] = None):
        """One step; returns ``(seconds, grads)``, or ``(None, None)``
        if it failed."""
        self.attempted += 1
        try:
            start = time.perf_counter()
            if tracer is None:
                grads = self.workload.step(x, y)
            else:
                with tracer.span("step"):
                    grads = self.workload.step(x, y)
            seconds = time.perf_counter() - start
        except Exception as exc:  # a failed step is counted, not fatal
            self.failures.append(f"step {self.attempted}: {exc!r}")
            return None, None
        loss = xent(self.workload.engine.last_logits, y)
        if not math.isfinite(loss):
            self.failures.append(f"step {self.attempted}: loss {loss}")
            return None, None
        return seconds, grads

    def checked_step(self) -> float:
        """A step checked against taped BP on the same parameters and
        batch; returns its seconds (NaN if it failed)."""
        x, y = self.next_batch()
        ref = self.workload.taped_grads(x, y)
        seconds, grads = self.step(x, y)
        if grads is None:
            return math.nan
        self.checks += 1
        problem = grad_mismatch(self.workload, grads, ref)
        if problem is not None:
            self.failures.append(f"step {self.attempted}: {problem}")
        return seconds

    def phase(self, seconds: float, tracer: Optional[spans.Tracer] = None):
        """Closed-loop steps for ``seconds``.  Returns the seconds of the
        untraced steps, those of the traced steps with their layer
        metrics, and the wall time.  With a tracer, untraced and traced
        steps alternate, so both see the same load on the machine and
        their difference is the tracing overhead."""
        untraced, traced, layers = [], [], []
        needed = [untraced, traced] if tracer is not None else [untraced]
        gc.collect()
        start = time.perf_counter()
        while time.perf_counter() - start < seconds or any(
            len(times) < MIN_PHASE_STEPS for times in needed
        ):
            dt, _ = self.step(*self.next_batch())
            if dt is not None:
                untraced.append(dt)
            if tracer is not None:
                with spans.instrument(self.workload, tracer):
                    tracer.start_step()
                    before = counters(self.workload)
                    dt, _ = self.step(*self.next_batch(), tracer)
                    if dt is not None:
                        traced.append(dt)
                        layers.append(self._layer_step(tracer, before, dt))
            if len(self.failures) > MAX_FAILURES:
                break
        return untraced, traced, layers, time.perf_counter() - start

    def _layer_step(self, tracer, before, seconds) -> Dict[str, float]:
        m = spans.step_metrics(tracer.spans)
        after = counters(self.workload)
        m["sparse.plan_hits"] = after["hits"] - before["hits"]
        m["sparse.plan_misses"] = after["misses"] - before["misses"]
        m["sparse.arena_allocations"] = after["allocations"] - before["allocations"]
        m["scan.ops"] = after["ops"]
        m["scan.flops"] = after["flops"]
        m["trace.self_sum_ratio"] = m["trace.self_sum_ms"] / (seconds * 1e3)
        return m

    def warm_up(self) -> None:
        start = time.perf_counter()
        n = 0
        while n < WARMUP_STEPS or time.perf_counter() - start < WARMUP_SECONDS:
            self.step(*self.next_batch())
            n += 1

    def compare_to_bp(self) -> Dict[str, float]:
        """Taped BP and BPPSA gradients on the same model and batch,
        timed outside the loop (medians, ms)."""
        x, y = self.workload.batches[0]
        engine = self.workload.engine
        bp = _median_ms(lambda: self.workload.taped_grads(x, y))
        bppsa = _median_ms(lambda: engine.compute_gradients(x, y))
        return {
            "tensor.bp_step_ms": bp,
            "tensor.bppsa_grad_ms": bppsa,
            "tensor.speedup_vs_bp": bp / bppsa,
        }


def _median_ms(fn) -> float:
    times = []
    start = time.perf_counter()
    while len(times) < COMPARE_REPEATS or time.perf_counter() - start < COMPARE_SECONDS:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def tail(times_ms: List[float]) -> Dict[str, float]:
    """The highest percentile of :data:`TAIL_PERCENTILES` with at least
    ten samples beyond it (nearest rank).  Below p50 that is the
    11th-largest sample, at percentile ``100 (n - 10) / n``; with ten
    samples or fewer, the largest."""
    ordered = sorted(times_ms)
    n = len(ordered)
    if n <= 10:
        pct, rank = 100.0, n
    else:
        exact = 100.0 * (n - 10) / n
        pct = max((p for p in TAIL_PERCENTILES if p <= exact), default=exact)
        rank = min(n - 10, math.ceil(pct * n / 100.0 - 1e-9))
    return {"value": ordered[rank - 1], "percentile": pct, "samples": n, "beyond": n - rank}


def environment(workload) -> Dict[str, Any]:
    """What actually ran: resolved scan config, kernel build, CPUs, BLAS."""
    from repro.scan.kernels import numba_available

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "scan_config": workload.engine.config.spec(),
        "numba_available": numba_available(),
        "cpus_affinity": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def blas_threads() -> Optional[int]:
    """The loaded OpenBLAS's own thread count, or ``None`` if unknown."""
    import ctypes

    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def measure(name: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """The whole measurement of one workload; see the module docstring."""
    run = Run(name, seed)
    run.warm_up()
    tracer = spans.Tracer() if trace else None
    untraced, traced, layers, wall = run.phase(seconds, tracer)
    out: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "setup_s": run.setup_s,
        "env": environment(run.workload),
    }
    steps_ms = [t * 1e3 for t in untraced]
    if not trace:
        out["step_ms_p50"] = statistics.median(steps_ms)
        out["step_ms_tail"] = tail(steps_ms)
        out["samples_per_s"] = len(untraced) * run.workload.batch_size / wall
    else:
        out["layers"] = reduce_layers(layers, run)
        out["layers"]["step.untraced_ms_p50"] = statistics.median(steps_ms)
        out["layers"]["step.traced_ms_p50"] = statistics.median(t * 1e3 for t in traced)
        out["layers"]["trace.overhead_ms"] = (
            out["layers"]["step.traced_ms_p50"] - out["layers"]["step.untraced_ms_p50"]
        )
        out["layers"].update(run.compare_to_bp())
        out["self_sum_ratios"] = [m["trace.self_sum_ratio"] for m in layers]
    run.checked_step()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["attempted"] = run.attempted
    out["failed"] = len(run.failures)
    out["failures"] = run.failures[:20]
    out["grad_checks"] = run.checks
    return out


def reduce_layers(layers: List[Dict[str, float]], run: Run) -> Dict[str, float]:
    """Median over traced steps of each per-step layer metric."""
    keys = sorted({k for m in layers for k in m})
    out = {k: statistics.median(m.get(k, 0.0) for m in layers) for k in keys}
    hits = sum(m["sparse.plan_hits"] for m in layers)
    lookups = hits + sum(m["sparse.plan_misses"] for m in layers)
    out["sparse.plan_hit_rate"] = hits / lookups if lookups else 0.0
    out["sparse.plan_misses_cold"] = run.cold_counters["misses"]
    out["sparse.arena_allocations_cold"] = run.cold_counters["allocations"]
    return out


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if args.setup_only:
        run = Run(args.workload, args.seed)
        result = {"setup_s": run.setup_s, "failed": len(run.failures)}
    else:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
