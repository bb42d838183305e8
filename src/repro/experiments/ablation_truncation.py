"""Ablation: truncation depth of the balanced Blelloch scan (§5.2).

The paper adopts a *truncated* scan for the pruned-VGG-11 benchmark
because "the sparsity of the product matrix might reduce after each
multiplication, [so] the per-step complexity might increase as the
up-sweep progresses into deeper levels", and balancing up/down levels
"achieve[s] an overall speedup".  This ablation quantifies that design
choice in two parts.

**Static** (``rows``).  Sweep ``up_levels`` from 0 (pure serial scan)
to full Blelloch over the pruned-VGG-11 scan analysis and report, for
each depth, the maximum critical-step FLOPs (per-step complexity,
P_Blelloch), the total FLOPs (work), and the number of parallel levels
(step complexity proxy).  Expected shape: total work and per-step cost
grow with depth (denser high-level products) while the level count
shrinks.

**Measured** (``measured``).  For LeNet-5, pruned VGG-11, the Fig. 9
RNN and the registered ``transformer_block``, time every depth on the
``serial`` and ``thread:2`` executors — median and IQR of at least 5
consecutive repeats after warm-up — next to the depth's static per-sample work and
its modeled two-worker critical path (:mod:`repro.scan.shape`).  An
``auto`` row names the shape ``algorithm="auto"`` ran on each executor
and times it.  The engine models time one gradient step
(``compute_gradients``); pruned VGG-11 times the backward scan over its
feature Jacobians, the paper's §4.2 micro-benchmark.

**Gate** (``gate``, ROADMAP 4): on ``serial``, ``auto`` takes at most
:data:`GATE_RATIO` × the time of the best fixed depth, the two timed
alternately call by call so machine noise hits both alike.
``thread:2`` is reported the same way but not gated.
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from repro.analysis import StaticScanAnalyzer
from repro.config import ScanConfig, build_engine
from repro.experiments.common import Scale, format_table, print_report
from repro.experiments.fig11_flops import PARAMS as FIG11_PARAMS
from repro.experiments.fig11_flops import _stage_patterns
from repro.nn import VGG11, LeNet5, RNNClassifier
from repro.nn.loss import softmax_xent_grad
from repro.pruning import magnitude_prune
from repro.scan import (
    DenseJacobian,
    GradientVector,
    SparseJacobian,
    blelloch_num_levels,
)
from repro.scan.shape import critical_paths, observe_shapes, shape_of_depth, shape_spec
from repro.serve import ScanEngine
from repro.workloads import get_workload

PARAMS = {
    Scale.SMOKE: {
        **FIG11_PARAMS[Scale.SMOKE],
        "depths": [0, 1, 2, 3, 4, 8],
        "lenet": {"width": 0.25, "batch": 2},
        "rnn": {"seq_len": 64, "hidden": 20, "batch": 4},
        "timing": {"repeats": 5, "min_seconds": 0.05},
    },
    Scale.PAPER: {
        **FIG11_PARAMS[Scale.PAPER],
        "depths": [0, 1, 2, 3, 4, 8],
        "lenet": {"width": 0.25, "batch": 16},
        "rnn": {"seq_len": 1000, "hidden": 20, "batch": 16},
        "timing": {"repeats": 5, "min_seconds": 1.0},
    },
}

#: Executors every depth is timed on; the gate reads ``serial``.
BACKENDS = ("serial", "thread:2")

#: ROADMAP 4's bound on ``auto`` against the best fixed depth.
GATE_RATIO = 1.1

#: A model under test: its scan items (for the static costs) and a
#: factory turning a config into ``(one_step, engine)``.
Model = Tuple[List[Any], Callable[[ScanConfig], Tuple[Callable[[], Any], Any]]]


def run(scale: Scale = Scale.SMOKE, seed: int = 0, config=None) -> Dict:
    """The static depth sweep plus the measured per-model sweep.

    ``config`` contributes its non-shape fields (sparse mode, kernel)
    to every measured cell; the sweep itself varies the shape and the
    executor.
    """
    p = PARAMS[scale]
    rng = np.random.default_rng(seed)
    model = VGG11(rng=rng, width_multiplier=p["width"])
    magnitude_prune(model, p["prune"], scope="global")
    stages = _stage_patterns(model, p["input_hw"], rng)
    patterns = list(reversed(stages["patterns"]))

    rows: List[Dict] = []
    for depth in p["depths"]:
        analyzer = StaticScanAnalyzer()
        steps = analyzer.analyze(
            patterns,
            grad_dim=stages["grad_dim"],
            algorithm="truncated",
            up_levels=depth,
        )
        levels = {(s.phase, s.level) for s in steps}
        rows.append(
            {
                "up_levels": depth,
                "parallel_levels": len(levels),
                "num_steps": len(steps),
                "max_critical_flops": max(
                    (s.flops for s in steps if s.critical), default=0.0
                ),
                "total_flops": sum(s.flops for s in steps),
                "mm_steps": sum(1 for s in steps if s.kind == "mm"),
            }
        )

    models = {
        "lenet": _lenet(p["lenet"], seed),
        "pruned_vgg11": _vgg_scan(stages, seed),
        "rnn": _rnn(p["rnn"], seed),
        "transformer_block": _transformer(scale, seed),
    }
    base = ScanConfig.coerce(config)
    measured: List[Dict] = []
    for name, model_under_test in models.items():
        measured += _measure(name, model_under_test, base, p["timing"])
    return {"rows": rows, "measured": measured, "gate": gate(measured), "params": p}


# ---------------------------------------------------------------------------
# the models
# ---------------------------------------------------------------------------
def _engine_model(model, x: np.ndarray, targets: np.ndarray, items) -> Model:
    def make(cfg: ScanConfig):
        engine = build_engine(model, cfg)
        return (lambda: engine.compute_gradients(x, targets)), engine

    return items, make


def _feedforward(model, x: np.ndarray, targets: np.ndarray) -> Model:
    engine = build_engine(model, "linear/serial")
    items, _ = engine.scan_items(softmax_xent_grad(engine.forward(x), targets))
    return _engine_model(model, x, targets, items)


def _lenet(q: Dict, seed: int) -> Model:
    rng = np.random.default_rng(seed)
    model = LeNet5(rng=rng, width_multiplier=q["width"])
    x = rng.standard_normal((q["batch"], 3, 32, 32))
    return _feedforward(model, x, rng.integers(0, 10, q["batch"]))


def _transformer(scale: Scale, seed: int) -> Model:
    spec = get_workload("transformer_block")
    x, targets = spec.make_batch(scale, seed)
    return _feedforward(spec.build_model(scale, seed), x, targets)


def _rnn(q: Dict, seed: int) -> Model:
    rng = np.random.default_rng(seed)
    h, t, b = q["hidden"], q["seq_len"], q["batch"]
    model = RNNClassifier(1, h, 10, rng=rng)
    x = rng.integers(0, 2, (b, t, 1)).astype(np.float64)
    # The scan's shape: the seed, then one H×H Jacobian per time step.
    jac = DenseJacobian(np.zeros((h, h)))
    items = [GradientVector(np.zeros(h))] + [jac] * t
    return _engine_model(model, x, rng.integers(0, 10, b), items)


def _vgg_scan(stages: Dict, seed: int) -> Model:
    rng = np.random.default_rng(seed)
    items = [GradientVector(rng.standard_normal((1, stages["grad_dim"])))]
    items += [SparseJacobian(pattern) for pattern in reversed(stages["patterns"])]

    def make(cfg: ScanConfig):
        engine = ScanEngine(cfg.resolve())
        return (lambda: engine.run_scan(items)), engine

    return items, make


# ---------------------------------------------------------------------------
# timing
# ---------------------------------------------------------------------------
def _measure(
    name: str, model: Model, base: ScanConfig, timing: Dict[str, Any]
) -> List[Dict]:
    """Time every depth and ``auto`` on every backend; one row per depth
    plus the auto row.

    Each depth runs back to back, as consecutive training steps would: a
    warm-up call (plans, arenas, pools), then at least ``repeats`` timed
    calls and at least ``min_seconds`` of them.  ``auto``'s engine stays
    up the whole time and alternates call by call with every depth, so
    each depth row also carries ``auto``'s time over its own time under
    the same machine noise (``<backend>_auto_ratio``) — the paired
    comparison the gate reads.
    """
    items, make = model
    depths = range(blelloch_num_levels(len(items)))
    work, path2 = critical_paths(items, 1), critical_paths(items, 2)
    shapes = {k: shape_of_depth(k, len(items), 2) for k in depths}
    rows: List[Dict[str, Any]] = [
        {
            "model": name,
            "depth": k,
            "shape": shape_spec(shapes[k]),
            "work_flops": work[k],
            "path2_flops": path2[k],
        }
        for k in depths
    ]
    auto_row: Dict[str, Any] = {"model": name, "depth": "auto"}
    picked = []

    def build(k, backend):
        algorithm, up = shapes[k] if k != "auto" else ("auto", 2)
        return make(
            ScanConfig.coerce(base, algorithm=algorithm, up_levels=up, executor=backend)
        )

    for backend in BACKENDS:
        auto_step, auto_engine = build("auto", backend)
        auto_times: List[float] = []
        try:
            with observe_shapes() as seen:
                auto_step()
            picked += [f"{backend}:{shape_spec(shape)}" for shape in sorted(seen)]
            for row in rows:
                step, engine = build(row["depth"], backend)
                try:
                    mine, paired = _time_pair(step, auto_step, timing)
                finally:
                    engine.close()
                del step, engine  # free this depth's plans before the next
                row[f"{backend}_ms"], row[f"{backend}_iqr_ms"] = _median_iqr(mine)
                row[f"{backend}_auto_ratio"] = statistics.median(
                    paired
                ) / statistics.median(mine)
                auto_times += paired
        finally:
            auto_engine.close()
        auto_row[f"{backend}_ms"], auto_row[f"{backend}_iqr_ms"] = _median_iqr(
            auto_times
        )
    auto_row["shape"] = " / ".join(picked)
    return rows + [auto_row]


def _time_pair(
    step: Callable[[], Any], auto_step: Callable[[], Any], timing: Dict[str, Any]
) -> Tuple[List[float], List[float]]:
    """Warm ``step`` up, then alternate it with ``auto_step`` until each
    has ``repeats`` samples and ``min_seconds`` have passed (ms)."""
    step()
    mine: List[float] = []
    paired: List[float] = []
    start = time.perf_counter()
    while len(mine) < timing["repeats"] or (
        time.perf_counter() - start < timing["min_seconds"]
    ):
        for fn, samples in ((step, mine), (auto_step, paired)):
            t0 = time.perf_counter()
            fn()
            samples.append((time.perf_counter() - t0) * 1e3)
    return mine, paired


def _median_iqr(samples: List[float]) -> Tuple[float, float]:
    q1, _, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return statistics.median(samples), q3 - q1


def gate(measured: List[Dict]) -> List[Dict]:
    """Per model and backend: ``auto`` against the best fixed depth, by
    their paired ratio."""
    out = []
    for name in dict.fromkeys(r["model"] for r in measured):
        rows = [r for r in measured if r["model"] == name]
        fixed = [r for r in rows if r["depth"] != "auto"]
        auto = next(r for r in rows if r["depth"] == "auto")
        for backend in BACKENDS:
            best = min(fixed, key=lambda r: r[f"{backend}_ms"])
            ratio = best[f"{backend}_auto_ratio"]
            out.append(
                {
                    "model": name,
                    "backend": backend,
                    "best_depth": best["depth"],
                    "best_ms": best[f"{backend}_ms"],
                    "auto_ms": auto[f"{backend}_ms"],
                    "ratio": ratio,
                    "gated": backend == "serial",
                    "pass": ratio <= GATE_RATIO,
                }
            )
    return out


# ---------------------------------------------------------------------------
# views
# ---------------------------------------------------------------------------
def result_rows(result: Dict) -> List[Dict]:
    """Flatten a :func:`run` result into JSON-ready rows: one per static
    depth, then one per measured (model, depth) including ``auto``."""
    return [dict(row) for row in result["rows"]] + [
        dict(row) for row in result["measured"]
    ]


def rows(scale: Scale = Scale.SMOKE) -> List[Dict]:
    """Structured data step: the depth sweep as a list of dicts."""
    return result_rows(run(scale))


def render_report(result: Dict) -> str:
    """Render the depth-sweep tables — a pure view over :func:`run` data."""
    r = result
    headers = [
        "up_levels",
        "parallel levels",
        "steps",
        "mm steps",
        "max critical-step FLOPs",
        "total FLOPs",
    ]
    static = [
        [
            x["up_levels"],
            x["parallel_levels"],
            x["num_steps"],
            x["mm_steps"],
            x["max_critical_flops"],
            x["total_flops"],
        ]
        for x in r["rows"]
    ]
    measured = [
        [
            x["model"],
            x["depth"],
            x["shape"],
            x.get("work_flops", ""),
            x.get("path2_flops", ""),
            *(
                f"{x[f'{b}_ms']:.3g} ± {x[f'{b}_iqr_ms']:.2g}"
                for b in BACKENDS
            ),
        ]
        for x in r["measured"]
    ]
    gates = [
        [
            g["model"],
            g["backend"],
            g["best_depth"],
            g["best_ms"],
            g["auto_ms"],
            f"{g['ratio']:.2f}",
            ("pass" if g["pass"] else "FAIL") if g["gated"] else "report",
        ]
        for g in r["gate"]
    ]
    return (
        format_table(headers, static)
        + "\nshallower truncation trades parallel levels for cheaper steps "
        "(§5.2's balance)\n\nmeasured (ms, median ± IQR; FLOPs per sample):\n"
        + format_table(
            ["model", "depth", "shape", "work FLOPs", "2-worker path FLOPs",
             *(f"{b} ms" for b in BACKENDS)],
            measured,
        )
        + f"\n\nauto vs best fixed depth, timed alternately "
        f"(gate: ≤ {GATE_RATIO}× on serial):\n"
        + format_table(
            ["model", "backend", "best depth", "best ms", "auto ms", "ratio",
             "verdict"],
            gates,
        )
    )


def report(scale: Scale = Scale.SMOKE) -> str:
    """Rendered plain-text artifact at ``scale`` (run + render)."""
    return render_report(run(scale))


if __name__ == "__main__":
    print_report("Ablation: truncated-scan depth", report())
