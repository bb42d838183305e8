"""Spans around the public entry points of each ``repro`` layer.

The traced run wraps, for the duration of :func:`instrument`, the calls
a training step makes into each layer and records one span per call:

=====================  ==================================================
span                   wrapped entry point
=====================  ==================================================
core.compute_gradients ``engine.compute_gradients``
nn.forward             ``engine.forward``
jacobian.gen           ``engine.scan_items`` / ``RNN.hidden_jacobians_T``
scan                   ``engine.scan_hidden_grads`` (RNN) /
                       ``engine._run_scan`` (feedforward)
backend.level          ``ScanExecutor.run_level``, through a delegating
                       executor installed with ``engine.set_executor``
scan.op                ``ScanContext.op`` (identity short-cuts excluded)
core.param_grads       ``RNN.parameter_gradients_from_hidden_grads`` /
                       ``repro.core.param_grads.*``
optim.step             ``Optimizer.step``
pruning.mask           ``MaskSet.reapply`` / ``MaskSet.assert_applied``
=====================  ==================================================

The step itself is the root span, opened by the caller.  Every wrapper
is removed again when :func:`instrument` exits, so untraced steps run
the program exactly as shipped.  Nothing under ``src/`` changes.

A span's *self time* is its duration minus the durations of its
children; the self times of one step sum to the root span's duration,
and :func:`step_metrics` folds them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional

import repro.core.param_grads as param_grads_module
from repro.backend import ScanExecutor, get_executor
from repro.scan import GradientVector, Identity, SparseJacobian

#: Op kinds of a ⊙ application, by operand storage.
OP_KINDS = ("dense_mm", "sparse_mm", "mixed_mm", "mv")

#: Every metric :func:`step_metrics` reports; zero when the workload
#: never enters the layer.
STEP_METRICS = (
    "nn.forward_ms",
    "jacobian.gen_ms",
    "jacobian.stored_values",
    "scan.ms",
    "scan.dispatch_ms",
    "scan.up_ms",
    "scan.down_ms",
    "scan.mid_ms",
    *(f"scan.op.{kind}_ms" for kind in OP_KINDS),
    *(f"scan.op.{kind}" for kind in OP_KINDS),
    "scan.levels",
    "scan.bytes",
    "backend.level_ms",
    "backend.tasks",
    "backend.overhead_ms",
    "core.param_grads_ms",
    "core.self_ms",
    "optim.step_ms",
    "pruning.mask_ms",
    "trace.self_sum_ms",
    "trace.spans",
)


@dataclass(slots=True)
class Span:
    """One call into a layer: name, interval, and the span that caused it."""

    step: int
    id: int
    parent: Optional[int]
    parent_name: Optional[str]
    name: str
    start_ns: int
    end_ns: int = 0
    self_ns: int = 0
    attrs: Dict[str, Any] = field(default_factory=dict)


class Tracer:
    """In-memory span recorder for one step at a time."""

    def __init__(self) -> None:
        self.step = -1
        self.spans: List[Span] = []
        self._stack: List[List[Any]] = []  # [span, children's ns]
        self._next_id = 0

    def start_step(self) -> None:
        """Forget the previous step's spans; spans now share a new step id."""
        if self._stack:
            raise RuntimeError("start_step inside an open span")
        self.step += 1
        self.spans = []

    def begin(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else None
        span = Span(
            self.step,
            self._next_id,
            parent.id if parent else None,
            parent.name if parent else None,
            name,
            time.perf_counter_ns(),
        )
        self._next_id += 1
        self._stack.append([span, 0])

    def end(self) -> Dict[str, Any]:
        """Close the innermost span; returns its attrs for the caller to fill."""
        end = time.perf_counter_ns()
        span, children_ns = self._stack.pop()
        span.end_ns = end
        duration = end - span.start_ns
        span.self_ns = duration - children_ns
        if self._stack:
            self._stack[-1][1] += duration
        self.spans.append(span)
        return span.attrs

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        self.begin(name)
        try:
            yield
        finally:
            self.end()


def element_nbytes(element: Any) -> int:
    """Bytes a non-identity scan element occupies: values, plus CSR
    structure."""
    if isinstance(element, SparseJacobian):
        p = element.pattern
        return element.values().nbytes + p.indptr.nbytes + p.indices.nbytes
    return element.data.nbytes


def op_kind(a: Any, b: Any) -> Optional[str]:
    """The kind of ``a ⊙ b`` by operand storage; ``None`` for the
    identity short-cut, which does no work."""
    if isinstance(a, Identity) or isinstance(b, Identity):
        return None
    if isinstance(a, GradientVector):
        return "mv"
    sparse_a, sparse_b = isinstance(a, SparseJacobian), isinstance(b, SparseJacobian)
    if sparse_a and sparse_b:
        return "sparse_mm"
    return "mixed_mm" if sparse_a or sparse_b else "dense_mm"


class TracingExecutor(ScanExecutor):
    """Delegates each scan level to ``inner`` inside a ``backend.level`` span."""

    name = "traced"

    def __init__(self, inner: ScanExecutor, tracer: Tracer) -> None:
        self.inner = inner
        self.tracer = tracer

    @property
    def workers(self) -> int:
        return self.inner.workers

    def run_level(self, tasks):
        self.tracer.begin("backend.level")
        try:
            return self.inner.run_level(tasks)
        finally:
            attrs = self.tracer.end()
            attrs["tasks"] = len(tasks)
            attrs["phase"] = getattr(tasks[0].info, "phase", "?") if tasks else "?"


def _spanned(tracer: Tracer, name: str, fn: Callable, describe=None) -> Callable:
    @functools.wraps(fn)
    def call(*args, **kwargs):
        tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            attrs = tracer.end()
        if describe is not None:
            attrs.update(describe(result))
        return result

    return call


def _traced_op(tracer: Tracer, op: Callable) -> Callable:
    @functools.wraps(op)
    def call(a, b, info=None):
        kind = op_kind(a, b)
        if kind is None:
            return op(a, b, info)
        tracer.begin("scan.op")
        try:
            result = op(a, b, info)
        finally:
            attrs = tracer.end()
        attrs["kind"] = kind
        attrs["bytes"] = element_nbytes(a) + element_nbytes(b) + element_nbytes(result)
        return result

    return call


def _items_values(result) -> Dict[str, int]:
    items, _positions = result
    total = 0
    for item in items:
        if isinstance(item, SparseJacobian):
            total += item.values().size
        elif not isinstance(item, GradientVector):
            total += item.data.size
    return {"values": total}


@contextmanager
def instrument(workload, tracer: Tracer) -> Iterator[None]:
    """Wrap the workload's layer entry points in spans; undo on exit.

    The serial executor the workloads use is a stateless singleton
    whose ``close()`` is a no-op, so swapping it out through
    ``set_executor`` and back leaves it usable.
    """
    engine = workload.engine
    undo: List[Callable[[], None]] = []

    def patch(obj: Any, attr: str, wrapper: Callable) -> None:
        original = getattr(obj, attr)
        own = attr in vars(obj)
        setattr(obj, attr, wrapper(original))
        undo.append(
            (lambda: setattr(obj, attr, original)) if own else (lambda: delattr(obj, attr))
        )

    def span_of(name: str, describe=None) -> Callable[[Callable], Callable]:
        return lambda fn: _spanned(tracer, name, fn, describe)

    original_executor = engine.executor
    try:
        patch(engine, "compute_gradients", span_of("core.compute_gradients"))
        patch(engine, "forward", span_of("nn.forward"))
        rnn = getattr(getattr(engine, "clf", None), "rnn", None)
        if rnn is not None:
            patch(engine, "scan_hidden_grads", span_of("scan"))
            patch(
                rnn,
                "hidden_jacobians_T",
                span_of("jacobian.gen", lambda r: {"values": r.size}),
            )
            patch(rnn, "parameter_gradients_from_hidden_grads", span_of("core.param_grads"))
        else:
            patch(engine, "scan_items", span_of("jacobian.gen", _items_values))
            patch(engine, "_run_scan", span_of("scan"))
            for fname in ("linear_param_grads", "conv2d_param_grads", "attention_param_grads"):
                patch(param_grads_module, fname, span_of("core.param_grads"))
        patch(engine.context, "op", lambda op: _traced_op(tracer, op))
        patch(workload.optimizer, "step", span_of("optim.step"))
        if workload.masks is not None:
            patch(workload.masks, "reapply", span_of("pruning.mask"))
            patch(workload.masks, "assert_applied", span_of("pruning.mask"))
        engine.set_executor(TracingExecutor(get_executor(original_executor), tracer))
        yield
    finally:
        engine.set_executor(original_executor)
        for restore in reversed(undo):
            restore()


def step_metrics(spans: List[Span]) -> Dict[str, float]:
    """Fold one step's spans into per-layer times (ms) and counts."""
    ms = 1e-6
    m: Dict[str, float] = dict.fromkeys(STEP_METRICS, 0.0)
    for s in spans:
        self_ms = s.self_ns * ms
        duration_ms = (s.end_ns - s.start_ns) * ms
        m["trace.self_sum_ms"] += self_ms
        m["trace.spans"] += 1
        if s.name == "backend.level":
            m["backend.level_ms"] += duration_ms
            m["backend.overhead_ms"] += self_ms
            m["backend.tasks"] += s.attrs["tasks"]
            m["scan.levels"] += 1
            if s.attrs["phase"] in ("up", "down"):
                m[f"scan.{s.attrs['phase']}_ms"] += duration_ms
        elif s.name == "scan.op":
            kind = s.attrs["kind"]
            m[f"scan.op.{kind}_ms"] += self_ms
            m[f"scan.op.{kind}"] += 1
            m["scan.bytes"] += s.attrs["bytes"]
            if s.parent_name != "backend.level":
                m["scan.mid_ms"] += duration_ms
        elif s.name == "scan":
            m["scan.dispatch_ms"] += self_ms
        elif s.name == "jacobian.gen":
            m["jacobian.gen_ms"] += self_ms
            m["jacobian.stored_values"] += s.attrs["values"]
        elif s.name in ("step", "core.compute_gradients"):
            m["core.self_ms"] += self_ms
        else:  # nn.forward, core.param_grads, optim.step, pruning.mask
            m[f"{s.name}_ms"] += self_ms
    m["scan.ms"] = m["scan.dispatch_ms"] + m["backend.level_ms"] + m["scan.mid_ms"]
    return m
