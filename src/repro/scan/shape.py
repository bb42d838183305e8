"""``algorithm="auto"``: the scan shape from a static cost model.

The shapes an engine can run form one family, indexed by the
truncation depth ``k`` of Section 5.2: ``k = 0`` is the linear chain,
``k = L − 1`` (``L = ⌈log2(n + 1)⌉``) is the full Blelloch scan, and
every depth in between is ``truncated:k``.  All of them compute the
same exclusive scan; they differ in how much work they do and in how
much of it can run at once.

**Model.**  For one depth, the modeled critical path is, level by
level, the per-op FLOPs of :class:`repro.analysis.StaticScanAnalyzer`
packed onto ``W`` workers (longest op first onto the least-loaded
worker), plus the serial middle, whose ops run one after another.
``auto`` takes the depth with the shortest path, the shallowest one
on ties.  Nothing is timed: the choice is a pure function of the
items' shapes and ``W``, made once per (shape signature, ``W``).
Batch size scales every op alike, so it is left out of the signature —
merged and solo serve jobs therefore resolve to the same shape.

**One worker.**  With ``W = 1`` the critical path is the total work.
Every shape ends each output with one ⊙ of a gradient-seeded prefix;
the chain applies it to a single Jacobian, while a deeper shape applies
it to a product of Jacobians that its up-sweep must first form with
matrix–matrix ⊙s.  For ``d × d`` Jacobians a product costs ``d`` times
the matrix–vector ⊙ it stands in for, and products of conv, pooling and
pruned layers fill in.  So serial engines take ``linear`` without
evaluating the model (the test suite checks the model agrees on every
registered workload).
"""

from __future__ import annotations

import dataclasses
import heapq
import threading
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Sequence, Set, Tuple

from repro.analysis.flops import EstimatePattern, StaticScanAnalyzer, VectorElement
from repro.backend.registry import get_executor
from repro.scan.algorithms import blelloch_num_levels, run_scan
from repro.scan.elements import DenseJacobian, GradientVector, SparseJacobian

#: A concrete shape: ``(algorithm, up_levels)``, runnable by
#: :func:`repro.scan.run_scan`.
Shape = Tuple[str, int]

#: Largest SpGEMM expansion the model materializes exactly; beyond it
#: products are estimated (their own FLOPs stay exact), which bounds the
#: one-time cost of costing deep fill-in levels.
MODEL_EXPANSION_LIMIT = 1_000_000


def signature(items: Sequence[Any]) -> tuple:
    """The batch-free shape signature of a scan input."""
    sig = []
    for item in items:
        if isinstance(item, GradientVector):
            sig.append(("v", item.dim))
        elif isinstance(item, SparseJacobian):
            sig.append(("s", *item.shape, item.nnz))
        elif isinstance(item, DenseJacobian):
            sig.append(("d", *item.shape))
        else:
            sig.append((type(item).__name__,))
    return tuple(sig)


def _symbolic(items: Sequence[Any]) -> List[Any]:
    out: List[Any] = []
    for item in items:
        if isinstance(item, GradientVector):
            out.append(VectorElement(item.dim))
        elif isinstance(item, SparseJacobian):
            out.append(item.pattern)
        elif isinstance(item, DenseJacobian):
            m, n = item.shape
            out.append(EstimatePattern((m, n), float(m * n)))
        else:
            out.append(item)
    return out


def _makespan(flops: Sequence[float], workers: int) -> float:
    """Longest-first list scheduling of one level onto ``workers``."""
    loads = [0.0] * min(workers, len(flops))
    for f in sorted(flops, reverse=True):
        heapq.heapreplace(loads, loads[0] + f)
    return max(loads, default=0.0)


def critical_paths(items: Sequence[Any], workers: int) -> List[float]:
    """Modeled critical-path FLOPs of every depth ``k = 0 … L − 1``."""
    symbolic = _symbolic(items)
    paths = []
    for k in range(blelloch_num_levels(len(items))):
        steps = StaticScanAnalyzer(MODEL_EXPANSION_LIMIT).analyze_items(
            symbolic, "truncated", up_levels=k
        )
        levels: Dict[tuple, List[float]] = {}
        path = 0.0
        for s in steps:
            if s.phase == "serial-mid":
                path += s.flops
            else:
                levels.setdefault((s.phase, s.level), []).append(s.flops)
        paths.append(path + sum(_makespan(f, workers) for f in levels.values()))
    return paths


def shape_of_depth(depth: int, length: int, up_levels: int) -> Shape:
    """Name depth ``k`` of a ``length``-item scan by its shape; linear
    and Blelloch keep the engine's ``up_levels`` untouched."""
    if depth == 0:
        return ("linear", up_levels)
    if depth >= blelloch_num_levels(length) - 1:
        return ("blelloch", up_levels)
    return ("truncated", depth)


def choose_shape(items: Sequence[Any], workers: int, up_levels: int = 2) -> Shape:
    """The shape ``auto`` runs for ``items`` on ``workers`` workers."""
    if workers <= 1:
        return ("linear", up_levels)
    paths = critical_paths(items, workers)
    return shape_of_depth(paths.index(min(paths)), len(items), up_levels)


class AutoShape:
    """One engine's ``auto`` resolutions, cached per (signature, workers)."""

    def __init__(self) -> None:
        self._shapes: Dict[tuple, Shape] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._shapes)

    def resolve(
        self, algorithm: str, up_levels: int, items: Sequence[Any], workers: int
    ) -> Shape:
        """The concrete shape for one scan; non-``auto`` passes through."""
        if algorithm != "auto":
            return (algorithm, up_levels)
        if workers <= 1:
            shape = ("linear", up_levels)
        else:
            key = (signature(items), workers, up_levels)
            with self._lock:
                shape = self._shapes.get(key)
            if shape is None:
                shape = choose_shape(items, workers, up_levels)
                with self._lock:
                    self._shapes[key] = shape
        _observe(shape)
        return shape


class ShapedScan:
    """Mixin for the BPPSA engines: run the configured scan shape.

    Expects ``algorithm``, ``up_levels``, ``executor``, ``context`` and
    ``config`` attributes, and an :class:`AutoShape` in ``_auto``.
    ``auto`` resolves against the executor the scan actually runs on,
    and ``config`` is re-stamped with the concrete shape, so
    ``engine.config.spec()`` names what ran.
    """

    _auto: AutoShape

    def _scan(self, items: Sequence[Any]) -> List[Any]:
        ex = get_executor(self.executor)
        algorithm, up = self._auto.resolve(
            self.algorithm, self.up_levels, items, ex.workers
        )
        if (algorithm, up) != (self.config.algorithm, self.config.up_levels):
            self.config = dataclasses.replace(
                self.config, algorithm=algorithm, up_levels=up
            )
        return run_scan(items, self.context.op, algorithm, up, executor=ex)


# ---------------------------------------------------------------------------
# which shapes ``auto`` ran — for the bench records
# ---------------------------------------------------------------------------
_observers: List[Set[Shape]] = []
_observers_lock = threading.Lock()


def _observe(shape: Shape) -> None:
    if _observers:
        with _observers_lock:
            for seen in _observers:
                seen.add(shape)


@contextmanager
def observe_shapes() -> Iterator[Set[Shape]]:
    """Collect every shape ``auto`` resolves to inside the block, on any
    thread."""
    seen: Set[Shape] = set()
    with _observers_lock:
        _observers.append(seen)
    try:
        yield seen
    finally:
        with _observers_lock:
            _observers.remove(seen)


def shape_spec(shape: Shape) -> str:
    """``"linear"``, ``"blelloch"`` or ``"truncated:k"``."""
    algorithm, up = shape
    return f"truncated:{up}" if algorithm == "truncated" else algorithm
