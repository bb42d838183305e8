"""Scan algorithms: linear (serial BP), Blelloch (Algorithm 1),
Hillis–Steele, and the truncated/balanced Blelloch of Section 5.2.

All algorithms are generic over the operator: they take
``op(a, b, info) -> element`` where ``info`` is an
:class:`~repro.scan.elements.OpInfo` describing phase/level/positions.
The same algorithms therefore run (a) numerically via
:class:`~repro.scan.elements.ScanContext` and (b) symbolically via the
PRAM cost model — one schedule feeds both planes.

*Where* each level's independent ⊙ ops run is delegated to a
:class:`~repro.backend.ScanExecutor`: every parallel scan accepts an
``executor=`` argument (a backend spec string like ``"thread:8"``, an
executor instance, or ``None`` for the process-wide default — see
:mod:`repro.backend`).  The three sweeps share one level-dispatch
core, and every backend preserves per-op association order, so results
are bitwise-identical across executors.

Indexing follows the paper exactly: the input array ``a`` has ``n+1``
entries ``a[0..n]`` (gradient vector followed by ``n`` transposed
Jacobians) and the exclusive scan output is
``[I, ∇x_n ℓ, ∇x_{n−1} ℓ, ..., ∇x_1 ℓ]``.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator, List, Sequence, Tuple, Union

from repro.backend.executor import LevelTask, ScanExecutor
from repro.backend.registry import get_executor
from repro.scan.elements import IDENTITY, OpInfo

OpFn = Callable[[Any, Any, OpInfo], Any]

ExecutorLike = Union[str, ScanExecutor, None]


@contextmanager
def _resolved_executor(spec: ExecutorLike) -> Iterator[ScanExecutor]:
    """Resolve ``executor=`` for the duration of one scan.

    A spec *string* creates a fresh executor that this scan owns, so it
    is closed on exit — otherwise every ``blelloch_scan(...,
    executor="thread:8")`` in a training loop would leak a pool.  For
    pool reuse across scans, pass an executor instance (or construct
    the engine with the spec); instances and the ``None`` default are
    caller/process-owned and left open.
    """
    ex = get_executor(spec)
    try:
        yield ex
    finally:
        if isinstance(spec, str):
            ex.close()


def simple_op(fn: Callable[[Any, Any], Any]) -> OpFn:
    """Adapt a plain two-argument ⊙ implementation to the scan API."""

    def wrapped(a: Any, b: Any, info: OpInfo) -> Any:
        return fn(a, b)

    return wrapped


def blelloch_num_levels(length: int) -> int:
    """``⌈log2(length)⌉`` — the number of up-sweep levels for an
    ``length``-element array (paper's ``⌈log(n+1)⌉``)."""
    if length <= 0:
        raise ValueError("scan requires a non-empty array")
    return max(1, math.ceil(math.log2(length)))


# ---------------------------------------------------------------------------
# the shared level-dispatch core
# ---------------------------------------------------------------------------
def _level_pairs(n: int, d: int) -> List[Tuple[int, int]]:
    """The (l, r) slot pairs touched at sweep level ``d`` (Algorithm 1's
    index arithmetic, with the paper's clamp ``r = min(·, n)``)."""
    step = 1 << (d + 1)
    return [
        (i + (1 << d) - 1, min(i + step - 1, n))
        for i in range(0, n - (1 << d) + 1, step)
    ]


def _up_sweep(
    a: List[Any], op: OpFn, n: int, d_values: Iterable[int], ex: ScanExecutor
) -> None:
    """Up-sweep levels: ``a[r] ← a[l] ⊙ a[r]`` (Algorithm 1 lines 1–5)."""
    for d in d_values:
        pairs = _level_pairs(n, d)
        tasks = [
            LevelTask(op, a[l], a[r], OpInfo("up", d, l, r)) for l, r in pairs
        ]
        for (_, r), res in zip(pairs, ex.run_level(tasks)):
            a[r] = res


def _down_sweep(
    a: List[Any], op: OpFn, n: int, d_values: Iterable[int], ex: ScanExecutor
) -> None:
    """Down-sweep levels (Algorithm 1 lines 8–13, operand order reversed
    for the non-commutative ⊙):
    ``T ← a[l]; a[l] ← a[r]; a[r] ← a[r] ⊙ T``.

    Operands are snapshotted per level before dispatch; the pairs of
    one level are disjoint, so this is exactly the sequential in-place
    semantics.
    """
    for d in d_values:
        pairs = _level_pairs(n, d)
        snap = [(a[l], a[r]) for l, r in pairs]
        tasks = [
            LevelTask(op, ar, al, OpInfo("down", d, l, r))
            for (l, r), (al, ar) in zip(pairs, snap)
        ]
        results = ex.run_level(tasks)
        for (l, r), (_, ar), res in zip(pairs, snap, results):
            a[l] = ar
            a[r] = res


# ---------------------------------------------------------------------------
# the scans
# ---------------------------------------------------------------------------
def linear_scan(
    items: Sequence[Any],
    op: OpFn,
    identity: Any = IDENTITY,
    executor: ExecutorLike = None,
) -> List[Any]:
    """Serial exclusive scan — the baseline equivalent to sequential BP.

    ``out[k] = a[0] ⊙ a[1] ⊙ ... ⊙ a[k−1]`` with ``out[0] = I``; every
    step is a matrix–vector product when ``a[0]`` is the gradient
    vector, exactly like Eq. 3 executed layer by layer.

    Each step depends on the previous one, so every ⊙ is dispatched to
    ``executor`` as a one-task level.  The serial, thread and process
    backends all run a one-task level inline, so this costs one call,
    and each ⊙ still goes through the backend like every other shape.
    """
    out: List[Any] = [identity]
    acc = identity
    with _resolved_executor(executor) as ex:
        for k, item in enumerate(items[:-1]):
            (acc,) = ex.run_level(
                [LevelTask(op, acc, item, OpInfo("linear", 0, k, k + 1))]
            )
            out.append(acc)
    return out


def blelloch_scan(
    items: Sequence[Any],
    op: OpFn,
    identity: Any = IDENTITY,
    executor: ExecutorLike = None,
) -> List[Any]:
    """The paper's modified Blelloch scan (Algorithm 1).

    Up-sweep: ``a[r] ← a[l] ⊙ a[r]``.  Down-sweep (operands reversed for
    the non-commutative ⊙ — the paper's modification, line 13):
    ``T ← a[l]; a[l] ← a[r]; a[r] ← a[r] ⊙ T``.

    Operations at the same (phase, level) are mutually independent and
    are dispatched level-by-level to ``executor``; every backend
    preserves the exact per-op multiplication order and hence bitwise
    behaviour.
    """
    a = list(items)
    n = len(a) - 1
    if n == 0:
        return [identity]
    levels = blelloch_num_levels(n + 1)

    with _resolved_executor(executor) as ex:
        _up_sweep(a, op, n, range(levels - 1), ex)  # d = 0 .. ⌈log(n+1)⌉−2
        a[n] = identity
        _down_sweep(a, op, n, range(levels - 1, -1, -1), ex)
    return a


def hillis_steele_scan(
    items: Sequence[Any],
    op: OpFn,
    identity: Any = IDENTITY,
    executor: ExecutorLike = None,
) -> List[Any]:
    """Hillis & Steele (1986) scan, shifted to exclusive form.

    Step-optimal (⌈log n⌉ steps even with clamping) but work-inefficient
    (Θ(n log n)); included as the classic alternative the paper cites.
    Correct for non-commutative operators because each update combines a
    left segment with the adjacent right segment in order.  Each level
    reads the previous level's snapshot, so its ops are independent and
    dispatch to ``executor`` like the Blelloch sweeps.
    """
    n = len(items)
    a = list(items)
    d = 1
    level = 0
    with _resolved_executor(executor) as ex:
        while d < n:
            prev = a
            a = list(prev)
            idxs = range(d, n)
            tasks = [
                LevelTask(op, prev[i - d], prev[i], OpInfo("hs", level, i - d, i))
                for i in idxs
            ]
            for i, res in zip(idxs, ex.run_level(tasks)):
                a[i] = res
            d <<= 1
            level += 1
    # inclusive → exclusive: shift right, drop the total.
    return [identity] + a[:-1]


def truncated_blelloch_scan(
    items: Sequence[Any],
    op: OpFn,
    up_levels: int,
    identity: Any = IDENTITY,
    executor: ExecutorLike = None,
) -> List[Any]:
    """Section 5.2's balanced variant.

    Runs the up-sweep only for levels ``0 .. up_levels−1``, computes the
    block-exclusive prefixes *serially* (cheap matrix–vector chain,
    because block 0's summary is gradient-seeded), places them at the
    block roots, then runs the down-sweep for levels
    ``up_levels−1 .. 0``.  Equivalent output to :func:`blelloch_scan`;
    avoids the densest high-level matrix–matrix products.  The parallel
    partial sweeps dispatch to ``executor``; the middle stays serial.

    ``up_levels=0`` degenerates to a pure linear scan;
    ``up_levels ≥ ⌈log2(n+1)⌉−1`` degenerates to the full Blelloch scan.
    """
    a = list(items)
    n = len(a) - 1
    if n == 0:
        return [identity]
    levels = blelloch_num_levels(n + 1)
    k = max(0, min(up_levels, levels - 1))

    with _resolved_executor(executor) as ex:
        # --- partial up-sweep (parallel levels 0..k−1) -------------------
        _up_sweep(a, op, n, range(k), ex)

        # --- serial middle: exclusive prefixes of block summaries --------
        block = 1 << k
        roots = [min(start + block - 1, n) for start in range(0, n + 1, block)]
        prefix = identity
        for m, root in enumerate(roots):
            summary = a[root]
            a[root] = prefix
            if m < len(roots) - 1:
                prefix = op(
                    prefix, summary, OpInfo("serial-mid", k, root, roots[m + 1])
                )

        # --- partial down-sweep (parallel levels k−1..0) ------------------
        _down_sweep(a, op, n, range(k - 1, -1, -1), ex)
    return a


def stage_truncated_scan(
    items: Sequence[Any],
    op: OpFn,
    up_levels: int,
    prefix: Any = IDENTITY,
    identity: Any = IDENTITY,
    executor: ExecutorLike = None,
    compose_tail: bool = False,
) -> Tuple[List[Any], Any]:
    """One pipeline stage's slice of a truncated Blelloch scan.

    Runs the truncated-scan structure on a *slice* of the global scan
    array, seeding the serial middle with ``prefix`` — the exclusive
    prefix of everything to the slice's left (for stage 0 this is the
    identity; for later stages it is the boundary gradient handed over
    by the previous stage).  Returns ``(outputs, carry)`` where
    ``carry`` is the exclusive prefix of everything up to and including
    this slice (the next stage's ``prefix``) when ``compose_tail=True``,
    and the prefix *excluding* the final block otherwise (the final
    stage has no successor, so composing its tail summary would be
    wasted work).

    **Bitwise contract.**  Because sweep levels ``d < up_levels`` never
    cross ``2^up_levels``-aligned slot boundaries and the serial middle
    is a left-associative prefix chain, splitting a global array at
    block-aligned boundaries and running each slice through this
    function — threading ``carry`` → ``prefix`` in slice order —
    reproduces :func:`truncated_blelloch_scan` on the whole array
    *bitwise*, operation for operation.  :mod:`repro.pipeline.staged`
    relies on this to make the staged backward exactly equal to the
    monolithic one.  Callers must pass the *globally* clamped
    ``up_levels`` (clamping locally per slice would change the block
    size and break the alignment invariant — levels too deep for a
    short tail slice simply schedule no ops).
    """
    a = list(items)
    n = len(a) - 1
    if n < 0:
        raise ValueError("scan stage requires a non-empty array")
    k = up_levels
    if k < 0:
        raise ValueError("up_levels must be >= 0")
    if n == 0:
        # Degenerate one-slot slice: the output is the incoming prefix
        # and the slot's own value folds into the carry.
        carry = prefix
        if compose_tail:
            carry = op(prefix, a[0], OpInfo("serial-mid", k, 0, 0))
        return [prefix], carry

    with _resolved_executor(executor) as ex:
        _up_sweep(a, op, n, range(k), ex)

        block = 1 << k
        roots = [min(start + block - 1, n) for start in range(0, n + 1, block)]
        pfx = prefix
        for m, root in enumerate(roots):
            summary = a[root]
            a[root] = pfx
            if m < len(roots) - 1 or compose_tail:
                nxt = roots[m + 1] if m < len(roots) - 1 else root
                pfx = op(pfx, summary, OpInfo("serial-mid", k, root, nxt))

        _down_sweep(a, op, n, range(k - 1, -1, -1), ex)
    return a, pfx


#: The concrete scan shapes :func:`run_scan` dispatches.
SHAPES = ("linear", "blelloch", "hillis_steele", "truncated")


def run_scan(
    items: Sequence[Any],
    op: OpFn,
    algorithm: str,
    up_levels: int = 0,
    executor: ExecutorLike = None,
) -> List[Any]:
    """Run the scan shape ``algorithm`` (``up_levels`` deep when it is
    ``"truncated"``) over ``items`` — the one algorithm switch every
    engine shares.  ``"auto"`` must be resolved to a concrete shape
    first (:class:`repro.scan.shape.AutoShape`)."""
    if algorithm == "linear":
        return linear_scan(items, op, executor=executor)
    if algorithm == "blelloch":
        return blelloch_scan(items, op, executor=executor)
    if algorithm == "hillis_steele":
        return hillis_steele_scan(items, op, executor=executor)
    if algorithm == "truncated":
        return truncated_blelloch_scan(
            items, op, up_levels=up_levels, executor=executor
        )
    raise ValueError(f"scan shape must be one of {SHAPES}, got {algorithm!r}")
