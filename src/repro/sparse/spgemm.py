"""Sparse × sparse matrix multiplication with a cacheable symbolic phase.

Two-phase SpGEMM ("expansion / compression", cf. Kunchum et al., 2017):

1. **Symbolic phase** — depends only on the operand *patterns*: expand
   every pair ``(a_ik, b_kj)``, determine the output pattern, and record
   the scatter map from expanded products to output entries.
2. **Numeric phase** — multiply the expanded values and segment-sum them
   into the output's ``data`` array.

Because the transposed Jacobians BPPSA multiplies have *deterministic*
sparsity patterns (paper Section 3.3), the symbolic phase can run once
before training; :class:`PatternCache` memoizes
:class:`SpGEMMPlan` objects keyed by the operand patterns, so the
training loop pays only the numeric phase.  This is the repo's analogue
of removing cuSPARSE's per-call nnz-counting and index-merging.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.sparse.csr import CSRMatrix


def _expand_indices(a: CSRMatrix, b: CSRMatrix) -> Tuple[np.ndarray, np.ndarray]:
    """Expansion-phase index arrays.

    For each stored entry ``e`` of ``A`` (in storage order), the partial
    products involve the slice ``B.indices[B.indptr[k] : B.indptr[k+1]]``
    where ``k = A.indices[e]``.  Returns

    * ``src_a`` — index into ``A.data`` for every expanded product;
    * ``src_b`` — index into ``B.data`` for every expanded product.

    Both are built with the vectorized "ranges→indices" cumsum trick; no
    Python-level loop over nonzeros.
    """
    ks = a.indices  # column of each A entry = row of B to gather
    starts = b.indptr[ks]
    lengths = b.indptr[ks + 1] - starts
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    src_a = np.repeat(np.arange(len(ks), dtype=np.int64), lengths)
    # offsets within each gathered range: arange(total) - repeat(cum_starts)
    cum = np.concatenate(([0], np.cumsum(lengths)))[:-1]
    within = np.arange(total, dtype=np.int64) - np.repeat(cum, lengths)
    src_b = np.repeat(starts, lengths) + within
    return src_a, src_b


class SpGEMMPlan:
    """Precomputed symbolic phase for ``C = A @ B`` with fixed patterns.

    Attributes
    ----------
    src_a, src_b:
        Gather indices into ``A.data`` / ``B.data`` producing the
        expanded partial products.
    scatter:
        For each expanded product, the index of the output entry it
        accumulates into.
    out_indptr, out_indices, out_shape:
        The output CSR pattern.
    flops:
        Floating-point operations of the numeric phase
        (2 × expanded products: one multiply + one add each).
    """

    # __weakref__ lets kernel arenas key scratch workspaces weakly by
    # plan (repro.scan.kernels.KernelArena); _out_pattern caches the
    # output-pattern CSRMatrix so steady-state numeric calls allocate
    # no fresh CSR objects.
    __slots__ = (
        "src_a",
        "src_b",
        "scatter",
        "out_indptr",
        "out_indices",
        "out_shape",
        "flops",
        "_out_pattern",
        "__weakref__",
    )

    def __init__(
        self,
        src_a: np.ndarray,
        src_b: np.ndarray,
        scatter: np.ndarray,
        out_indptr: np.ndarray,
        out_indices: np.ndarray,
        out_shape: Tuple[int, int],
    ) -> None:
        self.src_a = src_a
        self.src_b = src_b
        self.scatter = scatter
        self.out_indptr = out_indptr
        self.out_indices = out_indices
        self.out_shape = out_shape
        self.flops = 2 * int(len(src_a))
        self._out_pattern: Optional[CSRMatrix] = None

    @property
    def out_nnz(self) -> int:
        return int(len(self.out_indices))

    def out_pattern(self) -> CSRMatrix:
        """The output CSR *pattern* (placeholder-ones data), built once.

        Plans are cached and long-lived; sharing one pattern object
        across every product of a training run is what keeps the
        steady-state numeric phase free of CSR allocations (a benign
        build race under thread backends — last writer wins, both
        objects are identical).
        """
        if self._out_pattern is None:
            self._out_pattern = CSRMatrix(
                self.out_indptr,
                self.out_indices,
                np.ones(self.out_nnz),
                self.out_shape,
            )
        return self._out_pattern

    def execute(self, a: CSRMatrix, b: CSRMatrix) -> CSRMatrix:
        """Numeric phase only: gather, multiply, segment-sum."""
        vals = a.data[self.src_a] * b.data[self.src_b]
        out_data = np.bincount(self.scatter, weights=vals, minlength=self.out_nnz)
        return CSRMatrix(self.out_indptr, self.out_indices, out_data, self.out_shape)

    def execute_batched(
        self,
        data_a: np.ndarray,
        data_b: np.ndarray,
        kernel=None,
        workspace=None,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Numeric phase for a batch of value arrays sharing the patterns.

        ``data_a``: (B, nnz_a) or (nnz_a,) broadcastable; likewise
        ``data_b``.  Returns output values of shape (B, out_nnz).  This
        is how BPPSA multiplies per-sample Jacobians that share one
        deterministic sparsity pattern with a *single* symbolic plan.

        ``kernel`` selects the numeric implementation — a
        :class:`~repro.scan.kernels.ScanKernel` or ``None`` for the
        reference (every kernel is bitwise-identical to it);
        ``workspace`` is the :class:`~repro.scan.kernels.KernelArena`
        supplying preallocated scratch; ``out`` receives the result in
        place when given (caller-owned, never arena storage).
        """
        if kernel is None:
            result = spgemm_numeric_batched(
                self.src_a, self.src_b, self.scatter, self.out_nnz,
                data_a, data_b,
            )
            if out is None:
                return result
            out[...] = result
            return out
        return kernel.numeric(self, data_a, data_b, arena=workspace, out=out)


def spgemm_numeric_batched(
    src_a: np.ndarray,
    src_b: np.ndarray,
    scatter: np.ndarray,
    out_nnz: int,
    data_a: np.ndarray,
    data_b: np.ndarray,
) -> np.ndarray:
    """SpGEMM numeric phase on raw plan arrays.

    The batched gather–multiply–segment-sum at the heart of
    :meth:`SpGEMMPlan.execute_batched`, callable with nothing but the
    plan's index arrays.  The process scan backend runs exactly this
    function inside a worker against shared-memory views of the plan,
    which is what keeps offloaded sparse products bitwise-identical to
    inline execution: both paths are the *same* NumPy calls in the same
    order.  ``data_a``/``data_b`` broadcast like in ``execute_batched``
    ((B, nnz) or (nnz,) / (1, nnz) shared values).
    """
    data_a = np.atleast_2d(np.asarray(data_a, dtype=np.float64))
    data_b = np.atleast_2d(np.asarray(data_b, dtype=np.float64))
    batch = max(data_a.shape[0], data_b.shape[0])
    # np.take gathers C-contiguous (``data[:, src]`` does not), so the
    # product is built in place and the flatten below is a view, not a
    # hidden copy of the largest array of the step.
    gathered_a = np.take(data_a, src_a, axis=1)
    gathered_b = np.take(data_b, src_b, axis=1)
    vals = np.multiply(
        gathered_a,
        gathered_b,
        out=gathered_a if gathered_a.shape[0] == batch else gathered_b,
    )  # (B, n_expanded)
    if vals.shape[1] == 0:
        return np.zeros((batch, out_nnz))
    # One flat bincount covers the whole batch.
    offsets = np.arange(batch, dtype=np.int64)[:, None] * out_nnz + scatter
    flat = np.bincount(
        offsets.reshape(-1), weights=vals.reshape(-1), minlength=batch * out_nnz
    )
    return flat.reshape(batch, out_nnz)


def build_spgemm_plan(a: CSRMatrix, b: CSRMatrix) -> SpGEMMPlan:
    """Symbolic phase: derive the output pattern and the scatter map."""
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch: {a.shape} @ {b.shape}")
    src_a, src_b = _expand_indices(a, b)
    nrows, ncols = a.shape[0], b.shape[1]
    if len(src_a) == 0:
        return SpGEMMPlan(
            src_a,
            src_b,
            np.empty(0, dtype=np.int64),
            np.zeros(nrows + 1, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            (nrows, ncols),
        )
    out_rows = a.row_ids()[src_a]
    out_cols = b.indices[src_b]
    key = out_rows * np.int64(ncols) + out_cols
    uniq, inverse = np.unique(key, return_inverse=True)
    indptr = np.zeros(nrows + 1, dtype=np.int64)
    np.add.at(indptr, (uniq // ncols) + 1, 1)
    np.cumsum(indptr, out=indptr)
    return SpGEMMPlan(
        src_a,
        src_b,
        inverse.astype(np.int64),
        indptr,
        (uniq % ncols).astype(np.int64),
        (nrows, ncols),
    )


def spgemm(
    a: CSRMatrix, b: CSRMatrix, plan: Optional[SpGEMMPlan] = None
) -> CSRMatrix:
    """``A @ B`` in CSR.  Pass a cached ``plan`` to skip the symbolic phase."""
    if plan is None:
        plan = build_spgemm_plan(a, b)
    return plan.execute(a, b)


def spgemm_flops(a: CSRMatrix, b: CSRMatrix) -> int:
    """FLOPs of the numeric phase of ``A @ B`` (without running it).

    The count equals ``2 · Σ_k nnz(A[:,k]) · nnz(B[k,:])`` — the
    quantity Figure 11's static analysis plots per scan step.
    """
    nnz_b_rows = np.diff(b.indptr)
    return 2 * int(nnz_b_rows[a.indices].sum())


class PatternCache:
    """Memoize :class:`SpGEMMPlan` objects across training iterations.

    Keys are the *patterns* of both operands (``indptr``/``indices``
    bytes), not their values: two iterations with identical Jacobian
    structure share a plan, which is the paper's deterministic-sparsity
    optimization in library form.

    With ``maxsize`` set, the cache is a true **LRU**: every hit
    refreshes the entry's recency, and inserting beyond the bound
    evicts the least-recently-used plan (counted in ``evictions``).
    A long-lived process — the :mod:`repro.serve` engine server above
    all — churns through distinct Jacobian patterns indefinitely, so
    the process-wide shared cache must shed cold plans instead of
    growing without bound.  Evicting a plan also releases its
    :class:`~repro.scan.kernels.KernelArena` scratch: arenas key
    workspaces *weakly* by plan, so dropping the last strong reference
    frees the workspace buffers with it.

    ``maxsize=None`` (the default) keeps the historical unbounded
    behaviour for private, engine-lifetime caches.
    """

    def __init__(self, maxsize: Optional[int] = None) -> None:
        if maxsize is not None:
            if not isinstance(maxsize, int) or isinstance(maxsize, bool):
                raise TypeError(
                    f"maxsize must be None or an int, got {type(maxsize).__name__}"
                )
            if maxsize < 1:
                raise ValueError(f"maxsize must be None or >= 1, got {maxsize!r}")
        self._plans: "OrderedDict[tuple, SpGEMMPlan]" = OrderedDict()
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        # plan_for may be called concurrently from a thread-backend
        # scan level; the symbolic phase is pure, so the lock only
        # guards the check-then-insert, the recency order, and the
        # counters.
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._plans)

    def keys(self) -> Tuple[tuple, ...]:
        """Cached pattern keys, least-recently-used first."""
        with self._lock:
            return tuple(self._plans)

    def plan_for(self, a: CSRMatrix, b: CSRMatrix) -> SpGEMMPlan:
        key = (a.pattern_key(), b.pattern_key())
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self.hits += 1
                self._plans.move_to_end(key)
                return plan
            self.misses += 1
        plan = build_spgemm_plan(a, b)
        with self._lock:
            existing = self._plans.get(key)
            if existing is not None:
                self._plans.move_to_end(key)
                return existing  # another thread built it first
            self._plans[key] = plan
            if self.maxsize is not None:
                while len(self._plans) > self.maxsize:
                    self._plans.popitem(last=False)
                    self.evictions += 1
        return plan

    def multiply(self, a: CSRMatrix, b: CSRMatrix) -> CSRMatrix:
        """``A @ B`` using (and populating) the plan cache."""
        return self.plan_for(a, b).execute(a, b)

    def stats(self) -> Dict[str, Any]:
        """Counter snapshot: size/bound, hits, misses, evictions, hit rate.

        This is what ``EngineServer.stats()`` surfaces for the shared
        plan cache; ``hit_rate`` is 0.0 before any lookup.
        """
        with self._lock:
            lookups = self.hits + self.misses
            return {
                "size": len(self._plans),
                "maxsize": self.maxsize,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "hit_rate": (self.hits / lookups) if lookups else 0.0,
            }

    def clear(self) -> None:
        with self._lock:
            self._plans.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0
