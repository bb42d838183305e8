"""The scan framework — BPPSA's core (paper Sections 2.3 and 3).

Back-propagation's recurrence is recast as an **exclusive scan** of the
binary, associative, *non-commutative* operator ``A ⊙ B = B·A`` over

    [∇x_n ℓ, (∂x_n/∂x_{n−1})^T, ..., (∂x_1/∂x_0)^T]     (Eq. 5)

producing ``[I, ∇x_n ℓ, ..., ∇x_1 ℓ]``.  This package provides:

* typed scan elements (identity / gradient vector / dense / CSR
  Jacobians, batched across samples) and a :class:`ScanContext` that
  evaluates ⊙ with FLOP accounting and SpGEMM plan caching;
* a density-threshold dispatch layer (:class:`SparsePolicy`) deciding
  per element and per product whether composition runs in CSR/SpGEMM
  or dense BLAS — ``REPRO_SCAN_SPARSE=auto|on|off`` overridable, see
  :mod:`repro.scan.sparse_policy`;
* a pluggable SpGEMM numeric-kernel layer (:mod:`repro.scan.kernels`):
  symbolic-once/numeric-many plans executed by the bitwise NumPy
  reference or an allocation-free compiled build —
  ``REPRO_SCAN_KERNEL=numpy|numba`` overridable, arena-backed scratch
  per :class:`ScanContext`;
* :func:`linear_scan` — the serial baseline (equivalent to BP);
* :func:`blelloch_scan` — the paper's modified Blelloch scan
  (Algorithm 1: operand order reversed in the down-sweep);
* :func:`hillis_steele_scan` — the step-optimal alternative scan;
* :func:`truncated_blelloch_scan` — Section 5.2's balanced variant
  (up-sweep only to level k, serial matrix–vector middle, down-sweep
  from level k), used by the pruned-VGG-11 benchmark;
* :func:`run_scan` — the one switch over those shapes, and
  :mod:`repro.scan.shape`, which resolves ``algorithm="auto"`` to the
  truncation depth with the lowest modeled critical path;
* a scan-DAG builder for the PRAM simulator (Figure 4's schedule).

*Where* each level's independent ⊙ ops execute is pluggable: every
parallel scan takes ``executor=`` — a backend spec string
(``"serial"``, ``"thread:8"``, ``"process:4"``), a
:class:`~repro.backend.ScanExecutor` instance, or ``None`` for the
``REPRO_SCAN_BACKEND`` default.  See :mod:`repro.backend`; the
registry entry points (:func:`get_executor`, :func:`register_backend`,
:func:`available_backends`) and the executor base class are re-exported
here for convenience.
"""

from repro.scan.elements import (
    DenseJacobian,
    GradientVector,
    Identity,
    IDENTITY,
    OpInfo,
    ScanContext,
    SparseJacobian,
    StepRecord,
)
from repro.scan.kernels import (
    DEFAULT_KERNEL,
    KERNEL_ENV_VAR,
    KERNELS,
    KernelArena,
    ScanKernel,
    get_kernel,
    numba_available,
)
from repro.scan.sparse_policy import (
    DEFAULT_DENSIFY_THRESHOLD,
    SPARSE_ENV_VAR,
    SPARSE_MODES,
    SparsePolicy,
    THRESHOLD_ENV_VAR,
)
from repro.scan.algorithms import (
    blelloch_scan,
    blelloch_num_levels,
    hillis_steele_scan,
    linear_scan,
    run_scan,
    simple_op,
    stage_truncated_scan,
    truncated_blelloch_scan,
)
# Submodule imports (not `from repro.backend import …`): repro.backend's
# own __init__ may still be mid-import when this package loads.
from repro.backend.executor import LevelTask, ScanExecutor
from repro.backend.registry import (
    available_backends,
    get_executor,
    register_backend,
)
from repro.scan.dag import (
    ScanDAG,
    TaskNode,
    build_blelloch_dag,
    build_linear_dag,
    build_truncated_dag,
    dag_from_trace,
)

__all__ = [
    "Identity",
    "IDENTITY",
    "GradientVector",
    "DenseJacobian",
    "SparseJacobian",
    "ScanContext",
    "SparsePolicy",
    "SPARSE_ENV_VAR",
    "SPARSE_MODES",
    "THRESHOLD_ENV_VAR",
    "DEFAULT_DENSIFY_THRESHOLD",
    "KERNELS",
    "KERNEL_ENV_VAR",
    "DEFAULT_KERNEL",
    "ScanKernel",
    "KernelArena",
    "get_kernel",
    "numba_available",
    "OpInfo",
    "StepRecord",
    "linear_scan",
    "run_scan",
    "blelloch_scan",
    "blelloch_num_levels",
    "hillis_steele_scan",
    "truncated_blelloch_scan",
    "stage_truncated_scan",
    "simple_op",
    "LevelTask",
    "ScanExecutor",
    "available_backends",
    "get_executor",
    "register_backend",
    "ScanDAG",
    "TaskNode",
    "build_blelloch_dag",
    "build_linear_dag",
    "build_truncated_dag",
    "dag_from_trace",
]
