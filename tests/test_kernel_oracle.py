"""Differential kernel-oracle harness (tier-1).

Every SpGEMM numeric kernel must be **bitwise-identical** to the
reference (:func:`repro.sparse.spgemm_numeric_batched`) — not merely
close.  This file is the oracle that enforces it:

* a full (algorithm × backend × sparse mode × kernel) matrix over
  randomized CSR chains — seeded, with forced empty rows, duplicate-free
  *unsorted* column indices, an all-zero block, and batch > 1 — where
  every cell's scan output must match the (serial, ``numpy``) reference
  cell byte for byte;
* a direct kernel-vs-reference differential over random plans,
  covering shared operands, the arena path, ``out=`` and
  ``numeric_raw``;
* a dedicated ``process:2`` offload cell (the kernel crosses the
  process boundary by name);
* an engine-level run (:class:`repro.core.FeedforwardBPPSA`) proving
  end-to-end gradients are bitwise-independent of the kernel choice.

When Numba is not installed the ``"numba"`` name resolves to the
pure-NumPy fast path — same bitwise contract, so every test here runs
(and must pass) either way; nothing is skipped.
"""

import numpy as np
import pytest

from repro.backend import ProcessPoolScanExecutor, LevelTask, SerialExecutor, get_executor
from repro.core import FeedforwardBPPSA
from repro.nn import LeNet5, Sequential
from repro.scan import (
    KERNEL_ENV_VAR,
    KERNELS,
    GradientVector,
    KernelArena,
    OpInfo,
    ScanContext,
    SparseJacobian,
    blelloch_scan,
    get_kernel,
    hillis_steele_scan,
    linear_scan,
    numba_available,
    run_scan,
    truncated_blelloch_scan,
)
from repro.scan.shape import AutoShape
from repro.sparse import CSRMatrix, build_spgemm_plan
from repro.sparse.spgemm import spgemm_numeric_batched

ALGORITHMS = ("blelloch", "linear", "hillis_steele", "truncated")
BACKENDS = ("serial", "thread:2")
SPARSE_MODES = ("on", "auto:0.4")


# ---------------------------------------------------------------------------
# randomized CSR inputs
# ---------------------------------------------------------------------------
def random_pattern(rng, m, n, density=0.3, force_empty_rows=True):
    """A validated random CSR pattern with adversarial structure.

    Some rows are forced empty, and the duplicate-free coordinates are
    fed to the constructor in *shuffled* (unsorted) COO order — the
    construction boundary must canonicalize them; the stored pattern
    then satisfies the repo's sorted-row CSR invariant.
    """
    mask = rng.random((m, n)) < density
    if force_empty_rows and m > 1:
        kill = rng.choice(m, size=max(1, m // 4), replace=False)
        mask[kill, :] = False
    rows, cols = np.nonzero(mask)
    order = rng.permutation(len(rows))  # duplicate-free, unsorted arrival
    mat = CSRMatrix.from_coo(
        rows[order],
        cols[order],
        rng.standard_normal(len(rows)),
        (m, n),
        sum_duplicates=False,
    )
    mat.validate()
    return mat


def oracle_items(seed, n=12, stages=6, batch=3):
    """Gradient seed + randomized square CSR chain (deterministic)."""
    rng = np.random.default_rng(seed)
    zero = CSRMatrix(
        np.zeros(n + 1, dtype=np.int64),
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.float64),
        (n, n),
    )
    items = [GradientVector(rng.standard_normal((batch, n)))]
    for stage in range(stages):
        if stage == stages - 2:
            # an all-zero block: empty plans, zero-length output rows
            items.append(SparseJacobian(zero, rng.standard_normal((batch, 0))))
        elif stage % 3 == 2:
            # shared values: one pattern-with-data for the whole batch
            items.append(SparseJacobian(random_pattern(rng, n, n)))
        else:
            pat = random_pattern(rng, n, n)
            items.append(
                SparseJacobian(pat, rng.standard_normal((batch, pat.nnz)))
            )
    return items


def snapshot(elements):
    """Byte-exact summary of a scan result (pattern + values)."""
    snap = []
    for el in elements:
        if isinstance(el, SparseJacobian):
            snap.append(
                (
                    "sparse",
                    el.pattern.indptr.tobytes(),
                    el.pattern.indices.tobytes(),
                    np.ascontiguousarray(el.values()).tobytes(),
                )
            )
        elif hasattr(el, "data"):
            snap.append(
                (
                    type(el).__name__,
                    np.ascontiguousarray(el.data).tobytes(),
                )
            )
        else:  # Identity slots of the exclusive scan
            snap.append((type(el).__name__,))
    return snap


def run_cell(algorithm, backend, sparse, kernel, seed=0x5EED):
    """One (algorithm, backend, sparse, kernel) oracle cell."""
    items = oracle_items(seed)
    ctx = ScanContext(sparse=sparse, kernel=kernel)
    with get_executor(backend) as ex:
        if algorithm == "linear":
            out = linear_scan(items, ctx.op)
        elif algorithm == "hillis_steele":
            out = hillis_steele_scan(items, ctx.op, executor=ex)
        elif algorithm == "truncated":
            out = truncated_blelloch_scan(
                items, ctx.op, up_levels=2, executor=ex
            )
        else:
            out = blelloch_scan(items, ctx.op, executor=ex)
    return snapshot(out)


# ---------------------------------------------------------------------------
# the matrix
# ---------------------------------------------------------------------------
class TestKernelOracleMatrix:
    """Every execution cell reproduces the reference cell byte for byte."""

    @pytest.mark.parametrize("sparse", SPARSE_MODES)
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_bitwise_identical_across_cells(self, algorithm, sparse):
        ref = run_cell(algorithm, "serial", sparse, "numpy")
        for backend in BACKENDS:
            for kernel in KERNELS:
                if (backend, kernel) == ("serial", "numpy"):
                    continue
                got = run_cell(algorithm, backend, sparse, kernel)
                assert got == ref, (
                    f"cell ({algorithm}, {backend}, sparse={sparse}, "
                    f"kernel={kernel}) diverged from the reference"
                )

    @pytest.mark.parametrize("sparse", SPARSE_MODES)
    def test_auto_cell_matches_its_resolved_shape(self, sparse):
        """``auto`` picks a shape per backend; every cell equals the
        reference cell of the shape it picked."""
        items = oracle_items(0x5EED)
        for backend in BACKENDS:
            for kernel in KERNELS:
                ctx = ScanContext(sparse=sparse, kernel=kernel)
                with get_executor(backend) as ex:
                    shape = AutoShape().resolve("auto", 2, items, ex.workers)
                    got = snapshot(run_scan(items, ctx.op, *shape, executor=ex))
                ref_ctx = ScanContext(sparse=sparse, kernel="numpy")
                ref = snapshot(run_scan(items, ref_ctx.op, *shape, executor="serial"))
                assert got == ref, (backend, kernel, shape)
                if backend == "serial":
                    assert shape == ("linear", 2)

    def test_kernel_object_cell_matches_named_cell(self):
        """Passing a ScanKernel instance equals passing its name."""
        by_name = run_cell("blelloch", "serial", "on", "numba")
        by_obj = run_cell("blelloch", "serial", "on", get_kernel("numba"))
        assert by_obj == by_name


# ---------------------------------------------------------------------------
# direct kernel differential
# ---------------------------------------------------------------------------
class TestKernelDifferential:
    """kernel.numeric ≡ spgemm_numeric_batched on random plans."""

    def test_numba_kernel_matches_reference_bitwise(self):
        rng = np.random.default_rng(2024)
        kernel = get_kernel("numba")
        arena = KernelArena()
        for _ in range(60):
            m, k, n = (int(v) for v in rng.integers(1, 14, size=3))
            a = random_pattern(rng, m, k, density=float(rng.uniform(0, 0.6)))
            b = random_pattern(rng, k, n, density=float(rng.uniform(0, 0.6)))
            plan = build_spgemm_plan(a, b)
            batch = int(rng.integers(1, 5))
            # shared sides arrive as (1, nnz) — exercise both mixes
            da = (
                a.data[None, :]
                if rng.random() < 0.3
                else rng.standard_normal((batch, a.nnz))
            )
            db = (
                b.data[None, :]
                if rng.random() < 0.3
                else rng.standard_normal((batch, b.nnz))
            )
            eff_batch = max(da.shape[0], db.shape[0])
            ref = spgemm_numeric_batched(
                plan.src_a, plan.src_b, plan.scatter, plan.out_nnz, da, db
            )
            for got in (
                kernel.numeric(plan, da, db),
                kernel.numeric(plan, da, db, arena=arena),
                kernel.numeric_raw(
                    plan.src_a, plan.src_b, plan.scatter, plan.out_nnz, da, db
                ),
            ):
                assert got.shape == (eff_batch, plan.out_nnz) == ref.shape
                assert got.tobytes() == ref.tobytes()
            out = np.empty((eff_batch, plan.out_nnz), dtype=np.float64)
            got = kernel.numeric(plan, da, db, arena=arena, out=out)
            assert got is out and out.tobytes() == ref.tobytes()

    def test_plan_execute_batched_kernel_path_matches_legacy(self):
        rng = np.random.default_rng(7)
        a = random_pattern(rng, 9, 10, density=0.4)
        b = random_pattern(rng, 10, 8, density=0.4)
        plan = build_spgemm_plan(a, b)
        da = rng.standard_normal((3, a.nnz))
        db = rng.standard_normal((3, b.nnz))
        legacy = plan.execute_batched(da, db)  # kernel=None: historic path
        for name in KERNELS:
            got = plan.execute_batched(da, db, kernel=get_kernel(name))
            assert got.tobytes() == legacy.tobytes()

    def test_negative_zero_normalization_matches(self):
        # bincount starts every slot at +0.0, turning a lone -0.0
        # product into +0.0; the compiled loop must do the same.
        a = CSRMatrix.from_dense(np.array([[-0.0 + 1e-300, 0.0], [0.0, 1.0]]))
        a.data[0] = -0.0  # force an explicit -0.0 stored value
        b = CSRMatrix.from_dense(np.array([[1.0, 0.0], [0.0, 1.0]]))
        plan = build_spgemm_plan(a, b)
        da, db = a.data[None, :], b.data[None, :]
        ref = spgemm_numeric_batched(
            plan.src_a, plan.src_b, plan.scatter, plan.out_nnz, da, db
        )
        got = get_kernel("numba").numeric(plan, da, db)
        assert got.tobytes() == ref.tobytes()


# ---------------------------------------------------------------------------
# process backend: the kernel crosses the boundary by name
# ---------------------------------------------------------------------------
class _CountingProcessExecutor(ProcessPoolScanExecutor):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.sparse_submissions = 0

    def _submit_sparse(self, pool, segments, t, plan):
        self.sparse_submissions += 1
        return super()._submit_sparse(pool, segments, t, plan)


class TestProcessBackendKernel:
    def _level(self, seed, ctx, n=24, n_tasks=3, batch=3):
        rng = np.random.default_rng(seed)
        tasks = []
        for i in range(n_tasks):
            pa = random_pattern(rng, n, n, density=0.25)
            pb = random_pattern(rng, n, n, density=0.25)
            tasks.append(
                LevelTask(
                    ctx.op,
                    SparseJacobian(pa, rng.standard_normal((batch, pa.nnz))),
                    SparseJacobian(pb, rng.standard_normal((batch, pb.nnz))),
                    OpInfo("up", 0, 2 * i, 2 * i + 1),
                )
            )
        return tasks

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_shm_offload_bitwise_per_kernel(self, kernel):
        ref_ctx = ScanContext(sparse="on", kernel="numpy")
        ref = SerialExecutor().run_level(self._level(11, ref_ctx))

        ctx = ScanContext(sparse="on", kernel=kernel)
        ex = _CountingProcessExecutor(num_workers=2, min_offload_mnk=1)
        try:
            out = ex.run_level(self._level(11, ctx))
        finally:
            ex.close()
        assert ex.sparse_submissions == 3  # the worker path really ran
        assert snapshot(out) == snapshot(ref)


# ---------------------------------------------------------------------------
# engine level
# ---------------------------------------------------------------------------
class TestEngineKernelOracle:
    @staticmethod
    def _grads(kernel):
        net = LeNet5(rng=np.random.default_rng(0), width_multiplier=0.25)
        model = Sequential(*(list(net.features) + list(net.classifier)))
        x = np.random.default_rng(1).standard_normal((2, 3, 32, 32))
        y = np.array([0, 1])
        with FeedforwardBPPSA(
            model, executor="serial", sparse="on", config={"kernel": kernel}
        ) as eng:
            grads = eng.compute_gradients(x, y)
            assert eng.context.kernel.name == kernel
        return [grads[id(p)] for p in model.parameters() if id(p) in grads]

    def test_gradients_bitwise_independent_of_kernel(self):
        ref = self._grads("numpy")
        out = self._grads("numba")
        assert len(ref) == len(out) > 0
        for a, b in zip(ref, out):
            assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# the transformer workload cell
# ---------------------------------------------------------------------------
class TestTransformerWorkloadOracle:
    """The ``transformer_block`` workload's gradients are bitwise-
    identical across backend × sparse mode × kernel.

    The chain mixes every Jacobian storage form the engine produces
    (dense per-sample attention, per-sample CSR LayerNorm/ReLU, shared
    CSR position-wise Linears, a shared dense head), so this one cell
    pins the composition rules of all of them to the (serial,
    ``numpy``) reference of each sparse mode."""

    @staticmethod
    def _grads(backend, sparse, kernel):
        from repro.workloads import get_workload

        wl = get_workload("transformer_block")
        model = wl.build_model("smoke")
        x, y = wl.make_batch("smoke")
        with FeedforwardBPPSA(
            model,
            executor=backend,
            sparse=sparse,
            config={"kernel": kernel},
        ) as eng:
            grads = eng.compute_gradients(x, y)
        return {
            name: grads[id(p)].tobytes()
            for name, p in model.named_parameters()
        }

    @pytest.mark.parametrize("sparse", ("on", "off", "auto:0.4"))
    def test_bitwise_identical_across_cells(self, sparse):
        ref = self._grads("serial", sparse, "numpy")
        assert len(ref) == 9
        for backend in ("thread:2", "process:2"):
            for kernel in KERNELS:
                got = self._grads(backend, sparse, kernel)
                assert got == ref, (
                    f"transformer cell ({backend}, sparse={sparse}, "
                    f"kernel={kernel}) diverged from the reference"
                )


# ---------------------------------------------------------------------------
# resolution semantics
# ---------------------------------------------------------------------------
class TestKernelResolution:
    def test_numba_name_never_raises(self):
        k = get_kernel("numba")
        assert k.name == "numba"
        assert isinstance(numba_available(), bool)
        assert k.compiled == numba_available()  # fallback ⇔ not compiled

    def test_env_default_and_set_kernel(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, "numba")
        ctx = ScanContext()
        assert ctx.kernel.name == "numba"
        ctx.set_kernel("numpy")
        assert ctx.kernel.name == "numpy"
        ctx.set_kernel(None)  # re-resolve the environment
        assert ctx.kernel.name == "numba"

    def test_invalid_kernel_rejected(self, monkeypatch):
        with pytest.raises(ValueError, match="kernel"):
            ScanContext(kernel="fortran")
        with pytest.raises(TypeError, match="kernel"):
            get_kernel(3.14)
        monkeypatch.setenv(KERNEL_ENV_VAR, "fortran")
        with pytest.raises(ValueError, match="kernel"):
            ScanContext()
