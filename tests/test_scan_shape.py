"""``algorithm="auto"``: the cost-driven scan shape (``repro.scan.shape``).

Pins the contract of the default shape:

* on one worker ``auto`` is the ``linear`` chain, bitwise, on both
  engines — and the FLOP model agrees that the chain is the minimum
  work on every registered paper model;
* with more workers the model's pick is deterministic, cached per
  (shape signature, workers), and bitwise-equal to running that shape
  explicitly;
* ``linear_scan`` dispatches every ⊙ through the executor and stays
  bitwise-equal across serial, thread and process backends;
* the spec grammar, the serve engine and the staged pipeline accept
  ``auto``, and every engine's ``config`` names the shape that ran.
"""

import numpy as np
import pytest

import repro
from repro.backend import SerialExecutor, get_executor
from repro.config import ScanConfig
from repro.nn import LeNet5, RNNClassifier
from repro.pipeline import StagedRNNBPPSA
from repro.scan import (
    IDENTITY,
    DenseJacobian,
    GradientVector,
    ScanContext,
    linear_scan,
    run_scan,
)
from repro.scan import shape as shape_mod
from repro.scan.shape import (
    AutoShape,
    choose_shape,
    critical_paths,
    observe_shapes,
    signature,
)
from repro.serve import ScanEngine


class WideSerial(SerialExecutor):
    """Runs inline but reports many workers, so the model's wide-machine
    choice can be exercised without starting threads."""

    name = "wide"

    def __init__(self, workers: int) -> None:
        self._workers = workers

    @property
    def workers(self) -> int:
        return self._workers


def grad_bytes(grads):
    return {k: v.tobytes() for k, v in grads.items()}


def rnn_case(seq_len=32, hidden=3, batch=3, seed=0):
    rng = np.random.default_rng(seed)
    clf = RNNClassifier(2, hidden, 4, rng=rng)
    x = rng.standard_normal((batch, seq_len, 2))
    return clf, x, rng.integers(0, 4, batch)


def lenet_case(batch=2, seed=0):
    rng = np.random.default_rng(seed)
    model = LeNet5(rng=rng, width_multiplier=0.25)
    return model, rng.standard_normal((batch, 3, 32, 32)), rng.integers(0, 10, batch)


def dense_chain(n, h, batch=2, seed=0):
    rng = np.random.default_rng(seed)
    items = [GradientVector(rng.standard_normal((batch, h)))]
    items += [DenseJacobian(rng.standard_normal((batch, h, h))) for _ in range(n)]
    return items


def snapshot(out):
    return [None if el is IDENTITY else el.data.tobytes() for el in out]


# ---------------------------------------------------------------------------
# one worker: auto is the chain
# ---------------------------------------------------------------------------
class TestSerialIsLinear:
    def test_default_config_is_auto(self):
        assert ScanConfig().resolve().algorithm == "auto"

    @pytest.mark.parametrize("case", ["rnn", "lenet"])
    def test_serial_auto_is_linear_bitwise(self, case):
        model, x, y = rnn_case() if case == "rnn" else lenet_case()
        auto = repro.build_engine(model, "serial")
        linear = repro.build_engine(model, "linear/serial")
        assert auto.algorithm == "auto"
        assert grad_bytes(auto.compute_gradients(x, y)) == grad_bytes(
            linear.compute_gradients(x, y)
        )
        # config names the shape that ran, not "auto"
        assert auto.config.algorithm == "linear"
        assert auto.config.spec() == linear.config.spec()

    def test_serial_never_evaluates_the_model(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("the cost model ran on one worker")

        monkeypatch.setattr(shape_mod, "critical_paths", boom)
        model, x, y = lenet_case()
        repro.build_engine(model, "serial").compute_gradients(x, y)

    def test_model_minimum_at_one_worker_is_the_chain(self):
        """The W = 1 argument, checked against the FLOP model on the
        paper's models: depth 0 has the least total work."""
        from repro.experiments import ablation_truncation as ab
        from repro.experiments.common import Scale

        p = ab.PARAMS[Scale.SMOKE]
        models = [
            ab._lenet(p["lenet"], 0),
            ab._rnn(p["rnn"], 0),
            ab._transformer(Scale.SMOKE, 0),
        ]
        for items, _ in models:
            work = critical_paths(items, 1)
            assert work.index(min(work)) == 0
            assert all(w > work[0] for w in work[1:])


# ---------------------------------------------------------------------------
# several workers: the model's pick
# ---------------------------------------------------------------------------
class TestModelChoice:
    def test_wide_machine_truncates_small_dense_chain(self):
        items = dense_chain(64, 2)
        algorithm, depth = choose_shape(items, 64)
        assert algorithm in ("truncated", "blelloch")
        assert choose_shape(items, 2) == ("linear", 2)

    def test_choice_is_deterministic(self):
        items = dense_chain(64, 2)
        picks = {choose_shape(items, w) for w in (64, 64)}
        assert len(picks) == 1
        assert AutoShape().resolve("auto", 2, items, 64) == picks.pop()

    def test_cached_per_signature_and_workers(self, monkeypatch):
        calls = []
        real = shape_mod.choose_shape

        def counting(items, workers, up_levels=2):
            calls.append(workers)
            return real(items, workers, up_levels)

        monkeypatch.setattr(shape_mod, "choose_shape", counting)
        auto = AutoShape()
        small, big = dense_chain(16, 2, batch=1), dense_chain(16, 2, batch=5)
        assert signature(small) == signature(big)  # batch-free
        first = auto.resolve("auto", 2, small, 8)
        assert auto.resolve("auto", 2, big, 8) == first
        assert calls == [8] and len(auto) == 1
        auto.resolve("auto", 2, small, 4)
        assert calls == [8, 4] and len(auto) == 2
        auto.resolve("auto", 2, dense_chain(17, 2), 8)
        assert len(auto) == 3
        # explicit shapes pass through untouched
        assert auto.resolve("truncated", 3, small, 8) == ("truncated", 3)
        assert len(calls) == 3

    @pytest.mark.parametrize("case", ["rnn", "lenet"])
    def test_thread2_pick_is_bitwise_the_explicit_shape(self, case):
        model, x, y = rnn_case() if case == "rnn" else lenet_case()
        with repro.build_engine(model, "auto/thread:2") as auto:
            got = grad_bytes(auto.compute_gradients(x, y))
            algorithm, up = auto.config.algorithm, auto.config.up_levels
        assert algorithm != "auto"
        explicit = ScanConfig(algorithm=algorithm, up_levels=up, executor="thread:2")
        with repro.build_engine(model, explicit) as ref:
            assert grad_bytes(ref.compute_gradients(x, y)) == got

    def test_wide_pick_is_bitwise_the_explicit_shape(self):
        clf, x, y = rnn_case(seq_len=64, hidden=2)
        wide = WideSerial(64)
        auto = repro.build_engine(clf, executor=wide)
        got = grad_bytes(auto.compute_gradients(x, y))
        algorithm, up = auto.config.algorithm, auto.config.up_levels
        assert algorithm in ("truncated", "blelloch")
        ref = repro.build_engine(clf, f"{algorithm}/up={up}", executor=wide)
        assert grad_bytes(ref.compute_gradients(x, y)) == got
        # the same engine re-resolves when its executor changes
        auto.set_executor("serial")
        auto.compute_gradients(x, y)
        assert auto.config.algorithm == "linear"

    def test_observe_shapes_sees_every_auto_scan(self):
        clf, x, y = rnn_case()
        engine = repro.build_engine(clf, "serial")
        with observe_shapes() as seen:
            engine.compute_gradients(x, y)
            engine.compute_gradients(x, y)  # cached, still observed
        assert seen == {("linear", 2)}


# ---------------------------------------------------------------------------
# linear_scan through the executor
# ---------------------------------------------------------------------------
class RecordingExecutor(SerialExecutor):
    def __init__(self):
        self.levels = []

    def run_level(self, tasks):
        self.levels.append(len(tasks))
        return super().run_level(tasks)


class TestLinearScanDispatch:
    def test_every_op_is_a_one_task_level(self):
        items = dense_chain(9, 4)
        ex = RecordingExecutor()
        linear_scan(items, ScanContext().op, executor=ex)
        assert ex.levels == [1] * (len(items) - 1)

    @pytest.mark.parametrize("backend", ["thread:2", "process:2"])
    def test_bitwise_equal_across_backends(self, backend):
        items = dense_chain(12, 6, batch=3)
        ref = snapshot(linear_scan(items, ScanContext().op, executor="serial"))
        with get_executor(backend) as ex:
            got = snapshot(linear_scan(items, ScanContext().op, executor=ex))
        assert got == ref

    def test_run_scan_dispatches_each_shape(self):
        items = dense_chain(10, 3)
        for algorithm, up in (
            ("linear", 0),
            ("blelloch", 0),
            ("hillis_steele", 0),
            ("truncated", 2),
        ):
            out = run_scan(items, ScanContext().op, algorithm, up)
            assert len(out) == len(items)
        with pytest.raises(ValueError, match="scan shape"):
            run_scan(items, ScanContext().op, "auto")


# ---------------------------------------------------------------------------
# spec grammar, serve, staged pipeline
# ---------------------------------------------------------------------------
class TestAutoSpecs:
    @pytest.mark.parametrize("spec", ["auto", "auto/thread:2", "auto/up=3/serial"])
    def test_spec_round_trips(self, spec):
        cfg = ScanConfig.from_spec(spec)
        assert cfg.algorithm == "auto"
        assert ScanConfig.from_spec(cfg.spec()) == cfg
        assert ScanConfig.from_dict(cfg.to_dict()) == cfg

    def test_serve_engine_accepts_auto(self):
        items = dense_chain(20, 4)
        engine = ScanEngine(ScanConfig.from_spec("auto/serial").resolve())
        ref = ScanEngine(ScanConfig.from_spec("linear/serial").resolve())
        assert snapshot(engine.run_scan(items)) == snapshot(ref.run_scan(items))
        engine.close()
        ref.close()

    def test_serve_server_accepts_auto(self):
        import asyncio

        from repro.serve import EngineServer

        items = dense_chain(20, 4)

        async def main():
            async with EngineServer(max_wait_ms=0) as server:
                return await server.submit("auto/serial", items)

        ref = ScanEngine(ScanConfig.from_spec("linear/serial").resolve())
        assert snapshot(asyncio.run(main())) == snapshot(ref.run_scan(items))

    def test_merged_auto_jobs_match_solo_runs(self):
        import asyncio

        from repro.serve import EngineServer

        jobs = [dense_chain(24, 3, batch=2, seed=s) for s in range(4)]

        async def main():
            async with EngineServer(max_batch=4, max_wait_ms=50) as server:
                outs = await asyncio.gather(
                    *(server.submit("auto/thread:2", j) for j in jobs)
                )
                return outs, server.stats()

        outs, stats = asyncio.run(main())
        solo = ScanEngine(ScanConfig.from_spec("auto/thread:2").resolve())
        for job, out in zip(jobs, outs):
            assert snapshot(out) == snapshot(solo.run_scan(job))
        solo.close()
        assert stats["batching"]["merged_jobs"] >= 2

    @pytest.mark.parametrize("backend", ["serial", "thread:2"])
    def test_staged_pipeline_accepts_auto(self, backend):
        """At one micro-batch the staged run is the monolithic engine,
        bitwise (``tests/test_pipeline_scan.py``), so ``auto`` must pick
        the same depth in both."""
        clf, x, y = rnn_case(seq_len=16, hidden=3, batch=4)
        with repro.build_engine(clf, f"auto/{backend}") as mono:
            ref = grad_bytes(mono.compute_gradients(x, y))
        with StagedRNNBPPSA(clf, 2, 1, configs=f"auto/{backend}") as staged:
            got = grad_bytes(staged.compute_gradients(x, y))
            assert staged.plan(16)["up_levels"] == 0
        assert got == ref

    def test_staged_pipeline_auto_on_a_wide_machine(self):
        clf, x, y = rnn_case(seq_len=32, hidden=2, batch=2)
        staged = StagedRNNBPPSA(clf, 2, 1, configs="auto/serial")
        for engine in staged.engines:
            engine.executor = WideSerial(64)
        depth = staged.plan(32)["up_levels"]
        assert depth > 0
        mono = repro.build_engine(clf, f"truncated/up={depth}/serial")
        assert grad_bytes(staged.compute_gradients(x, y)) == grad_bytes(
            mono.compute_gradients(x, y)
        )
        staged.close()
