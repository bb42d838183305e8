"""The three training workloads the benchmark runs.

Each builder turns a seed into a ready :class:`Workload`: the model and
its optimizer, the BPPSA engine from ``repro.build_engine``, and a pool
of input batches generated up front from the seed, so the timed loop
hands the program only arrays.  The engine config names only what the
workload needs (the serial executor, and the CSR Linear Jacobians of
the pruned MLP); every other scan knob stays at its default, so a
change of default shows up in the numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import repro
from repro.data import BitstreamDataset, SyntheticImages
from repro.nn import CrossEntropyLoss, LeNet5, RNNClassifier
from repro.optim import SGD, Adam
from repro.pruning import MaskSet, magnitude_prune
from repro.tensor import Tensor
from repro.workloads import get_workload

Batch = Tuple[np.ndarray, np.ndarray]


@dataclass
class Workload:
    """One training setup: model, engine, optimizer and input batches."""

    name: str
    model: object
    engine: object
    optimizer: object
    batches: List[Batch]
    masks: Optional[MaskSet] = None

    @property
    def batch_size(self) -> int:
        return len(self.batches[0][1])

    def step(self, x: np.ndarray, y: np.ndarray) -> Dict[int, np.ndarray]:
        """One training step; returns the BPPSA gradients it applied."""
        grads = self.engine.compute_gradients(x, y)
        self.engine.apply_gradients(grads)
        self.optimizer.step()
        if self.masks is not None:
            self.masks.reapply(self.model)
            self.masks.assert_applied(self.model)
        return grads

    def taped_grads(self, x: np.ndarray, y: np.ndarray) -> Dict[int, np.ndarray]:
        """Reference gradients from taped BP (``repro.tensor``) on the
        current parameters; leaves no ``.grad`` behind."""
        self.model.zero_grad()
        loss = CrossEntropyLoss()(self.model(Tensor(x)), y)
        loss.backward()
        grads = {id(p): p.grad.copy() for p in self.model.parameters()}
        self.model.zero_grad()
        return grads


def build_rnn_bitstream(seed: int) -> Workload:
    """Vanilla RNN, H=20, T=1000, B=16, Adam lr 3e-5 (paper Fig. 9)."""
    batch, seq_len, n_batches = 16, 1000, 8
    model = RNNClassifier(1, 20, 10, rng=np.random.default_rng(seed))
    data = BitstreamDataset(seq_len, num_samples=batch * n_batches, seed=seed)
    return Workload(
        name="rnn_bitstream",
        model=model,
        engine=repro.build_engine(model, {"executor": "serial"}),
        optimizer=Adam(model.parameters(), lr=3e-5),
        batches=list(data.batches(batch)),
    )


def build_lenet_cifar(seed: int) -> Workload:
    """LeNet-5 at width 0.25, B=16, SGD momentum 0.9 (Fig. 7 smoke)."""
    batch, n_batches = 16, 4
    model = LeNet5(rng=np.random.default_rng(seed), width_multiplier=0.25)
    data = SyntheticImages(num_samples=batch * n_batches, seed=seed)
    return Workload(
        name="lenet_cifar",
        model=model,
        engine=repro.build_engine(model, {"executor": "serial"}),
        optimizer=SGD(model.parameters(), lr=1e-3, momentum=0.9),
        batches=list(data.batches(batch)),
    )


def build_pruned_mlp_retrain(seed: int) -> Workload:
    """The registered ``pruned_mlp`` at paper scale, magnitude-pruned to
    90 % globally at initialisation, retrained with SGD and its masks
    re-applied and asserted every step (paper Section 4.2)."""
    n_batches = 16
    spec = get_workload("pruned_mlp")
    params = spec.params("paper")
    model = spec.build_model("paper", seed=seed)
    masks = magnitude_prune(model, 0.9, scope="global")
    config = {"executor": "serial", "sparse_linear_tol": spec.sparse_linear_tol}
    return Workload(
        name="pruned_mlp_retrain",
        model=model,
        engine=repro.build_engine(model, config),
        optimizer=SGD(model.parameters(), lr=1e-2, momentum=0.9),
        batches=[
            spec.batch_fn(params, np.random.default_rng([seed, i]))
            for i in range(n_batches)
        ],
        masks=masks,
    )


BUILDERS: Dict[str, Callable[[int], Workload]] = {
    "rnn_bitstream": build_rnn_bitstream,
    "lenet_cifar": build_lenet_cifar,
    "pruned_mlp_retrain": build_pruned_mlp_retrain,
}


def build(name: str, seed: int) -> Workload:
    return BUILDERS[name](seed)
