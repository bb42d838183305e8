"""BPPSA for the vanilla RNN classifier (paper Section 4.1).

The backward pass of an unrolled RNN computes ``∇h_t ℓ`` for
``t = T … 1`` through a chain of ``T`` matrix–vector products — the
longest sequential dependency in the paper's evaluation.  Here that
chain becomes an exclusive scan over

    [∇h_T ℓ, (∂h_T/∂h_{T−1})^T, …, (∂h_1/∂h_0)^T]

with per-sample dense H×H Jacobians ``W_hh^T · diag(1 − h_t²)``
(Eq. 9 differentiated), after which all parameter gradients follow from
Eq. 2 with no dependency along t.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Union

import numpy as np

from repro.backend import ExecutorOwner, ScanExecutor
from repro.config import ScanConfig, merge_engine_kwargs
from repro.config.facade import construction_executor as _construction_executor
from repro.nn.loss import softmax_xent_grad
from repro.nn.rnn import RNNClassifier
from repro.scan import DenseJacobian, GradientVector, ScanContext, SparsePolicy
from repro.scan.shape import AutoShape, ShapedScan


class RNNBPPSA(ShapedScan, ExecutorOwner):
    """Scan-based gradient engine for :class:`~repro.nn.rnn.RNNClassifier`.

    ``config`` names the whole scan surface declaratively
    (:class:`~repro.config.ScanConfig`, spec string, or mapping — see
    :func:`repro.build_engine`); the legacy kwargs below override its
    fields when given, and the fully resolved config is kept on
    ``self.config``.  A caller-provided executor *instance* takes
    precedence over the config but is not representable in it
    (``self.executor`` is authoritative in that case).

    ``executor`` selects the scan-execution backend: a spec string
    (``"serial"``, ``"thread:8"``, ``"process:4"`` — see
    :mod:`repro.backend`), an executor instance, or ``None`` to follow
    the ambient default (a ``repro.configure()`` override, else
    ``REPRO_SCAN_BACKEND``).  Executors created here from a spec
    string are owned by the engine; call :meth:`close` (or use the
    engine as a context manager) to release their workers.  Every
    backend yields bitwise-identical gradients.

    ``sparse`` selects the scan's dense-vs-sparse dispatch policy (see
    :class:`~repro.scan.SparsePolicy`); the vanilla RNN's hidden
    Jacobians are fully dense, so the policy only matters when callers
    feed CSR elements (e.g. pruned recurrent weights) — it is plumbed
    through for API uniformity with :class:`FeedforwardBPPSA`.  When
    unset, products are never densified (the RNN's historical
    default, ``densify_threshold=1.0``).
    """

    def __init__(
        self,
        classifier: RNNClassifier,
        algorithm: Optional[str] = None,
        up_levels: Optional[int] = None,
        executor: Union[str, ScanExecutor, None] = None,
        sparse: Union[str, SparsePolicy, None] = None,
        config: Union[ScanConfig, str, Mapping, None] = None,
    ) -> None:
        merged = merge_engine_kwargs(
            config,
            algorithm=algorithm,
            up_levels=up_levels,
            executor=executor,
            sparse=sparse,
        )
        cfg = merged.resolve(defaults={"densify_threshold": 1.0})
        self.config = cfg
        self.clf = classifier
        self.algorithm = cfg.algorithm
        self.up_levels = cfg.up_levels
        self._auto = AutoShape()
        self.set_executor(_construction_executor(merged, cfg, executor))
        self.context = ScanContext(
            pattern_cache=cfg.make_pattern_cache(),
            sparse=cfg.sparse_policy(),
            kernel=cfg.kernel,
        )

    @property
    def sparse_policy(self) -> SparsePolicy:
        """The scan's dense-vs-sparse dispatch policy."""
        return self.context.sparse_policy

    def set_sparse_policy(self, sparse: Union[str, SparsePolicy, None]) -> None:
        """Replace the dispatch policy (spec string, policy, or ``None``
        to re-resolve against ``REPRO_SCAN_SPARSE``)."""
        self.context.set_sparse_policy(sparse)

    def set_kernel(self, kernel) -> None:
        """Replace the SpGEMM numeric kernel (``"numpy"`` | ``"numba"``,
        a :class:`~repro.scan.ScanKernel`, or ``None`` to re-resolve
        against ``REPRO_SCAN_KERNEL``)."""
        self.context.set_kernel(kernel)

    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Pure-NumPy forward pass; returns logits and caches h_1..h_T."""
        x = np.asarray(x, dtype=np.float64)
        batch, seq_len, _ = x.shape
        cell = self.clf.rnn.cell
        w_ih, w_hh = cell.weight_ih.data, cell.weight_hh.data
        b = cell.bias_ih.data + cell.bias_hh.data
        h = np.zeros((batch, cell.hidden_size))
        hs = np.empty((seq_len, batch, cell.hidden_size))
        for t in range(seq_len):
            h = np.tanh(x[:, t, :] @ w_ih.T + h @ w_hh.T + b)
            hs[t] = h
        self._x = x
        self._hidden = hs
        head = self.clf.head
        logits = h @ head.weight.data.T
        if head.bias is not None:
            logits = logits + head.bias.data
        return logits

    # ------------------------------------------------------------------
    def compute_gradients(
        self, x: np.ndarray, targets: np.ndarray
    ) -> Dict[int, np.ndarray]:
        """BPPSA gradients ``{id(param): grad}`` for one mini-batch."""
        logits = self.forward(x)
        self.last_logits = logits
        grad_logits = softmax_xent_grad(logits, targets)  # (B, C)

        head = self.clf.head
        h_last = self._hidden[-1]  # (B, H)
        grads: Dict[int, np.ndarray] = {
            id(head.weight): grad_logits.T @ h_last,
        }
        if head.bias is not None:
            grads[id(head.bias)] = grad_logits.sum(axis=0)

        grad_h_last = grad_logits @ head.weight.data  # ∇h_T ℓ, (B, H)
        hidden_grads = self.scan_hidden_grads(grad_h_last)  # (T, B, H)

        rnn = self.clf.rnn
        param = rnn.parameter_gradients_from_hidden_grads(
            self._x, self._hidden, hidden_grads
        )
        cell = rnn.cell
        grads[id(cell.weight_ih)] = param["weight_ih"]
        grads[id(cell.weight_hh)] = param["weight_hh"]
        grads[id(cell.bias_ih)] = param["bias_ih"]
        grads[id(cell.bias_hh)] = param["bias_hh"]
        return grads

    def scan_hidden_grads(self, grad_h_last: np.ndarray) -> np.ndarray:
        """Run the scan; returns ``∇h_t ℓ`` stacked as (T, B, H)."""
        seq_len = self._hidden.shape[0]
        jacs = self.clf.rnn.hidden_jacobians_T(self._hidden)  # (T, B, H, H)
        items: List = [GradientVector(grad_h_last)]
        # Array order: T_J(h_T), T_J(h_{T−1}), …, T_J(h_1).
        for t in range(seq_len - 1, -1, -1):
            items.append(DenseJacobian(jacs[t]))

        self.context.reset_trace()
        scanned = self._scan(items)

        # out[p] = ∇h_{T−p+1} for p = 1..T.
        batch, hidden = grad_h_last.shape
        out = np.empty((seq_len, batch, hidden))
        for p in range(1, seq_len + 1):
            out[seq_len - p] = scanned[p].data
        return out

    # ------------------------------------------------------------------
    def apply_gradients(self, grads: Dict[int, np.ndarray]) -> None:
        for p in self.clf.parameters():
            g = grads.get(id(p))
            if g is not None:
                p.grad = g.reshape(p.data.shape)
