"""BPPSA for feedforward (Sequential) networks.

Implements the full method of paper Section 3 for a stack of layers
``f_1 ∘ … ∘ f_n`` with a softmax-cross-entropy objective:

1. forward pass, recording every activation ``x_0 … x_n``;
2. seed ``∇x_n ℓ`` in closed form;
3. assemble Eq. 5's array
   ``[∇x_n ℓ, (∂x_n/∂x_{n−1})^T, …, (∂x_1/∂x_0)^T]`` from the
   analytical CSR generators;
4. exclusive-scan it (linear / Blelloch / Hillis–Steele / truncated);
5. scatter parameter gradients with Eq. 2.

The produced gradients are an exact reconstruction of BP up to
floating-point reassociation (paper Section 3.5).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Union

import numpy as np

from repro.backend import ExecutorOwner, ScanExecutor
from repro.config import UNSET as _UNSET
from repro.config import ScanConfig, merge_engine_kwargs
from repro.config.facade import construction_executor as _construction_executor
from repro.jacobian.dispatch import BatchedJacobian, layer_tjac_batched
from repro.nn import layers as L
from repro.nn.loss import softmax_xent_grad
from repro.nn.module import Sequential
from repro.scan import (
    DenseJacobian,
    GradientVector,
    ScanContext,
    SparseJacobian,
    SparsePolicy,
)
from repro.scan.shape import AutoShape, ShapedScan
from repro.sparse import PatternCache
from repro.tensor import Tensor, no_grad


class FeedforwardBPPSA(ShapedScan, ExecutorOwner):
    """Gradient engine running BP as a parallel scan over a Sequential.

    Parameters
    ----------
    model:
        A :class:`~repro.nn.module.Sequential` of supported layers
        (Linear / Conv2d / ReLU / Tanh / Sigmoid / MaxPool2d /
        AvgPool2d / Flatten / SelfAttention / LayerNorm — so a
        :class:`~repro.nn.attention.TransformerBlock` works directly).
    config:
        A :class:`~repro.config.ScanConfig` (or spec string / mapping)
        naming the whole scan surface declaratively — the preferred
        construction path (see :func:`repro.build_engine`).  Unset
        fields resolve through ``repro.configure()`` overrides,
        environment variables, and defaults; the fully resolved config
        is kept on ``self.config``.  The config is pure *declarative*
        data: caller-provided ``executor``/``pattern_cache``
        *instances* take precedence over it but are not representable
        in it, so ``self.config`` then records the ambient spec rather
        than the instance actually in use (``self.executor`` /
        ``self.context.cache`` are authoritative).
    algorithm:
        ``"auto"`` (default: the truncation depth with the lowest
        modeled critical path on the scan's executor — ``"linear"`` on
        one worker; see :mod:`repro.scan.shape`), ``"blelloch"``,
        ``"linear"`` (the serial baseline, numerically identical to
        BP), ``"hillis_steele"``, or ``"truncated"`` (Section 5.2; set
        ``up_levels``).  Overrides the ``config`` field when given;
        ``self.config`` names the concrete shape of the latest scan.
    sparse_linear_tol:
        When set, linear-layer Jacobians are stored in CSR dropping
        entries ≤ tol — the pruned-retraining configuration.
    densify_threshold:
        **Deprecated** legacy form of the dispatch policy (it overlaps
        the sparse-policy threshold): emits a ``DeprecationWarning``
        and maps onto ``ScanConfig.densify_threshold`` (ignored when
        ``sparse`` is given, matching the historical behaviour).  Use
        ``sparse="auto:<t>"`` or ``config`` instead.
    sparse:
        Dense-vs-sparse dispatch for the scan: a
        :class:`~repro.scan.SparsePolicy`, a spec string (``"auto"``,
        ``"on"``, ``"off"``, ``"auto:0.4"``), or ``None`` for the
        ambient default (``repro.configure()`` override, else
        ``REPRO_SCAN_SPARSE``).  For any fixed policy, gradients are
        bitwise-identical on every backend; sparse- and dense-mode
        gradients agree up to floating-point reassociation
        (Section 3.5).
    executor:
        Scan-execution backend: a spec string (``"serial"``,
        ``"thread:8"``, ``"process:4"`` — see :mod:`repro.backend`), an
        executor instance, or ``None`` for the ambient default
        (``repro.configure()`` override, else ``REPRO_SCAN_BACKEND``).
        An explicit spec (kwarg or config field) builds a pool the
        engine owns; the ambient cases (``configure()`` override,
        environment variable, global default) keep following the
        shared ambient pool at scan time — the block's scoped pool
        inside ``configure(executor=…)``, the process-wide default
        otherwise — so engines never multiply ambient pools.  Every
        backend yields bitwise-identical gradients; call :meth:`close`
        (or use the engine as a context manager) to release pooled
        workers.
    """

    def __init__(
        self,
        model: Sequential,
        algorithm: Optional[str] = None,
        up_levels: Optional[int] = None,
        sparse_linear_tol: Optional[float] = None,
        densify_threshold: Union[float, None, object] = _UNSET,
        pattern_cache: Optional[PatternCache] = None,
        executor: Union[str, ScanExecutor, None] = None,
        sparse: Union[str, SparsePolicy, None] = None,
        config: Union[ScanConfig, str, Mapping, None] = None,
    ) -> None:
        merged = merge_engine_kwargs(
            config,
            algorithm=algorithm,
            up_levels=up_levels,
            sparse_linear_tol=sparse_linear_tol,
            densify_threshold=densify_threshold,
            executor=executor,
            sparse=sparse,
        )
        cfg = merged.resolve()
        self.config = cfg
        self.model = model
        self.algorithm = cfg.algorithm
        self.up_levels = cfg.up_levels
        self.sparse_linear_tol = cfg.sparse_linear_tol
        self._auto = AutoShape()
        self.set_executor(_construction_executor(merged, cfg, executor))
        self.context = ScanContext(
            pattern_cache=(
                pattern_cache
                if pattern_cache is not None
                else cfg.make_pattern_cache()
            ),
            sparse=cfg.sparse_policy(),
            kernel=cfg.kernel,
        )
        self._activations: List[np.ndarray] = []

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
        """Forward pass recording activations; returns logits (B, C)."""
        self._activations = [np.asarray(x, dtype=np.float64)]
        with no_grad():
            cur = Tensor(self._activations[0])
            for layer in self.model:
                cur = layer(cur)
                self._activations.append(cur.data)
        return self._activations[-1]

    # ------------------------------------------------------------------
    def scan_items(self, seed: np.ndarray) -> tuple:
        """Assemble Eq. 5's array and the stage → scan-position map.

        Identity-Jacobian stages (Flatten) are folded away; the returned
        ``positions`` list gives, for each layer index, the scan output
        position holding ``∇(output of that layer)``.
        """
        items: list = [GradientVector(seed)]
        positions: List[int] = [0] * len(self.model.layers)
        appended = 0
        for idx in range(len(self.model.layers) - 1, -1, -1):
            layer = self.model.layers[idx]
            x_in = self._activations[idx]
            x_out = self._activations[idx + 1]
            # ∇(output of layer idx) = out[1 + #Jacobians of layers above].
            positions[idx] = 1 + appended
            jac = layer_tjac_batched(
                layer, x_in, x_out, sparse_linear_tol=self.sparse_linear_tol
            )
            if jac is None:
                continue  # identity Jacobian: same gradient slot as above
            items.append(self.sparse_policy.element(_to_element(jac)))
            appended += 1
        if positions and positions[0] > appended:
            raise ValueError(
                "an identity-Jacobian layer (Flatten) cannot be the "
                "bottom-most stage: the exclusive scan does not produce "
                "the model-input gradient"
            )
        return items, positions

    def compute_gradients(
        self,
        x: np.ndarray,
        targets: np.ndarray,
        input_gradient: bool = False,
    ) -> Dict[int, np.ndarray]:
        """Full BPPSA step: returns ``{id(param): grad}`` for Eq. 2.

        Also leaves activation gradients in ``self.last_activation_grads``
        (list parallel to layers, each (B, d) flattened) for inspection.
        With ``input_gradient=True`` the exclusive scan is extended by
        one ⊙ application so ``∇x_0 ℓ`` (gradient w.r.t. the model
        input) lands in ``self.last_input_gradient``.
        """
        logits = self.forward(x)
        self.last_logits = logits
        seed = softmax_xent_grad(logits, targets)
        items, positions = self.scan_items(seed)
        scanned = self._run_scan(items)

        self.last_input_gradient = None
        if input_gradient:
            from repro.scan.elements import OpInfo

            # The exclusive scan never consumes the final Jacobian
            # (∂x_1/∂x_0)^T; one extra ⊙ yields the input gradient.
            final = self.context.op(
                scanned[len(items) - 1],
                items[-1],
                OpInfo("input-grad", 0, len(items) - 1, len(items)),
            )
            self.last_input_gradient = final.data.reshape(np.asarray(x).shape)

        grads: Dict[int, np.ndarray] = {}
        act_grads: List[np.ndarray] = []
        for idx, layer in enumerate(self.model.layers):
            p = positions[idx]
            g_out = scanned[p].data  # (B, d_out), flattened
            act_grads.append(g_out)
            self._accumulate_param_grads(layer, idx, g_out, grads)
        self.last_activation_grads = act_grads
        return grads

    # ------------------------------------------------------------------
    def _run_scan(self, items: list) -> list:
        self.context.reset_trace()
        return self._scan(items)

    def _accumulate_param_grads(
        self, layer, idx: int, g_out: np.ndarray, grads: Dict[int, np.ndarray]
    ) -> None:
        from repro.core.param_grads import (
            attention_param_grads,
            conv2d_param_grads,
            linear_param_grads,
        )
        from repro.nn.attention import SelfAttention

        x_in = self._activations[idx]
        x_out = self._activations[idx + 1]
        if isinstance(layer, SelfAttention):
            res = attention_param_grads(layer, x_in, g_out)
            grads[id(layer.wq)] = res["wq"]
            grads[id(layer.wk)] = res["wk"]
            grads[id(layer.wv)] = res["wv"]
            return
        if isinstance(layer, L.Linear):
            # Collapse any leading position axes so the same contraction
            # serves both flat (B, d_in) and position-wise (B, T, d_in)
            # applications (bias then sums over batch *and* positions).
            res = linear_param_grads(
                x_in.reshape(-1, layer.in_features),
                g_out.reshape(-1, layer.out_features),
                layer.bias is not None,
            )
        elif isinstance(layer, L.Conv2d):
            res = conv2d_param_grads(
                x_in,
                g_out.reshape(x_out.shape),
                layer.weight.data.shape,
                layer.stride,
                layer.padding,
                layer.bias is not None,
            )
        else:
            return
        grads[id(layer.weight)] = res["weight"]
        if res["bias"] is not None:
            grads[id(layer.bias)] = res["bias"]

    # ------------------------------------------------------------------
    def apply_gradients(self, grads: Dict[int, np.ndarray]) -> None:
        """Write gradients into ``param.grad`` (for ``Optimizer.step``)."""
        for p in self.model.parameters():
            g = grads.get(id(p))
            if g is not None:
                p.grad = g.reshape(p.data.shape)


def _to_element(jac: BatchedJacobian):
    if jac.is_sparse:
        if jac.data is None:
            return SparseJacobian(jac.pattern)
        return SparseJacobian(jac.pattern, jac.data)
    return DenseJacobian(jac.dense)
