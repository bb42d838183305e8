"""Static FLOP analysis of scan executions — the Figure 11 machinery.

Runs a scan algorithm *symbolically* over the stage Jacobians' CSR
patterns: every ⊙ application is costed (sparse-aware FLOPs plus the
dense-equivalent ``m·n·k`` the paper uses as Figure 11's x-axis) without
any numeric multiplication.  When chaining exact patterns becomes too
large to materialize, the analyzer degrades gracefully to a
uniform-distribution estimate (documented in EXPERIMENTS.md); the FLOP
count of a product of two *exact* patterns is always exact.

Baseline costs ("gradient operators" of ordinary BP — the green circles)
come from the standard dense backward FLOP formulas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Union

import numpy as np

from repro.scan.algorithms import (
    blelloch_scan,
    linear_scan,
    truncated_blelloch_scan,
)
from repro.scan.elements import Identity, OpInfo
from repro.sparse import CSRMatrix, build_spgemm_plan, spgemm_flops


# ---------------------------------------------------------------------------
# symbolic elements
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class VectorElement:
    dim: int


@dataclass(frozen=True)
class EstimatePattern:
    """A pattern known only through its shape and expected nnz."""

    shape: tuple
    nnz: float


PatternLike = Union[CSRMatrix, EstimatePattern]


@dataclass
class StepCost:
    """One scan step's static cost — one point in Figure 11."""

    phase: str
    level: int
    kind: str  # "mv" | "mm"
    flops: float
    dense_mnk: float
    critical: bool = False
    exact: bool = True


class StaticScanAnalyzer:
    """Cost a scan over CSR patterns without numeric execution.

    Parameters
    ----------
    expansion_limit:
        Maximum number of expanded partial products for which the exact
        SpGEMM symbolic phase is materialized; beyond it, products are
        *estimated* (their own FLOPs stay exact when both inputs are
        exact; downstream steps become estimates).
    """

    def __init__(self, expansion_limit: int = 20_000_000) -> None:
        self.expansion_limit = expansion_limit
        self.steps: List[StepCost] = []

    # ------------------------------------------------------------------
    def analyze(
        self,
        patterns: Sequence[PatternLike],
        grad_dim: int,
        algorithm: str = "truncated",
        up_levels: int = 2,
    ) -> List[StepCost]:
        """Cost the scan of ``[∇, P_n, …, P_1]``.

        ``patterns`` are the stage transposed-Jacobian patterns ordered
        as in Eq. 5 (last layer first).  Returns the step list and marks
        per-level critical steps (max FLOPs in each level — the filled
        circles of Figure 11).
        """
        return self.analyze_items(
            [VectorElement(grad_dim), *patterns], algorithm, up_levels
        )

    def analyze_items(
        self,
        items: Sequence[object],
        algorithm: str = "truncated",
        up_levels: int = 2,
    ) -> List[StepCost]:
        """Cost the scan of symbolic ``items`` — :class:`VectorElement`
        seeds and pattern-like matrices in Eq. 5 order.  :meth:`analyze`
        is the gradient-seeded special case."""
        self.steps = []
        if algorithm == "linear":
            linear_scan(items, self._op)
        elif algorithm == "blelloch":
            blelloch_scan(items, self._op)
        elif algorithm == "truncated":
            truncated_blelloch_scan(items, self._op, up_levels=up_levels)
        else:
            raise ValueError(f"unknown algorithm {algorithm!r}")

        self._mark_critical()
        return self.steps

    def baseline_steps(
        self, layer_costs: Sequence[tuple]
    ) -> List[StepCost]:
        """Baseline BP 'gradient operator' costs (green circles).

        ``layer_costs`` — (flops, dense_mnk) per layer, e.g. from
        :func:`conv_dgrad_flops`.  Each is one sequential step on the
        baseline's critical path.
        """
        return [
            StepCost(
                phase="baseline",
                level=i,
                kind="mv",
                flops=f,
                dense_mnk=mnk,
                critical=True,
            )
            for i, (f, mnk) in enumerate(layer_costs)
        ]

    # ------------------------------------------------------------------
    def _op(self, a, b, info: OpInfo):
        if isinstance(a, (str, Identity)) or isinstance(b, (str, Identity)):
            return b if isinstance(a, (str, Identity)) else a
        if isinstance(a, VectorElement):
            return self._matvec(a, b, info)
        return self._matmat(a, b, info)

    def _matvec(self, v: VectorElement, b: PatternLike, info: OpInfo):
        m, n = _shape(b)
        if n != v.dim:
            raise ValueError(f"shape mismatch: {(m, n)} @ ({v.dim},)")
        flops = 2.0 * _nnz(b)
        self.steps.append(
            StepCost(
                phase=info.phase,
                level=info.level,
                kind="mv",
                flops=flops,
                dense_mnk=float(m) * n,
                exact=isinstance(b, CSRMatrix),
            )
        )
        return VectorElement(m)

    def _matmat(self, a: PatternLike, b: PatternLike, info: OpInfo):
        # result = B @ A
        (mb, kb), (ka, na) = _shape(b), _shape(a)
        if kb != ka:
            raise ValueError(f"shape mismatch: {(mb, kb)} @ {(ka, na)}")
        mnk = float(mb) * na * kb
        exact_inputs = isinstance(a, CSRMatrix) and isinstance(b, CSRMatrix)
        if exact_inputs:
            expansion = spgemm_flops(b, a) // 2
            flops = 2.0 * expansion
            if expansion <= self.expansion_limit:
                plan = build_spgemm_plan(b, a)
                out: PatternLike = CSRMatrix(
                    plan.out_indptr,
                    plan.out_indices,
                    np.ones(plan.out_nnz),
                    plan.out_shape,
                )
                exact_out = True
            else:
                out = EstimatePattern(
                    (mb, na), min(float(mb) * na, float(expansion))
                )
                exact_out = False
        else:
            # expected expansion under uniformly distributed nnz
            expansion = _nnz(b) * _nnz(a) / kb
            flops = 2.0 * expansion
            out = EstimatePattern((mb, na), min(float(mb) * na, expansion))
            exact_out = False
        self.steps.append(
            StepCost(
                phase=info.phase,
                level=info.level,
                kind="mm",
                flops=flops,
                dense_mnk=mnk,
                exact=exact_inputs and exact_out,
            )
        )
        return out

    def _mark_critical(self) -> None:
        by_level: dict = {}
        for s in self.steps:
            by_level.setdefault((s.phase, s.level), []).append(s)
        for group in by_level.values():
            fmax = max(s.flops for s in group)
            for s in group:
                s.critical = s.flops == fmax


def _shape(p: PatternLike) -> tuple:
    return p.shape


def _nnz(p: PatternLike) -> float:
    return float(p.nnz)


# ---------------------------------------------------------------------------
# baseline dense-backward FLOP formulas
# ---------------------------------------------------------------------------
def conv_dgrad_flops(
    ci: int, co: int, kernel: int, hi: int, wi: int, ho: int, wo: int,
    weight_density: float = 1.0,
) -> tuple:
    """FLOPs of one conv data-gradient ("gradient operator") per sample.

    Dense formula ``2 · ci·hi·wi · co·k²`` scaled by the surviving
    weight fraction (a pruned-aware baseline would skip zero weights);
    returns ``(flops, dense_mnk)`` with mnk the dense transposed-
    Jacobian matvec size.
    """
    flops = 2.0 * ci * hi * wi * co * kernel * kernel * weight_density
    mnk = float(ci * hi * wi) * (co * ho * wo)
    return flops, mnk


def elementwise_backward_flops(dim: int) -> tuple:
    """ReLU/tanh-style backward: one multiply per element."""
    return 2.0 * dim, float(dim) * dim
