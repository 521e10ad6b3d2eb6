"""Layer descriptors for the spatial-array mapper.

Every layer in the Section II study is computationally a matrix multiply
``C[M,N] = A[M,K] @ B[K,N]`` — a batched fully-connected layer, or the
graph convolution "implemented as a convolution with the adjacency matrix
as the weights".  Sparsity annotations (``a_nnz``) record how many entries
of the A operand are nonzero so useful-work fractions can be reported; the
dense scheduler itself ignores them, exactly like a dense DNN accelerator.

:func:`ir_dense_layers` lowers any model's layer IR to that sequence;
the Section II study (:mod:`repro.eval.section2`) and the ``eyeriss``
execution system both run it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.models.ir import ModelIR


@dataclass(frozen=True)
class MatmulLayer:
    """``C[M,N] = A[M,K] @ B[K,N]`` with optional A-operand sparsity.

    ``a_nnz`` is the number of nonzero entries of A (``None`` means fully
    dense).  For adjacency layers A is the normalized adjacency, streamed
    from memory; for projection layers A is the activation matrix.
    ``b_resident`` marks B as small enough to be treated as on-chip model
    state for traffic accounting of repeated networks.
    """

    name: str
    m: int
    k: int
    n: int
    a_nnz: int | None = None

    def __post_init__(self) -> None:
        if min(self.m, self.k, self.n) < 1:
            raise ValueError(f"layer {self.name}: dimensions must be positive")
        if self.a_nnz is not None and not 0 <= self.a_nnz <= self.m * self.k:
            raise ValueError(
                f"layer {self.name}: a_nnz={self.a_nnz} outside [0, m*k]"
            )

    @property
    def total_macs(self) -> int:
        """Dense MAC count."""
        return self.m * self.k * self.n

    @property
    def useful_macs(self) -> int:
        """MACs that touch a nonzero A entry."""
        if self.a_nnz is None:
            return self.total_macs
        return self.a_nnz * self.n

    @property
    def useful_fraction(self) -> float:
        """Share of the dense compute that is useful."""
        return self.useful_macs / self.total_macs

    @property
    def a_density(self) -> float:
        """Nonzero fraction of the A operand."""
        if self.a_nnz is None:
            return 1.0
        return self.a_nnz / (self.m * self.k)


class UnmappableSpecError(ValueError):
    """The IR contains a phase with no dense-matrix equivalent (e.g. a
    dependent multi-hop traversal), so it cannot be forced through a
    dense spatial-array mapping."""


def unmappable_specs(ir: "ModelIR") -> list[str]:
    """Names of the IR phases a dense mapper cannot express."""
    from repro.models.ir import TraversalAggregate

    return [
        spec.name for spec in ir.specs
        if isinstance(spec, TraversalAggregate)
    ]


def ir_dense_layers(ir: "ModelIR") -> list[MatmulLayer]:
    """Any model's layer IR as a dense matmul sequence, Section II style.

    Every dense phase becomes one fully-connected layer per attached
    :class:`~repro.models.workload.DenseMatmul` op (repeats batched into
    ``m``); every gather/reduce phase becomes a "convolution with the
    adjacency matrix as the weights" whose nonzero count is the phase's
    true input count.  Elementwise phases vanish into the streaming
    math, exactly as a dense DNN mapping would fuse them.  A GCN becomes
    Section II's four layers, project then propagate per layer
    (``project0``, ``propagate0``, ``project1``, ``propagate1``), whose
    adjacency operand ``A + I`` has one nonzero per stored directed edge
    plus one self loop per vertex.

    Raises :class:`UnmappableSpecError` for phases with no dense
    equivalent (PGNN's dependent multi-hop expansion).
    """
    from repro.models.ir import (
        DenseTransform,
        EdgeAggregate,
        GraphReduce,
        Pointwise,
        TraversalAggregate,
    )
    from repro.models.workload import DenseMatmul

    unmappable = unmappable_specs(ir)
    if unmappable:
        raise UnmappableSpecError(
            f"{ir.model} IR phases {unmappable} have no dense-matrix "
            f"equivalent (dependent multi-hop traversal)"
        )
    layers: list[MatmulLayer] = []
    projects = 0
    propagates = 0
    for spec in ir.specs:
        if isinstance(spec, DenseTransform):
            for op in spec.ops:
                if not isinstance(op, DenseMatmul):
                    continue
                layers.append(
                    MatmulLayer(
                        f"project{projects}",
                        m=op.m * op.count,
                        k=op.k,
                        n=op.n,
                    )
                )
                projects += 1
        elif isinstance(spec, EdgeAggregate):
            layers.append(
                MatmulLayer(
                    f"propagate{propagates}",
                    m=spec.num_outputs,
                    k=spec.num_outputs,
                    n=spec.width,
                    a_nnz=spec.num_inputs,
                )
            )
            propagates += 1
        elif isinstance(spec, GraphReduce):
            layers.append(
                MatmulLayer(
                    f"propagate{propagates}",
                    m=spec.num_outputs,
                    k=spec.num_inputs,
                    n=spec.width,
                    a_nnz=spec.num_inputs,
                )
            )
            propagates += 1
        elif isinstance(spec, (Pointwise, TraversalAggregate)):
            continue
        else:  # pragma: no cover - new spec kinds must choose a mapping
            raise TypeError(f"no dense mapping for {type(spec).__name__}")
    return layers
