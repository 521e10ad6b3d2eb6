"""Reference GNN model implementations and their layer IR.

The paper evaluates four GNN benchmarks (Section V): GCN, GAT, MPNN, and
PGNN; GraphSAGE and GIN are registered extensions.  Each model provides

* ``forward(graph)`` — a numerically correct numpy inference pass, and
* ``layer_ir(graph)`` — the typed per-layer op stream
  (:class:`~repro.models.ir.ModelIR`) every execution view derives
  from: the analytical ``workload()`` the CPU/GPU rooflines price, the
  generic accelerator lowering, and the dense spatial-array mapping.
"""

from repro.models.activations import (
    elu,
    leaky_relu,
    relu,
    sigmoid,
    softmax,
    tanh,
)
from repro.models.workload import (
    DenseMatmul,
    EdgeAggregation,
    Elementwise,
    ModelWorkload,
    Traversal,
)
from repro.models.ir import (
    DenseTransform,
    EdgeAggregate,
    GraphReduce,
    LayerSpec,
    MacShape,
    ModelIR,
    Pointwise,
    TraversalAggregate,
)
from repro.models.base import GNNModel
from repro.models.gcn import GCN
from repro.models.gat import GAT
from repro.models.gin import GIN
from repro.models.mpnn import MPNN
from repro.models.pgnn import PGNN
from repro.models.sage import GraphSAGE
from repro.models.registry import (
    ALL_BENCHMARKS,
    BENCHMARKS,
    EXTENSION_BENCHMARKS,
    MODEL_FAMILIES,
    Benchmark,
    benchmark_ir,
    benchmark_ir_digest,
    benchmark_model,
    benchmark_workload,
    load_benchmark,
)

__all__ = [
    "relu",
    "elu",
    "leaky_relu",
    "sigmoid",
    "softmax",
    "tanh",
    "DenseMatmul",
    "EdgeAggregation",
    "Elementwise",
    "ModelWorkload",
    "Traversal",
    "DenseTransform",
    "EdgeAggregate",
    "GraphReduce",
    "LayerSpec",
    "MacShape",
    "ModelIR",
    "Pointwise",
    "TraversalAggregate",
    "GNNModel",
    "GCN",
    "GAT",
    "GIN",
    "MPNN",
    "PGNN",
    "GraphSAGE",
    "ALL_BENCHMARKS",
    "BENCHMARKS",
    "EXTENSION_BENCHMARKS",
    "MODEL_FAMILIES",
    "Benchmark",
    "benchmark_ir",
    "benchmark_ir_digest",
    "benchmark_model",
    "benchmark_workload",
    "load_benchmark",
]
