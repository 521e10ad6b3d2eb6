"""Spatial-architecture DNN accelerator model (Eyeriss-like) and mapper.

The paper's Section II motivation study maps GCN inference — including the
graph convolution expressed as a *dense* matrix multiplication with the
adjacency matrix as weights — onto an Eyeriss-like 182-PE array using
NN-Dataflow.  This package reimplements that flow analytically:

* :mod:`repro.dataflow.layers` — matmul/FC layer descriptors with optional
  operand sparsity annotations, and the lowering of any model's layer IR
  to them,
* :mod:`repro.dataflow.spatial` — the Table I array configuration,
* :mod:`repro.dataflow.mapper` — a tiling search over the buffer hierarchy
  that reports latency, off-chip traffic, and PE utilization (total and
  useful-only, for Figure 2).

The same mapper supplies the DNA throughput model inside the GNN
accelerator simulation (Section V, "NN-Dataflow is used to map DNN models
onto a Eyeriss-like single-tile spatial array").
"""

from repro.dataflow.conv import ConvLayer, pointwise_conv
from repro.dataflow.layers import MatmulLayer, ir_dense_layers
from repro.dataflow.spatial import EYERISS_CONFIG, SpatialArrayConfig
from repro.dataflow.mapper import (
    LayerAnalysis,
    Mapping,
    NetworkAnalysis,
    analyze_layer,
    analyze_network,
    search_mapping,
)

__all__ = [
    "ConvLayer",
    "pointwise_conv",
    "MatmulLayer",
    "ir_dense_layers",
    "SpatialArrayConfig",
    "EYERISS_CONFIG",
    "Mapping",
    "LayerAnalysis",
    "NetworkAnalysis",
    "search_mapping",
    "analyze_layer",
    "analyze_network",
]
