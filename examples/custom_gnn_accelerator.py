"""Design-space exploration: bring your own GNN and your own accelerator.

The paper's motivating scenario for Section VI is "how does this design
scale?"  This example shows the two extension points a user has:

1. **Custom vertex programs** — define a new GNN layer directly as a
   :class:`~repro.runtime.program.TaskTable`, one column per dataflow
   field computed with numpy over every vertex at once (here: a
   GraphSAGE-style mean aggregator with a sampled neighbourhood).
2. **Custom hardware configurations** — sweep tile count, clock, and
   memory bandwidth beyond the Table VI points.

Run:  python examples/custom_gnn_accelerator.py
"""

import dataclasses

import numpy as np

from repro.accel import AcceleratorConfig, CPU_ISO_BW
from repro.graphs import citation_graph
from repro.runtime import (
    AcceleratorProgram,
    LayerProgram,
    TaskTable,
    simulate,
)
from repro.runtime.compiler import dna_efficiency


def sage_program(graph, hidden=32, sample=10):
    """GraphSAGE-mean as vertex programs.

    Each layer samples at most ``sample`` neighbours, gathers their
    states into the AGG, then projects the concatenated [self; mean]
    state on the DNA.  Every column is one numpy expression over the
    vertices, as the compiler lowers a layer.
    """
    n = graph.num_nodes
    vertices = np.arange(n)
    fanout = np.minimum(graph.degrees(), sample)
    layers = []
    for index, (f_in, f_out) in enumerate(
        [(graph.num_node_features, hidden), (hidden, hidden)]
    ):
        gather_tasks = TaskTable(
            n,
            vertex=vertices,
            control_instructions=16,
            block_load_bytes=np.maximum(fanout * 4, 4),
            gather_count=np.maximum(fanout, 1),
            gather_bytes_each=f_in * 4,
            output_bytes=f_in * 4,
        )
        project_tasks = TaskTable(
            n,
            vertex=vertices,
            control_instructions=16,
            feature_bytes=2 * f_in * 4,
            dna_macs=2 * f_in * f_out,
            output_bytes=f_out * 4,
        )
        layers.append(
            LayerProgram(
                name=f"sage{index}.sample_mean",
                tasks=gather_tasks,
                dnq_entry_bytes=f_in * 4,
                agg_width_values=f_in,
            )
        )
        layers.append(
            LayerProgram(
                name=f"sage{index}.project",
                tasks=project_tasks,
                dnq_entry_bytes=2 * f_in * 4,
                agg_width_values=f_out,
                dna_efficiency=dna_efficiency(
                    CPU_ISO_BW.tile.dna, n, 2 * f_in, f_out
                ),
            )
        )
    return AcceleratorProgram(name="GraphSAGE", layers=layers)


def scaled_config(pairs: int, clock_ghz: float) -> AcceleratorConfig:
    """``pairs`` adjacent tile+memory columns, like Figure 9 rows."""
    base = AcceleratorConfig(
        name=f"{pairs} tiles @ {clock_ghz} GHz",
        mesh_width=2,
        mesh_height=pairs,
        tile_coords=tuple((1, y) for y in range(pairs)),
        memory_coords=tuple((0, y) for y in range(pairs)),
        tile=CPU_ISO_BW.tile,
        memory=CPU_ISO_BW.memory,
    )
    return dataclasses.replace(base, clock_ghz=clock_ghz)


def main() -> None:
    graph = citation_graph(4000, 12000, seed=11, name="synthetic-4k")
    graph.node_features = np.zeros((4000, 256), dtype=np.float32)
    program = sage_program(graph)
    print(f"workload: GraphSAGE on {graph.name} "
          f"({graph.num_nodes} nodes, {graph.num_edges} edges)")
    print(f"{'config':24s} {'latency':>10s} {'BW util':>8s} {'DNA':>6s}")
    for pairs in (1, 2, 4):
        for clock in (1.2, 2.4):
            report = simulate(program, scaled_config(pairs, clock))
            print(
                f"{report.config_name:24s} {report.latency_ms:8.3f}ms "
                f"{report.bandwidth_utilization:7.0%} "
                f"{report.dna_utilization:5.0%}"
            )
    print("\nReading the sweep: with one tile the workload is bandwidth-"
          "bound (clock barely matters); adding tile+memory pairs scales "
          "both until the fixed-latency gather phase dominates.")


if __name__ == "__main__":
    main()
