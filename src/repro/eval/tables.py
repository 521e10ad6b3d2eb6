"""Configuration tables (I, III, IV, V, VI) and the Figure 9 topologies.

These are generated from the live configuration objects rather than
hard-coded, so the reported values always reflect what the simulator
actually uses.
"""

from __future__ import annotations

from repro.accel.config import CONFIGURATIONS
from repro.baselines.machines import CPU_MACHINE, GPU_MACHINE
from repro.dataflow.spatial import EYERISS_CONFIG
from repro.graphs.datasets import DATASETS, dataset_statistics
from repro.noc.config import NOC_CONFIG


def table1() -> list[tuple[str, str]]:
    """Table I: the spatial-array (DNA) configuration."""
    config = EYERISS_CONFIG
    return [
        ("Number of PEs", str(config.num_pes)),
        ("PE configuration", f"{config.rows} x {config.cols}"),
        ("Register File Size", f"{config.register_file_bytes}B"),
        ("Global Buffer Size", f"{config.global_buffer_bytes // 1024}kB"),
        ("Precision", f"{config.bytes_per_value * 8}-bit fixed point"),
    ]


def table3() -> list[tuple[str, str]]:
    """Table III: baseline machine characteristics."""
    return [
        ("CPU", CPU_MACHINE.name),
        ("CPU peak", f"{CPU_MACHINE.peak_gflops:.0f} GFLOPs"),
        ("CPU memory BW", f"{CPU_MACHINE.mem_bw_gbps:.1f} GB/s"),
        ("GPU", GPU_MACHINE.name),
        ("GPU peak", f"{GPU_MACHINE.peak_gflops / 1000:.2f} TFLOPs"),
        ("GPU memory BW", f"{GPU_MACHINE.mem_bw_gbps:.1f} GB/s"),
    ]


def table4() -> list[tuple[str, str]]:
    """Table IV: NoC model parameters."""
    config = NOC_CONFIG
    return [
        ("Link Delay", f"{config.link_delay_cycles} cycle"),
        ("Routing Delay", f"{config.routing_delay_cycles} cycle"),
        (
            "Input buffers",
            f"{config.input_buffer_flits} flits, "
            f"{config.input_buffer_bytes}B",
        ),
        ("Routing algorithm", config.routing),
    ]


def table5() -> list[tuple[str, int, int, int, int, int, int]]:
    """Table V: dataset statistics, measured from the generated data."""
    rows = []
    for key in DATASETS:
        stats = dataset_statistics(key)
        rows.append(
            (
                stats.name,
                stats.graphs,
                stats.total_nodes,
                stats.total_edges,
                stats.vertex_features,
                stats.edge_features,
                stats.output_features,
            )
        )
    return rows


def table6() -> list[tuple[str, int, int, int, float]]:
    """Table VI: accelerator configurations."""
    return [
        (
            config.name,
            config.num_tiles,
            config.num_memory_nodes,
            config.total_alus,
            config.total_bandwidth_gbps,
        )
        for config in CONFIGURATIONS
    ]


def figure9() -> dict[str, list[str]]:
    """Figure 9: ASCII rendering of each configuration's mesh layout.

    ``T`` marks a tile, ``M`` a memory node, ``.`` an unused position.
    """
    drawings = {}
    for config in CONFIGURATIONS:
        tiles = set(config.tile_coords)
        memories = set(config.memory_coords)
        rows = []
        for y in range(config.mesh_height):
            cells = []
            for x in range(config.mesh_width):
                if (x, y) in tiles:
                    cells.append("T")
                elif (x, y) in memories:
                    cells.append("M")
                else:
                    cells.append(".")
            rows.append(" ".join(cells))
        drawings[config.name] = rows
    return drawings
