"""Find the bottleneck of a simulated run with the execution tracer.

Attaches an observer that records phase transitions (the
:class:`repro.runtime.Tracer` of a :class:`repro.obs.Observer`) to the
engine, runs GAT on Cora, and mines the trace: slowest vertex
programs, time spent per phase, and the degree/latency correlation
that shows who pays for hubs.

Run:  python examples/trace_debugging.py
"""

import numpy as np

from repro.accel import Accelerator, CPU_ISO_BW
from repro.graphs import cora
from repro.models import Benchmark, benchmark_model
from repro.obs import Observer
from repro.runtime import compile_model
from repro.runtime.engine import RuntimeEngine


def main() -> None:
    graph = cora()
    model = benchmark_model(Benchmark("GAT", "cora"))
    program = compile_model(model, graph)

    observer = Observer()
    engine = RuntimeEngine(Accelerator(CPU_ISO_BW), observer=observer)
    report = engine.run(program)
    tracer = observer.tracer
    print(f"GAT on {graph.name}: {report.latency_ms:.3f} ms, "
          f"{len(tracer)} trace events")

    print("\nEvents per phase:")
    for phase, count in sorted(tracer.phase_counts().items()):
        print(f"  {phase:10s} {count}")

    print("\nFive slowest vertex programs:")
    for layer, vertex, duration in tracer.slowest_tasks(5):
        degree = len(graph.neighbors(vertex))
        print(f"  {layer:18s} vertex {vertex:5d} "
              f"(degree {degree:3d}): {duration:8.1f} ns")

    # Correlate task span with vertex degree in the aggregate layer.
    spans = tracer.task_spans()
    degrees, durations = [], []
    for (layer, vertex), (start, end) in spans.items():
        if layer == "gat0.aggregate":
            degrees.append(len(graph.neighbors(vertex)))
            durations.append(end - start)
    correlation = np.corrcoef(degrees, durations)[0, 1]
    print(f"\nDegree vs aggregate-task-span correlation: "
          f"{correlation:.2f}")
    print("High-degree vertices gather more neighbours, so their vertex "
          "programs dominate the layer's tail — the load-balance argument "
          "for the paper's round-robin vertex interleave.")


if __name__ == "__main__":
    main()
