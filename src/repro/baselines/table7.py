"""Table VII: baseline inference latencies.

``TABLE7_MEASURED_MS`` reproduces the paper's measured numbers verbatim.
The ``cpu`` and ``gpu`` execution systems (:mod:`repro.systems.baseline`)
report them, with the analytical machine model's prediction beside them
in each report's breakdown (EXPERIMENTS.md compares the two).  Speedup
figures (Figure 8) normalize against the measured values, exactly as the
paper does.
"""

from __future__ import annotations

#: Paper Table VII, milliseconds: (CPU system, GPU system).
TABLE7_MEASURED_MS: dict[str, tuple[float, float]] = {
    "gcn-cora": (3.50, 0.366),
    "gcn-citeseer": (3.97, 0.391),
    "gcn-pubmed": (30.11, 0.893),
    "gat-cora": (13.60, 0.801),
    "mpnn-qm9_1000": (2716.00, 443.3),
    "pgnn-dblp_1": (15.70, 7.50),
}
