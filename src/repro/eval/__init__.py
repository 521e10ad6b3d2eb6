"""Experiment drivers: one entry point per paper table / figure.

``repro NAME`` prints each artifact as its entry in
:data:`repro.cli.ARTIFACTS` says; ``examples/reproduce_paper.py`` prints
them all in this order.

=========== ================== ==========================================
Artifact    Command            Function
=========== ================== ==========================================
Table I     ``repro table1``   :func:`repro.eval.tables.table1`
Table II    ``repro table2``   :func:`repro.eval.section2.table2`
Figure 2    ``repro figure2``  :func:`repro.eval.section2.figure2`
Table III   ``repro table3``   :func:`repro.eval.tables.table3`
Table IV    ``repro table4``   :func:`repro.eval.tables.table4`
Table V     ``repro table5``   :func:`repro.eval.tables.table5`
Table VI    ``repro table6``   :func:`repro.eval.tables.table6`
Table VII   ``repro table7``   :func:`repro.eval.baseline_tables.table7`
Figure 8    ``repro figure8``  :func:`repro.eval.speedups.figure8`
Figure 9    ``repro figure9``  :func:`repro.eval.tables.figure9`
Figure 10   ``repro figure10`` :func:`repro.eval.utilization.figure10`
Energy      ``repro energy``   :func:`repro.eval.energy.energy_table`
=========== ================== ==========================================
"""

from repro.eval.section2 import Section2Row, figure2, table2
from repro.eval.speedups import Figure8Cell, figure8
from repro.eval.utilization import Figure10Row, figure10
from repro.eval.baseline_tables import table7
from repro.eval.tables import (
    figure9,
    table1,
    table3,
    table4,
    table5,
    table6,
)
from repro.eval.report import format_table
from repro.eval.figures import bar_chart, figure8_chart, figure10_chart
from repro.eval.summary import headline_metrics
from repro.eval.energy import energy_table
from repro.eval.sweeps import (
    bandwidth_sweep,
    bound_analysis,
    clock_sweep,
    tile_sweep,
)
from repro.eval.partition_sweep import (
    ScalingPoint,
    partition_scaling,
    scaling_document,
)

__all__ = [
    "Section2Row",
    "table2",
    "figure2",
    "Figure8Cell",
    "figure8",
    "Figure10Row",
    "figure10",
    "table7",
    "table1",
    "table3",
    "table4",
    "table5",
    "table6",
    "figure9",
    "format_table",
    "bar_chart",
    "figure8_chart",
    "figure10_chart",
    "headline_metrics",
    "energy_table",
    "clock_sweep",
    "bandwidth_sweep",
    "tile_sweep",
    "bound_analysis",
    "ScalingPoint",
    "partition_scaling",
    "scaling_document",
]
