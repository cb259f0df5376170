"""Protection-coordination study engine for distribution grids with DG.

Computes three-phase short-circuit currents by complex nodal analysis,
evaluates inverse-time overcurrent relay operating times and main/backup
coordination intervals, and sizes a unidirectional fault current limiter
(UFCL) so upstream fault levels return to their pre-DG values.

Modules:
    netmodel     network types, file loading, validation, per-unit, partition
    faultcalc    nodal fault solution plus an independent dense oracle
    relaycurve   inverse-time characteristic evaluation
    coordination CTI checking, TDS optimization
    ufcl         limiter downstream side and resistance sizing
    studio       scenario runner, report emission, CLI
"""

from importlib.resources import files
from pathlib import Path

__version__ = "0.1.0"


def bundled_dataset_path() -> Path:
    """Filesystem path of the bundled calibrated study grid."""
    return Path(str(files("protcoord").joinpath("data/study_grid.json")))
