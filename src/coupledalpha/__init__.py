"""Coupled alpha complexes for pairs of point clouds in low dimension.

The library builds the complex holding both clouds' alpha complexes at
once, assigns its min-max filtration values, and computes persistent
homology over GF(2), with brute-force oracles certifying every fast path.

The top level exports the pipeline of the README and the command line,
the per-layer entry points the benchmark times, and the errors a caller
can expect. Everything else is reached through its submodule.
"""

from .complexes import CoupledComplex, PointCloudPair, coupled_alpha_infty
from .delaunay import AmbiguousTriangulation, delaunay_incremental
from .filtration import coupled_filtration, relaxed_value
from .geometry import EPS, DegenerateInput, GeometryError, jitter, lift_clouds
from .harness import scaling_experiment
from .homology import boundary_matrix, persistence_diagram, reduce_and_pair
from .oracle import diagram_discrepancy_vs_reference
from .reference import check_coupled_general_position

__version__ = "0.1.0"

__all__ = [
    "AmbiguousTriangulation",
    "CoupledComplex",
    "DegenerateInput",
    "EPS",
    "GeometryError",
    "PointCloudPair",
    "boundary_matrix",
    "check_coupled_general_position",
    "coupled_alpha_infty",
    "coupled_filtration",
    "delaunay_incremental",
    "diagram_discrepancy_vs_reference",
    "jitter",
    "lift_clouds",
    "persistence_diagram",
    "reduce_and_pair",
    "relaxed_value",
    "scaling_experiment",
]
