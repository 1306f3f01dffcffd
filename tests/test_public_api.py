"""The package's top-level names: what the README, CLI and benchmark import."""

import coupledalpha

# Reached through the top level by the benchmark under perfbench/.
BENCHMARK_NAMES = {
    "PointCloudPair",
    "boundary_matrix",
    "coupled_alpha_infty",
    "coupled_filtration",
    "delaunay_incremental",
    "diagram_discrepancy_vs_reference",
    "lift_clouds",
    "persistence_diagram",
    "reduce_and_pair",
    "relaxed_value",
}


def test_every_exported_name_resolves():
    for name in coupledalpha.__all__:
        assert getattr(coupledalpha, name, None) is not None, name
    assert len(set(coupledalpha.__all__)) == len(coupledalpha.__all__)


def test_benchmark_names_exported():
    assert BENCHMARK_NAMES <= set(coupledalpha.__all__)
