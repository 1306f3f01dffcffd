"""The package's top-level names: what the README, CLI and benchmark import."""

import inspect

import coupledalpha
from coupledalpha.delaunay import delaunay_bruteforce
from coupledalpha.geometry import min_enclosing_ball
from coupledalpha.oracle import cech_filtration

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


def test_no_callable_takes_a_tolerance():
    # The geometric tolerance is the constant EPS, read by every predicate.
    exported = [getattr(coupledalpha, name) for name in coupledalpha.__all__]
    callables = [f for f in exported if callable(f)]
    callables += [delaunay_bruteforce, min_enclosing_ball, cech_filtration]
    for func in callables:
        try:
            params = inspect.signature(func).parameters
        except ValueError:  # no signature to inspect
            continue
        assert "eps" not in params, func
    pair = coupledalpha.PointCloudPair([[0.0, 0.0], [1.0, 0.0]], [[0.0, 1.0]])
    assert not hasattr(pair, "eps")
