"""The package's top-level names: what the README, CLI and benchmark import."""

import inspect
from pathlib import Path

import coupledalpha
from coupledalpha import oracle, reference

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
    # The fast paths read the constant geometry.EPS, the references reference.TOL.
    exported = [getattr(coupledalpha, name) for name in coupledalpha.__all__]
    for module in (oracle, reference):
        exported += [v for k, v in vars(module).items() if not k.startswith("_")]
    callables = [f for f in exported if callable(f)]
    for func in callables:
        try:
            params = inspect.signature(func).parameters
        except ValueError:  # no signature to inspect
            continue
        assert "eps" not in params, func
    pair = coupledalpha.PointCloudPair([[0.0, 0.0], [1.0, 0.0]], [[0.0, 1.0]])
    assert not hasattr(pair, "eps")


def test_readme_quick_start_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out  # the H1 intervals it prints
