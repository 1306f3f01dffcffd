"""Which modules may import what: the references stay apart from the fast paths."""

import ast
from pathlib import Path

import pytest

import coupledalpha
from coupledalpha import delaunay, geometry, reference

PACKAGE = Path(coupledalpha.__file__).resolve().parent

# The fast-path names the references must never read.
FAST_PATH_NAMES = {
    "EPS",
    "RANK_RCOND",
    "_prepare",
    "_certified_solve",
    "_bisector_points",
    "_svd_solve",
}


def package_imports(module: str) -> list[tuple[str, str]]:
    """(module, name) for every name a package module imports from the package.

    ``import coupledalpha.x`` and ``from . import x`` give (x, "*"): the whole
    module, so every name in it is reachable.
    """
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if node.level == 0:
                if not source.startswith("coupledalpha"):
                    continue
                source = source.removeprefix("coupledalpha").lstrip(".")
            if not source:  # from . import x
                found += [(alias.name, "*") for alias in node.names]
            else:
                found += [(source, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("coupledalpha."):
                    found.append((alias.name.removeprefix("coupledalpha."), "*"))
    return found


@pytest.mark.parametrize(
    "module", ["geometry", "delaunay", "filtration", "homology", "_rows", "complexes"]
)
def test_fast_paths_import_nothing_from_reference(module):
    taken = {name for source, name in package_imports(module) if source == "reference"}
    allowed = set()
    assert taken == allowed


def test_reference_imports_no_fast_path():
    errors = {
        name
        for name, value in vars(geometry).items()
        if isinstance(value, type) and issubclass(value, Exception)
    }
    allowed_from = {
        "geometry": {"as_point_array", "_hull_coordinates", "lift_clouds"} | errors,
        "delaunay": {"Triangulation", "AmbiguousTriangulation"},
    }
    imports = package_imports("reference")
    assert imports
    for source, name in imports:
        assert name in allowed_from.get(source, set()), (source, name)
        assert name not in FAST_PATH_NAMES
        # The module docstring names each of them.
        assert f"``{name}``" in reference.__doc__ or name in errors, name
    assert not FAST_PATH_NAMES & set(vars(reference))


def test_reference_code_left_the_fast_paths():
    moved = {
        geometry: ["Sphere", "Violation", "_circumsphere", "min_enclosing_ball",
                   "_sphere_violations", "check_coupled_general_position", "diameter"],
        delaunay: ["delaunay_bruteforce"],
    }
    for module, names in moved.items():
        for name in names:
            assert not hasattr(module, name), (module.__name__, name)
            assert hasattr(reference, name), name
