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
    "_certified_inverse",
    "_bisector_points",
}


def test_fast_path_names_exist():
    # A renamed fast-path name would otherwise guard nothing.
    for name in FAST_PATH_NAMES:
        assert hasattr(geometry, name) or hasattr(delaunay, name), name


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
        "geometry": {"as_point_array", "lift_clouds"} | errors,
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
        geometry: ["Sphere", "Violation", "_circumsphere", "_sphere_violations",
                   "check_coupled_general_position", "_hull_coordinates"],
        delaunay: ["delaunay_bruteforce"],
    }
    for module, names in moved.items():
        for name in names:
            assert not hasattr(module, name), (module.__name__, name)
            assert hasattr(reference, name), name


def test_exact_oracle_reads_no_fast_path():
    # Agreement with the fast path and the references is evidence while the oracles compute on their own.
    banned = FAST_PATH_NAMES | {"_relaxed_batch"}
    imports = package_imports("oracle")
    assert not banned & {name for _, name in imports}
    assert not {source for source, name in imports if name == "*"} & {"geometry", "delaunay", "filtration"}
    assert "reference" not in {source for source, _ in imports}
    # What reference defines: its tolerances and its own functions and classes.
    banned |= {"TOL", "RCOND"} | {
        name for name, value in vars(reference).items() if getattr(value, "__module__", None) == reference.__name__
    }
    assert {"_circumsphere", "Sphere"} <= banned
    functions = {
        node.name: node
        for node in ast.parse((PACKAGE / "oracle.py").read_text()).body
        if isinstance(node, ast.FunctionDef)
    }
    # Every name read by each oracle and the module functions it reaches.
    for oracle, reached in [
        ("exact_filtration", {"qualifying_centres", "_orthogonal", "_project", "_powers", "_sqrt"}),
        ("cech_filtration", {"_integers", "_orthogonal", "_project", "_powers", "_sqrt"}),
    ]:
        read, todo = set(), [oracle]
        while todo:
            for node in ast.walk(functions[todo.pop()]):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if name and name not in read:
                    read.add(name)
                    todo += [name] if name in functions else []
        assert reached <= read, oracle
        assert not banned & read, oracle
