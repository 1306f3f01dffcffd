"""Correctness gate for one pipeline result.

Every check is built from plain data (simplex tuples, a value per simplex,
(dim, birth, death) intervals) and from constructions independent of the
package: Qhull (``scipy.spatial.Delaunay``) for the cells, a minimum
spanning tree of the Qhull edges for the H0 deaths, and face enumeration
for closure and monotonicity. Each function returns a list of problems;
an empty list means the result passed.
"""

from __future__ import annotations

import hashlib
import itertools
import math

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import minimum_spanning_tree
from scipy.spatial import Delaunay

Simplex = tuple[int, ...]
Interval = tuple[int, float, float]  # (dim, birth, death); death inf if essential

# Intervals at most this long (relative to the input scale) are treated as
# zero-length when comparing diagrams computed through different arithmetic.
SLIVER = 1e-9


def qhull_cells(points: np.ndarray) -> tuple[set[Simplex], list[str]]:
    # Delaunay cells are translation invariant; centering spares Qhull the
    # cancellation of clouds far from the origin.
    tri = Delaunay(points - points.mean(axis=0))
    problems = []
    if tri.coplanar.size:
        problems.append(f"qhull left {len(tri.coplanar)} points out of the triangulation")
    return {tuple(sorted(int(v) for v in s)) for s in tri.simplices}, problems


def lifted(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """X at height 0 and Y at height 1 in one extra coordinate."""
    return np.vstack([np.c_[x, np.zeros(len(x))], np.c_[y, np.ones(len(y))]])


def closure(cells, n_vertices: int) -> set[Simplex]:
    faces = {(v,) for v in range(n_vertices)}
    for cell in cells:
        for size in range(2, len(cell) + 1):
            faces.update(itertools.combinations(cell, size))
    return faces


def emst_lengths(points: np.ndarray) -> np.ndarray:
    """Edge lengths of the Euclidean minimum spanning tree, sorted."""
    cells, _ = qhull_cells(points)
    edges = {e for cell in cells for e in itertools.combinations(cell, 2)}
    i, j = np.array(sorted(edges)).T
    w = np.linalg.norm(points[i] - points[j], axis=1)
    n = len(points)
    tree = minimum_spanning_tree(coo_matrix((w, (i, j)), shape=(n, n)))
    return np.sort(tree.data)


def check_complex(x, y, simplices) -> list[str]:
    """The complex is the face closure of the Qhull cells of the lifted clouds."""
    d = x.shape[1]
    n = len(x) + len(y)
    problems = []
    members = set(simplices)
    if len(members) != len(simplices):
        problems.append("complex lists a simplex twice")
    expected_cells, qhull_problems = qhull_cells(lifted(x, y))
    problems += qhull_problems
    cells = {s for s in members if len(s) == d + 2}
    if cells != expected_cells:
        problems.append(
            f"cells differ from qhull: {len(cells - expected_cells)} extra, "
            f"{len(expected_cells - cells)} missing"
        )
    expected = closure(expected_cells, n)
    if members != expected:
        problems.append(
            f"complex is not the closure of the qhull cells: "
            f"{len(members - expected)} extra, {len(expected - members)} missing"
        )
    # The complex at r = infinity is a nerve of a cover of R^d: contractible.
    euler = sum((-1) ** (len(s) - 1) for s in members)
    if euler != 1:
        problems.append(f"Euler characteristic {euler}, expected 1")
    return problems


def check_filtration(x, y, simplices, values) -> list[str]:
    """Values cover the complex, are closed under faces and monotone."""
    problems = []
    if set(values) != set(simplices):
        problems.append("filtration and complex hold different simplices")
    points = np.vstack([x, y])
    scale = 1.0 + float(np.abs(points).max())
    for simplex, value in values.items():
        if len(simplex) == 1:
            if value != 0.0:
                problems.append(f"vertex {simplex} enters at {value}, not 0")
            continue
        if len(simplex) == 2:
            half = 0.5 * float(np.linalg.norm(points[simplex[0]] - points[simplex[1]]))
            if value < half - 1e-12 * scale:
                problems.append(f"edge {simplex} enters at {value} < half its length {half}")
        for drop in range(len(simplex)):
            facet = simplex[:drop] + simplex[drop + 1 :]
            face_value = values.get(facet)
            if face_value is None:
                problems.append(f"{simplex} lacks its facet {facet}")
            elif face_value > value:
                problems.append(f"{facet} enters at {face_value}, after {simplex} at {value}")
        if len(problems) > 20:
            break
    return problems


def check_diagram(x, y, n_simplices: int, intervals: list[Interval]) -> list[str]:
    """One essential class in H0, empty top dimensions, H0 deaths = EMST / 2."""
    d = x.shape[1]
    points = np.vstack([x, y])
    tol = 1e-12 * (1.0 + float(np.abs(points).max()))
    problems = []
    essential = [iv for iv in intervals if math.isinf(iv[2])]
    finite = [iv for iv in intervals if not math.isinf(iv[2])]
    if [iv[0] for iv in essential] != [0]:
        problems.append(f"essential classes in dimensions {[iv[0] for iv in essential]}, expected [0]")
    if 2 * len(finite) + len(essential) != n_simplices:
        problems.append(
            f"{len(finite)} pairs and {len(essential)} essential classes "
            f"do not account for {n_simplices} simplices"
        )
    if any(death < birth for _, birth, death in finite):
        problems.append("an interval dies before it is born")
    top = [iv for iv in finite if iv[0] >= d and iv[2] - iv[1] > tol]
    if top:
        problems.append(f"{len(top)} intervals of positive length in dimension >= {d}")
    deaths = np.sort([death for dim, birth, death in finite if dim == 0 and death - birth > 0.0])
    half = 0.5 * emst_lengths(points)
    if deaths.shape != half.shape:
        problems.append(f"{deaths.size} finite H0 deaths, EMST has {half.size} edges")
    elif deaths.size and float(np.abs(deaths - half).max()) > tol:
        problems.append(f"H0 deaths differ from EMST/2 by {float(np.abs(deaths - half).max())}")
    return problems


def positive(intervals: list[Interval], min_length: float) -> list[Interval]:
    return sorted(iv for iv in intervals if iv[2] - iv[1] > min_length)


def check_similar(base_simplices, base_intervals, simplices, intervals, scale: float) -> list[str]:
    """A similarity image keeps the complex and scales the diagram by ``scale``."""
    problems = []
    if set(simplices) != set(base_simplices):
        problems.append(f"complex under scale {scale} differs from the unit-scale complex")
    tol = 1e-6 * scale
    ours = positive(intervals, tol)
    theirs = [(dim, scale * b, scale * e) for dim, b, e in positive(base_intervals, 1e-6)]
    for dim in sorted({iv[0] for iv in ours + theirs}):
        a = [iv for iv in ours if iv[0] == dim]
        b = [iv for iv in theirs if iv[0] == dim]
        if len(a) != len(b):
            problems.append(f"H{dim} has {len(a)} intervals, scaled unit diagram {len(b)}")
            continue
        for u, v in zip(a, b):
            for lhs, rhs in ((u[1], v[1]), (u[2], v[2])):
                if not (lhs == rhs or abs(lhs - rhs) <= tol):
                    problems.append(f"H{dim} endpoint {lhs} vs scaled unit {rhs}")
                    break
    return problems[:20]


def diagram_digest(intervals: list[Interval]) -> str:
    """Digest of the diagram's positive intervals at nine significant digits.

    Rounding keeps the digest stable under last-bit changes in how values
    are computed; a unit-scale input is assumed.
    """
    text = "\n".join(
        f"{dim}:{birth:.8e}:{death:.8e}" for dim, birth, death in positive(intervals, SLIVER)
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def counts(simplices, intervals: list[Interval]) -> dict[str, list[int]]:
    """Simplices per dimension and positive intervals per dimension."""
    top = max(len(s) for s in simplices) - 1
    by_dim = [0] * (top + 1)
    for s in simplices:
        by_dim[len(s) - 1] += 1
    bars = [0] * (top + 1)
    for dim, _, _ in positive(intervals, SLIVER):
        bars[dim] += 1
    return {"simplices": by_dim, "intervals": bars}


def check_result(x, y, simplices, values, intervals) -> list[str]:
    return (
        check_complex(x, y, simplices)
        + check_filtration(x, y, simplices, values)
        + check_diagram(x, y, len(simplices), intervals)
    )
