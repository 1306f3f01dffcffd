"""Delaunay triangulations in R^m via two independent routes.

``delaunay_bruteforce`` is the correctness reference: it tests the empty
circumsphere property for every candidate cell directly from the
definition. ``delaunay_incremental`` is the fast path: Bowyer-Watson
insertion over one store of cells, in which each convex-hull facet f is
the cell (-1,) + f through a vertex at infinity (as in CGAL's
triangulations). A cell at infinity conflicts with the open outer
half-space of its facet, plus coplanar points strictly inside the facet's
own circumsphere, so no artificial far-away vertices ever enter a
circumsphere computation. The result is verified post hoc from the
spheres and planes the insertion stored: every facet is shared by exactly
two cells, every point lies inside every hull plane, and every finite
cell's circumsphere is empty.

Point sets whose affine hull is a proper flat of R^m (fewer than m+1
points, or clouds lying in a common hyperplane, as lifted inputs do when
one side is small) are triangulated inside their affine hull: both routes
first map the input isometrically onto hull coordinates.

Cells are emitted as sorted index tuples; under general position the cell
set is unique, and both routes return it. Points within ``EPS`` of a
cosphericality (a non-vertex on a candidate cell's circumsphere) raise
``AmbiguousTriangulation`` instead of silently picking a diagonal.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .geometry import (
    EPS,
    DegenerateInput,
    GeometryError,
    _circumsphere,
    _hull_coordinates,
    _sq_distance_blocks,
    as_point_array,
)


class AmbiguousTriangulation(GeometryError):
    """The Delaunay triangulation is not unique within tolerance."""


@dataclass(frozen=True, eq=False)
class Triangulation:
    """A simplicial triangulation of a point set.

    ``cells`` are the top-dimensional simplices as sorted vertex-index
    tuples, in lexicographic order. For n points of affine rank m the
    cells have m+1 vertices.
    """

    points: np.ndarray
    cells: tuple[tuple[int, ...], ...]


def _prepare(points, eps: float) -> tuple[np.ndarray, np.ndarray, int]:
    pts = as_point_array(points)
    n = pts.shape[0]
    if n >= 2:
        # The closest pair, first in row-major order, scanned in row blocks.
        best, i, j = np.inf, 0, 0
        for start, dist2 in _sq_distance_blocks(pts):
            rows = np.arange(dist2.shape[0])
            dist2[rows, start + rows] = np.inf
            at = int(dist2.argmin())
            if dist2.flat[at] < best:
                best, i, j = dist2.flat[at], start + at // n, at % n
        if float(best) <= eps * eps:
            raise DegenerateInput(f"points {i} and {j} coincide within tolerance")
    coords, rank = _hull_coordinates(pts)
    return pts, coords, rank


def delaunay_bruteforce(points, eps: float = EPS) -> Triangulation:
    """Delaunay triangulation straight from the empty-circumsphere definition.

    Every (m+1)-subset of the (hull-reduced) points is tested: affinely
    dependent subsets are skipped, subsets whose circumsphere strictly
    contains another point are rejected, and a non-member lying on the
    circumsphere of an otherwise empty sphere raises
    ``AmbiguousTriangulation``.
    """
    pts, coords, rank = _prepare(points, eps)
    n = coords.shape[0]
    if rank == 0:
        return Triangulation(pts, ())
    cells = []
    for combo in itertools.combinations(range(n), rank + 1):
        sphere = _circumsphere(coords[list(combo)], eps)
        if sphere is None:
            continue
        dist = np.linalg.norm(coords - sphere.center, axis=1)
        dist[list(combo)] = np.inf
        tol = eps * (1.0 + sphere.radius)
        if bool((dist < sphere.radius - tol).any()):
            continue
        on = np.nonzero(np.abs(dist - sphere.radius) <= tol)[0]
        if on.size:
            raise AmbiguousTriangulation(
                f"point {int(on[0])} lies on the circumsphere of candidate cell {combo}"
            )
        cells.append(combo)
    return Triangulation(pts, tuple(sorted(cells)))


class _CellStore:
    """Growable arrays of cells, hull facets included as cells at infinity.

    A row holds m+1 sorted vertex indices; -1 is the vertex at infinity,
    so a hull facet f is the row (-1,) + f. Every row carries the
    circumsphere of its finite vertices (center, squared radius) and a
    unit outward normal with offset. Finite cells get normal 0 and offset
    0, so their side is always 0; dead rows get squared radius -inf, so
    they never conflict.

    A point p conflicts with a row when ``side > tol``, or when
    ``|side| <= tol`` and p lies strictly inside the sphere. For a finite
    cell that is the in-sphere test. For a hull cell it is the open outer
    half-space plus coplanar points inside the facet's circumsphere, which
    agrees with the finite cell behind the facet, since that cell's
    circumsphere meets the facet's hyperplane in the facet's circumsphere.
    """

    def __init__(self, coords: np.ndarray, interior: np.ndarray, eps: float):
        n, m = coords.shape
        self.coords = coords
        self.interior = interior
        self.eps = eps
        self.side_tol = eps * (1.0 + float(np.abs(coords).max()))
        capacity = 8 * n + 64
        self.verts = np.full((capacity, m + 1), -1, dtype=np.int64)
        self.centers = np.zeros((capacity, m))
        self.radii2 = np.full(capacity, -np.inf)
        self.normals = np.zeros((capacity, m))
        self.offsets = np.zeros(capacity)
        self.count = 0

    def add(self, cell: tuple[int, ...]) -> None:
        hull = cell[0] == -1
        pts = self.coords[list(cell[1:] if hull else cell)]
        sphere = _circumsphere(pts, self.eps)
        if sphere is None:
            raise AmbiguousTriangulation(f"cell {cell} is affinely degenerate within tolerance")
        normal, offset = np.zeros(pts.shape[1]), 0.0
        if hull:
            if pts.shape[1] == 1:
                normal = np.ones(1)
            else:
                normal = np.linalg.svd(pts[1:] - pts[0], full_matrices=True)[2][-1]
            ref = float(normal @ (self.interior - pts[0]))
            if abs(ref) <= self.side_tol:
                raise AmbiguousTriangulation(
                    f"cannot orient hull cell {cell}; input degenerate within tolerance"
                )
            if ref > 0.0:
                normal = -normal
            offset = float(normal @ pts[0])
        if self.count == self.verts.shape[0]:
            for name in ("verts", "centers", "radii2", "normals", "offsets"):
                arr = getattr(self, name)
                setattr(self, name, np.concatenate([arr, np.zeros_like(arr)]))
            self.radii2[self.count :] = -np.inf
        row = self.count
        self.verts[row] = cell
        self.centers[row] = sphere.center
        self.radii2[row] = sphere.radius**2
        self.normals[row] = normal
        self.offsets[row] = offset
        self.count += 1

    def kill(self, rows) -> None:
        self.radii2[rows] = -np.inf
        self.normals[rows] = 0.0
        self.offsets[rows] = 0.0

    def conflicts(self, p: np.ndarray) -> np.ndarray:
        k = self.count
        side = self.normals[:k] @ p - self.offsets[:k]
        diff = self.centers[:k] - p
        inside = np.einsum("ij,ij->i", diff, diff) < self.radii2[:k]
        tol = self.side_tol
        return np.nonzero((side > tol) | ((np.abs(side) <= tol) & inside))[0]

    def live(self) -> np.ndarray:
        return np.nonzero(self.radii2[: self.count] > -np.inf)[0]

    def cells(self, rows) -> list[tuple[int, ...]]:
        return [tuple(cell) for cell in self.verts[rows].tolist()]


def _facet_counts(cells) -> Counter:
    """How many of the given cells share each facet."""
    return Counter(cell[:drop] + cell[drop + 1 :] for cell in cells for drop in range(len(cell)))


def _initial_simplex(coords: np.ndarray, order: np.ndarray, eps: float) -> list[int]:
    """m+1 affinely independent indices, greedily farthest from the hull so far."""
    n, m = coords.shape
    scale = 1.0 + float(np.abs(coords).max())
    chosen = [int(order[0])]
    while len(chosen) < m + 1:
        anchor = coords[chosen[0]]
        rel = coords - anchor
        if len(chosen) > 1:
            basis, _ = np.linalg.qr((coords[chosen[1:]] - anchor).T)
            rel = rel - (rel @ basis) @ basis.T
        dist = np.linalg.norm(rel, axis=1)
        far = int(dist.argmax())
        if dist[far] <= eps * scale:
            raise AmbiguousTriangulation(
                "points are affinely dependent within tolerance"
            )
        chosen.append(far)
    return chosen


def _bowyer_watson(coords: np.ndarray, eps: float) -> _CellStore:
    order = np.lexsort(coords.T[::-1])  # deterministic insertion order
    init = _initial_simplex(coords, order, eps)
    store = _CellStore(coords, coords[init].mean(axis=0), eps)
    start = tuple(sorted(init))
    store.add(start)
    for drop in range(len(start)):
        store.add((-1,) + start[:drop] + start[drop + 1 :])

    seeded = set(init)
    for p_idx in order.tolist():
        if p_idx in seeded:
            continue
        bad = store.conflicts(coords[p_idx])
        if bad.size == 0:
            raise AmbiguousTriangulation(
                f"point {p_idx} conflicts with no cell; input degenerate within tolerance"
            )
        facet_count = _facet_counts(store.cells(bad))
        if any(v > 2 for v in facet_count.values()):
            raise AmbiguousTriangulation(
                f"insertion cavity of point {p_idx} is inconsistent; "
                "input degenerate within tolerance"
            )
        store.kill(bad)
        for facet, count in facet_count.items():
            if count == 1:
                store.add(tuple(sorted(facet + (p_idx,))))
    return store


def _verify_delaunay(coords: np.ndarray, store: _CellStore, eps: float) -> list[tuple[int, ...]]:
    """Check the final cells against the spheres and planes stored for them.

    Requires every input point to be used, every facet to be shared by
    exactly two cells (cells at infinity included, so the finite cells
    tile the convex hull), every point to lie on the inner side of each
    hull cell's plane, and every finite cell's circumsphere to be empty.
    A non-member on a circumsphere within tolerance is a genuine ambiguity
    of the input. Returns the finite cells, sorted.
    """
    rows = store.live()
    cells = store.cells(rows)
    finite = sorted(cell for cell in cells if cell[0] != -1)
    if not finite:
        raise AmbiguousTriangulation("triangulation came out empty")
    if {v for cell in finite for v in cell} != set(range(coords.shape[0])):
        raise AmbiguousTriangulation("triangulation does not use every point")
    if any(v != 2 for v in _facet_counts(cells).values()):
        raise AmbiguousTriangulation("a facet is not shared by exactly two cells")
    for row, cell in zip(rows.tolist(), cells):
        if cell[0] == -1:
            side = coords @ store.normals[row] - store.offsets[row]
            if bool((side > store.side_tol).any()):
                raise AmbiguousTriangulation(f"a point lies outside hull cell {cell}")
            continue
        radius = float(np.sqrt(store.radii2[row]))
        dist = np.linalg.norm(coords - store.centers[row], axis=1)
        dist[list(cell)] = np.inf
        tol = eps * (1.0 + radius)
        if bool((dist < radius - tol).any()):
            raise AmbiguousTriangulation(
                f"a point lies strictly inside the circumsphere of cell {cell}"
            )
        on = np.nonzero(np.abs(dist - radius) <= tol)[0]
        if on.size:
            raise AmbiguousTriangulation(
                f"point {int(on[0])} lies on the circumsphere of cell {cell}"
            )
    return finite


def delaunay_incremental(points, eps: float = EPS) -> Triangulation:
    """Bowyer-Watson Delaunay triangulation with post-hoc verification.

    Matches ``delaunay_bruteforce`` on inputs in general position. The
    convex-hull boundary is handled symbolically through a vertex at
    infinity, so coordinates of very different magnitudes never mix inside
    a circumsphere computation; the result is verified from the stored
    spheres and planes before returning.
    """
    pts, coords, rank = _prepare(points, eps)
    if rank == 0:
        return Triangulation(pts, ())
    store = _bowyer_watson(coords, eps)
    return Triangulation(pts, tuple(_verify_delaunay(coords, store, eps)))
