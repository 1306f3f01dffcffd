"""Delaunay triangulations in R^m via two independent routes.

``delaunay_bruteforce`` is the correctness reference: it tests the empty
circumsphere property for every candidate cell directly from the
definition. ``delaunay_incremental`` is the fast path: Bowyer-Watson
insertion with the convex-hull boundary handled symbolically. Hull facets
act as cells at infinity whose conflict region is the open outer
half-space, plus coplanar points strictly inside the facet's own
circumsphere, so no artificial far-away vertices ever enter a circumsphere
computation. The result is verified post hoc against the empty-sphere
property.

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
from dataclasses import dataclass

import numpy as np

from .geometry import (
    EPS,
    DegenerateInput,
    GeometryError,
    _circumsphere,
    _hull_coordinates,
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
        diff = pts[:, None, :] - pts[None, :, :]
        dist2 = np.einsum("ijk,ijk->ij", diff, diff)
        np.fill_diagonal(dist2, np.inf)
        if float(dist2.min()) <= eps * eps:
            i, j = np.unravel_index(int(dist2.argmin()), dist2.shape)
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
    """Growable arrays of cells with their circumcenters and squared radii."""

    def __init__(self, m: int, capacity: int):
        self.m = m
        self.verts = np.full((capacity, m + 1), -1, dtype=np.int64)
        self.centers = np.zeros((capacity, m))
        self.radii2 = np.full(capacity, -np.inf)  # dead rows never conflict
        self.count = 0

    def add(self, cell: tuple[int, ...], center: np.ndarray, radius2: float) -> None:
        if self.count == self.verts.shape[0]:
            grow = self.verts.shape[0]
            self.verts = np.vstack([self.verts, np.full((grow, self.m + 1), -1, np.int64)])
            self.centers = np.vstack([self.centers, np.zeros((grow, self.m))])
            self.radii2 = np.concatenate([self.radii2, np.full(grow, -np.inf)])
        self.verts[self.count] = cell
        self.centers[self.count] = center
        self.radii2[self.count] = radius2
        self.count += 1

    def kill(self, rows) -> None:
        self.radii2[rows] = -np.inf

    def conflicts(self, p: np.ndarray) -> np.ndarray:
        diff = self.centers[: self.count] - p
        d2 = np.einsum("ij,ij->i", diff, diff)
        return np.nonzero(d2 < self.radii2[: self.count])[0]

    def alive(self) -> np.ndarray:
        return np.nonzero(self.radii2[: self.count] > -np.inf)[0]


class _HullStore:
    """Growable arrays of hull facets acting as cells at infinity.

    A facet conflicts with a point strictly outside its hyperplane, and
    with a coplanar point strictly inside the facet's own circumsphere.
    The latter agrees exactly with the in-sphere test of the finite cell
    behind the facet, since a cell's circumsphere meets the facet's
    hyperplane in the facet's circumsphere.
    """

    def __init__(self, m: int, capacity: int):
        self.m = m
        self.verts = np.full((capacity, m), -1, dtype=np.int64)
        self.normals = np.zeros((capacity, m))  # unit, outward
        self.offsets = np.zeros(capacity)
        self.centers = np.zeros((capacity, m))
        self.radii2 = np.full(capacity, -np.inf)  # dead rows never conflict
        self.count = 0

    def add(self, facet, normal, offset, center, radius2) -> None:
        if self.count == self.verts.shape[0]:
            grow = self.verts.shape[0]
            self.verts = np.vstack([self.verts, np.full((grow, self.m), -1, np.int64)])
            self.normals = np.vstack([self.normals, np.zeros((grow, self.m))])
            self.offsets = np.concatenate([self.offsets, np.zeros(grow)])
            self.centers = np.vstack([self.centers, np.zeros((grow, self.m))])
            self.radii2 = np.concatenate([self.radii2, np.full(grow, -np.inf)])
        self.verts[self.count] = facet
        self.normals[self.count] = normal
        self.offsets[self.count] = offset
        self.centers[self.count] = center
        self.radii2[self.count] = radius2
        self.count += 1

    def kill(self, rows) -> None:
        self.radii2[rows] = -np.inf

    def conflicts(self, p: np.ndarray, tol: float) -> np.ndarray:
        k = self.count
        live = self.radii2[:k] > -np.inf
        side = self.normals[:k] @ p - self.offsets[:k]
        hit = live & (side > tol)
        coplanar = np.nonzero(live & (np.abs(side) <= tol))[0]
        if coplanar.size:
            diff = self.centers[coplanar] - p
            d2 = np.einsum("ij,ij->i", diff, diff)
            hit[coplanar[d2 < self.radii2[coplanar]]] = True
        return np.nonzero(hit)[0]


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


def _bowyer_watson(coords: np.ndarray, eps: float) -> tuple[tuple[int, ...], ...]:
    n, m = coords.shape
    side_tol = eps * (1.0 + float(np.abs(coords).max()))
    order = np.lexsort(coords.T[::-1])  # deterministic insertion order
    init = _initial_simplex(coords, order, eps)
    interior = coords[init].mean(axis=0)

    finite = _CellStore(m, capacity=4 * n + 64)
    hull = _HullStore(m, capacity=4 * n + 64)

    def add_finite(cell: tuple[int, ...]) -> None:
        sphere = _circumsphere(coords[list(cell)], eps)
        if sphere is None:
            raise AmbiguousTriangulation(
                f"cell {cell} is affinely degenerate within tolerance"
            )
        finite.add(cell, sphere.center, sphere.radius**2)

    def add_hull_facet(facet: tuple[int, ...]) -> None:
        pts_f = coords[list(facet)]
        sphere = _circumsphere(pts_f, eps)
        if sphere is None:
            raise AmbiguousTriangulation(
                f"hull facet {facet} is affinely degenerate within tolerance"
            )
        if m == 1:
            normal = np.ones(1)
        else:
            _, _, vt = np.linalg.svd(pts_f[1:] - pts_f[0], full_matrices=True)
            normal = vt[-1]
        ref = float(normal @ (interior - pts_f[0]))
        if abs(ref) <= side_tol:
            raise AmbiguousTriangulation(
                f"cannot orient hull facet {facet}; input degenerate within tolerance"
            )
        if ref > 0.0:
            normal = -normal
        hull.add(facet, normal, float(normal @ pts_f[0]), sphere.center, sphere.radius**2)

    start = tuple(sorted(init))
    add_finite(start)
    for drop in range(m + 1):
        add_hull_facet(start[:drop] + start[drop + 1 :])

    seeded = set(init)
    for p_idx in order:
        if int(p_idx) in seeded:
            continue
        p = coords[p_idx]
        bad_fin = finite.conflicts(p)
        bad_hull = hull.conflicts(p, side_tol)
        if bad_fin.size == 0 and bad_hull.size == 0:
            raise AmbiguousTriangulation(
                f"point {int(p_idx)} conflicts with no cell; "
                "input degenerate within tolerance"
            )
        # -1 stands for the vertex at infinity; sorted tuples keep it first.
        cavity = [tuple(int(v) for v in finite.verts[row]) for row in bad_fin]
        cavity += [(-1,) + tuple(int(v) for v in hull.verts[row]) for row in bad_hull]
        facet_count: dict[tuple[int, ...], int] = {}
        for cell in cavity:
            for drop in range(m + 1):
                facet = cell[:drop] + cell[drop + 1 :]
                facet_count[facet] = facet_count.get(facet, 0) + 1
        if any(v > 2 for v in facet_count.values()):
            raise AmbiguousTriangulation(
                f"insertion cavity of point {int(p_idx)} is inconsistent; "
                "input degenerate within tolerance"
            )
        finite.kill(bad_fin)
        hull.kill(bad_hull)
        for facet, count in facet_count.items():
            if count != 1:
                continue
            if facet[0] == -1:
                add_hull_facet(tuple(sorted(facet[1:] + (int(p_idx),))))
            else:
                add_finite(tuple(sorted(facet + (int(p_idx),))))

    cells = sorted(tuple(int(v) for v in finite.verts[row]) for row in finite.alive())
    _verify_delaunay(coords, cells, eps)
    return tuple(cells)


def _verify_delaunay(coords: np.ndarray, cells: list[tuple[int, ...]], eps: float) -> None:
    """Check the empty-circumsphere property of the final cell set.

    Requires every input point to be used, each facet to be shared by at
    most two cells, each unshared facet to be a convex-hull facet, and
    every cell's circumsphere to be empty. A non-member on a circumsphere
    within tolerance is a genuine ambiguity of the input.
    """
    n = coords.shape[0]
    if not cells:
        raise AmbiguousTriangulation("triangulation came out empty")
    used: set[int] = set()
    facet_count: dict[tuple[int, ...], int] = {}
    for cell in cells:
        used.update(cell)
        for drop in range(len(cell)):
            facet = cell[:drop] + cell[drop + 1 :]
            facet_count[facet] = facet_count.get(facet, 0) + 1
    if used != set(range(n)):
        raise AmbiguousTriangulation("triangulation does not use every point")
    if any(v > 2 for v in facet_count.values()):
        raise AmbiguousTriangulation("a facet is shared by more than two cells")
    # Completeness: a facet of exactly one cell must be a convex-hull facet.
    side_tol = eps * (1.0 + float(np.abs(coords).max()))
    for facet, count in facet_count.items():
        if count != 1:
            continue
        anchor = coords[facet[0]]
        if len(facet) == 1:  # 1-d triangulation: boundary facets are extremes
            normal = np.ones(1)
        else:
            rel = coords[list(facet[1:])] - anchor
            _, _, vt = np.linalg.svd(rel, full_matrices=True)
            normal = vt[-1]
        side = (coords - anchor) @ normal
        if not (bool((side <= side_tol).all()) or bool((side >= -side_tol).all())):
            raise AmbiguousTriangulation(
                f"boundary facet {facet} is not a convex-hull facet"
            )
    for cell in cells:
        sphere = _circumsphere(coords[list(cell)], eps)
        if sphere is None:
            raise AmbiguousTriangulation(
                f"cell {cell} is affinely degenerate within tolerance"
            )
        dist = np.linalg.norm(coords - sphere.center, axis=1)
        dist[list(cell)] = np.inf
        tol = eps * (1.0 + sphere.radius)
        if bool((dist < sphere.radius - tol).any()):
            raise AmbiguousTriangulation(
                f"a point lies strictly inside the circumsphere of cell {cell}"
            )
        on = np.nonzero(np.abs(dist - sphere.radius) <= tol)[0]
        if on.size:
            raise AmbiguousTriangulation(
                f"point {int(on[0])} lies on the circumsphere of cell {cell}"
            )


def delaunay_incremental(points, eps: float = EPS) -> Triangulation:
    """Bowyer-Watson Delaunay triangulation with post-hoc verification.

    Matches ``delaunay_bruteforce`` on inputs in general position. The
    convex-hull boundary is handled symbolically, so coordinates of very
    different magnitudes never mix inside a circumsphere computation; the
    empty-sphere property of the result is verified before returning.
    """
    pts, coords, rank = _prepare(points, eps)
    if rank == 0:
        return Triangulation(pts, ())
    return Triangulation(pts, _bowyer_watson(coords, eps))
