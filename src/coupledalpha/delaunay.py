"""Delaunay triangulations in R^m via two independent routes.

``delaunay_bruteforce`` is the correctness reference: it tests the empty
circumsphere property for every candidate cell directly from the
definition. ``delaunay_incremental`` is the fast path: Bowyer-Watson
insertion over one store of cells, in which each convex-hull facet f is
the cell (-1,) + f through a vertex at infinity (as in CGAL's
triangulations). A cell at infinity conflicts with the open outer
half-space of its facet, plus coplanar points strictly inside the facet's
own circumsphere, so no artificial far-away vertices ever enter a
circumsphere computation.

Points are inserted in a seeded random order (Amenta-Choi-Rote,
"Incremental constructions con BRIO", 2003, without the rounds): a sweep
in coordinate order walks along the hull and creates many short-lived
cells. Each insertion is array work on its whole cavity: the boundary
facets come from one sorted row match over the conflicting cells, the new
cells get their circumspheres from stacked bisector solves (one for the
finite cells, one for the cells at infinity), and the new cells at
infinity their hull planes from one stacked complete QR. New cells take
the rows of the cells the insertion killed before any new row, so the
conflict scan reads about as many rows as there are live cells.
The result is verified post hoc from the spheres and planes the insertion
stored, as array checks over blocks of cells: every facet is shared by
exactly two cells, every point lies inside every hull plane, and every
finite cell's circumsphere is empty.

Point sets whose affine hull is a proper flat of R^m (fewer than m+1
points, or clouds lying in a common hyperplane, as lifted inputs do when
one side is small) are triangulated inside their affine hull: both routes
first map the input isometrically onto hull coordinates.

Cells are emitted as sorted index tuples; under general position the cell
set is unique, and both routes return it whatever the insertion order.
Points within ``EPS`` of a cosphericality (a non-vertex on a candidate
cell's circumsphere) raise ``AmbiguousTriangulation`` instead of silently
picking a diagonal.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from ._rows import facets, unique
from .geometry import (
    _BLOCK_FLOATS,
    EPS,
    DegenerateInput,
    GeometryError,
    RankDeficient,
    _bisector_points,
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

    cells: tuple[tuple[int, ...], ...]


def _prepare(points) -> tuple[np.ndarray, int]:
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
        if float(best) <= EPS * EPS:
            raise DegenerateInput(f"points {i} and {j} coincide within tolerance")
    return _hull_coordinates(pts)


def delaunay_bruteforce(points) -> Triangulation:
    """Delaunay triangulation straight from the empty-circumsphere definition.

    Every (m+1)-subset of the (hull-reduced) points is tested: affinely
    dependent subsets are skipped, subsets whose circumsphere strictly
    contains another point are rejected, and a non-member lying on the
    circumsphere of an otherwise empty sphere raises
    ``AmbiguousTriangulation``.
    """
    coords, rank = _prepare(points)
    n = coords.shape[0]
    if rank == 0:
        return Triangulation(())
    cells = []
    for combo in itertools.combinations(range(n), rank + 1):
        sphere = _circumsphere(coords[list(combo)])
        if sphere is None:
            continue
        dist = np.linalg.norm(coords - sphere.center, axis=1)
        dist[list(combo)] = np.inf
        tol = EPS * (1.0 + sphere.radius)
        if bool((dist < sphere.radius - tol).any()):
            continue
        on = np.nonzero(np.abs(dist - sphere.radius) <= tol)[0]
        if on.size:
            raise AmbiguousTriangulation(
                f"point {int(on[0])} lies on the circumsphere of candidate cell {combo}"
            )
        cells.append(combo)
    return Triangulation(tuple(sorted(cells)))


class _CellStore:
    """Growable arrays of cells, hull facets included as cells at infinity.

    A row holds m+1 sorted vertex indices; -1 is the vertex at infinity,
    so a hull facet f is the row (-1,) + f. Every row carries the
    circumsphere of its finite vertices (center, squared radius) and a
    unit outward normal with offset. Finite cells get normal 0 and offset
    0, so their side is always 0; dead rows get squared radius -inf, so
    they never conflict. ``kill`` lists dead rows in ``free``, and ``add``
    refills them before it appends, so ``count``, the rows ever used,
    follows the live cells rather than every cell ever made.

    A point p conflicts with a row when ``side > tol``, or when
    ``|side| <= tol`` and p lies strictly inside the sphere. For a finite
    cell that is the in-sphere test. For a hull cell it is the open outer
    half-space plus coplanar points inside the facet's circumsphere, which
    agrees with the finite cell behind the facet, since that cell's
    circumsphere meets the facet's hyperplane in the facet's circumsphere.
    """

    def __init__(self, coords: np.ndarray, interior: np.ndarray):
        n, m = coords.shape
        self.coords = coords
        self.interior = interior
        self.side_tol = EPS * (1.0 + float(np.abs(coords).max()))
        capacity = 8 * n + 64
        self.verts = np.full((capacity, m + 1), -1, dtype=np.int64)
        self.centers = np.zeros((capacity, m))
        self.radii2 = np.full(capacity, -np.inf)
        self.normals = np.zeros((capacity, m))
        self.offsets = np.zeros(capacity)
        self.count = 0  # rows ever used; the dead ones among them are listed in free
        self.free: list[int] = []

    def add(self, cells: np.ndarray) -> None:
        """Store a (g, m+1) block of sorted cells with their spheres and planes."""
        g, m = cells.shape[0], self.coords.shape[1]
        hull = cells[:, 0] == -1
        centers = np.empty((g, m))
        radii2 = np.empty(g)
        normals = np.zeros((g, m))
        offsets = np.zeros(g)
        for sel, infinite in ((~hull, 0), (hull, 1)):
            if not sel.any():
                continue
            pts = self.coords[cells[sel, infinite:]]  # (h, k, m): finite vertices per row
            center = self._circumcenters(cells[sel], pts)
            centers[sel] = center
            radii2[sel] = np.linalg.norm(center - pts[:, 0], axis=1) ** 2
            if infinite:
                normals[sel], offsets[sel] = self._hull_planes(cells[sel], pts)

        # Refill the most recently killed rows first, then append.
        cut = max(len(self.free) - g, 0)
        reused, self.free = self.free[cut:], self.free[:cut]
        fresh = g - len(reused)
        if self.count + fresh > len(self.verts):
            # Double, or more when one block outgrows a doubling.
            grow = max(len(self.verts), self.count + fresh - len(self.verts))
            for name in ("verts", "centers", "radii2", "normals", "offsets"):
                arr = getattr(self, name)
                pad = np.zeros((grow,) + arr.shape[1:], dtype=arr.dtype)
                setattr(self, name, np.concatenate([arr, pad]))
            self.radii2[self.count :] = -np.inf
        rows = np.concatenate([np.array(reused, dtype=np.intp), self.count + np.arange(fresh)])
        self.verts[rows] = cells
        self.centers[rows] = centers
        self.radii2[rows] = radii2
        self.normals[rows] = normals
        self.offsets[rows] = offsets
        self.count += fresh

    def _circumcenters(self, cells: np.ndarray, pts: np.ndarray) -> np.ndarray:
        """Circumcenters of the point rows ``pts`` (h, k, m), in one stacked solve."""
        try:
            return _bisector_points(pts[:, :1], pts[:, 1:], pts[:, 0])
        except RankDeficient:
            # Name the first degenerate cell; only a refused insertion runs this loop.
            for cell, one in zip(cells.tolist(), pts):
                try:
                    _bisector_points(one[None, :1], one[None, 1:], one[None, 0])
                except RankDeficient:
                    raise AmbiguousTriangulation(
                        f"cell {tuple(cell)} is affinely degenerate within tolerance"
                    ) from None
            raise

    def _hull_planes(self, cells: np.ndarray, pts: np.ndarray):
        """Unit outward normals and offsets of the hull cells with finite vertices ``pts``."""
        if pts.shape[2] == 1:
            normals = np.ones((len(pts), 1))
        else:
            # The m-1 edges span the facet's hyperplane; the last column of a
            # complete QR of them as columns is a unit vector normal to it.
            edges = np.swapaxes(pts[:, 1:] - pts[:, :1], 1, 2)
            normals = np.linalg.qr(edges, mode="complete")[0][:, :, -1]
        ref = np.einsum("ij,ij->i", normals, self.interior - pts[:, 0])
        flat = np.abs(ref) <= self.side_tol
        if flat.any():
            raise AmbiguousTriangulation(
                f"cannot orient hull cell {tuple(cells[flat.argmax()].tolist())}; "
                "input degenerate within tolerance"
            )
        normals[ref > 0.0] *= -1.0
        return normals, np.einsum("ij,ij->i", normals, pts[:, 0])

    def kill(self, rows) -> None:
        self.radii2[rows] = -np.inf
        self.normals[rows] = 0.0
        self.offsets[rows] = 0.0
        self.free.extend(np.asarray(rows).tolist())

    def conflicts(self, p: np.ndarray) -> np.ndarray:
        k = self.count
        side = self.normals[:k] @ p - self.offsets[:k]
        diff = self.centers[:k] - p
        inside = np.einsum("ij,ij->i", diff, diff) < self.radii2[:k]
        tol = self.side_tol
        return np.nonzero((side > tol) | ((np.abs(side) <= tol) & inside))[0]

    def live(self) -> np.ndarray:
        return np.nonzero(self.radii2[: self.count] > -np.inf)[0]


def _distances(centers: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Distances from each center to every point, as a (centers, points) array."""
    diff = coords[None, :, :] - centers[:, None, :]
    dist2 = np.einsum("ijk,ijk->ij", diff, diff)
    return np.sqrt(dist2, out=dist2)


def _initial_simplex(coords: np.ndarray, order: np.ndarray) -> list[int]:
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
        if dist[far] <= EPS * scale:
            raise AmbiguousTriangulation(
                "points are affinely dependent within tolerance"
            )
        chosen.append(far)
    return chosen


def _bowyer_watson(coords: np.ndarray) -> _CellStore:
    # A fixed seed keeps runs deterministic; the cells are sorted on output.
    order = np.random.default_rng(2003).permutation(coords.shape[0])
    init = _initial_simplex(coords, order)
    store = _CellStore(coords, coords[init].mean(axis=0))
    start = np.array(sorted(init))
    hull = unique(facets(start[None]))[0]
    store.add(np.vstack([start, np.column_stack([np.full(len(hull), -1), hull])]))

    seeded = set(init)
    for p_idx in order.tolist():
        if p_idx in seeded:
            continue
        bad = store.conflicts(coords[p_idx])
        if bad.size == 0:
            raise AmbiguousTriangulation(
                f"point {p_idx} conflicts with no cell; input degenerate within tolerance"
            )
        cavity, counts = unique(facets(store.verts[bad]))
        if (counts > 2).any():
            raise AmbiguousTriangulation(
                f"insertion cavity of point {p_idx} is inconsistent; "
                "input degenerate within tolerance"
            )
        store.kill(bad)
        boundary = cavity[counts == 1]
        store.add(np.sort(np.column_stack([boundary, np.full(len(boundary), p_idx)]), axis=1))
    return store


def _verify_delaunay(coords: np.ndarray, store: _CellStore) -> list[tuple[int, ...]]:
    """Check the final cells against the spheres and planes stored for them.

    Requires every input point to be used, every facet to be shared by
    exactly two cells (cells at infinity included, so the finite cells
    tile the convex hull), every point to lie on the inner side of each
    hull cell's plane, and every finite cell's circumsphere to be empty.
    A non-member on a circumsphere within tolerance is a genuine ambiguity
    of the input. The plane and sphere checks run over blocks of cells
    against all points, at most about ``_BLOCK_FLOATS`` coordinate
    differences at a time. Returns the finite cells, sorted.
    """
    rows = store.live()
    cells = store.verts[rows]
    hull = cells[:, 0] == -1
    finite = cells[~hull]
    if not len(finite):
        raise AmbiguousTriangulation("triangulation came out empty")
    n, m = coords.shape
    used = np.zeros(n, dtype=bool)
    used[finite] = True
    if not used.all():
        raise AmbiguousTriangulation("triangulation does not use every point")
    if (unique(facets(cells))[1] != 2).any():
        raise AmbiguousTriangulation("a facet is not shared by exactly two cells")
    step = max(1, _BLOCK_FLOATS // max(n * m, 1))

    hull_rows = rows[hull]
    for start in range(0, len(hull_rows), step):
        block = hull_rows[start : start + step]
        side = coords @ store.normals[block].T - store.offsets[block]
        outside = (side > store.side_tol).any(axis=0)
        if outside.any():
            cell = tuple(store.verts[block[outside.argmax()]].tolist())
            raise AmbiguousTriangulation(f"a point lies outside hull cell {cell}")

    finite_rows = rows[~hull]
    for start in range(0, len(finite_rows), step):
        block = finite_rows[start : start + step]
        dist = _distances(store.centers[block], coords)
        np.put_along_axis(dist, store.verts[block], np.inf, axis=1)
        radius = np.sqrt(store.radii2[block])[:, None]
        tol = EPS * (1.0 + radius)
        inside = dist < radius - tol
        on = np.abs(dist - radius) <= tol
        bad = inside.any(axis=1) | on.any(axis=1)
        if bad.any():
            first = int(bad.argmax())
            cell = tuple(store.verts[block[first]].tolist())
            if inside[first].any():
                raise AmbiguousTriangulation(
                    f"a point lies strictly inside the circumsphere of cell {cell}"
                )
            raise AmbiguousTriangulation(
                f"point {int(on[first].argmax())} lies on the circumsphere of cell {cell}"
            )
    return sorted(map(tuple, finite.tolist()))


def delaunay_incremental(points) -> Triangulation:
    """Bowyer-Watson Delaunay triangulation with post-hoc verification.

    Matches ``delaunay_bruteforce`` on inputs in general position. The
    convex-hull boundary is handled symbolically through a vertex at
    infinity, so coordinates of very different magnitudes never mix inside
    a circumsphere computation; the result is verified from the stored
    spheres and planes before returning.
    """
    coords, rank = _prepare(points)
    if rank == 0:
        return Triangulation(())
    store = _bowyer_watson(coords)
    return Triangulation(tuple(_verify_delaunay(coords, store)))
