"""Delaunay triangulations in R^m by incremental insertion.

``delaunay_incremental`` is Bowyer-Watson insertion over one store of
cells, in which each convex-hull facet f is the cell (-1,) + f through a
vertex at infinity (as in CGAL's triangulations). A cell at infinity
conflicts with the open outer half-space of its facet, plus coplanar
points strictly inside the facet's own circumsphere, so no artificial
far-away vertices ever enter a circumsphere computation.

Points are inserted in a seeded random order (Amenta-Choi-Rote,
"Incremental constructions con BRIO", 2003, without the rounds): a sweep
in coordinate order walks along the hull and creates many short-lived
cells. Each insertion is array work on its whole cavity: the boundary
facets come from one sorted row match over the conflicting cells, and
the new cells get their circumspheres and hull planes from one stacked
square solve (``_certified_solve``; no QR per insertion). New cells take
the rows of the cells the insertion killed before any new row, so the
conflict scan reads about as many rows as there are live cells.

The result is verified post hoc from the spheres and planes the insertion
stored, by facet pairs: every point is used, every facet is shared by
exactly two cells, every point lies inside every hull plane, and at every
interior facet each cell's circumsphere strictly excludes the other
cell's opposite vertex. By the Delaunay lemma (Edelsbrunner, *Geometry
and Topology for Mesh Generation*, 2001, ch. 1) these local tests make
every circumsphere empty; ``_verify_delaunay`` gives the argument.

Point sets whose affine hull is a proper flat of R^m (fewer than m+1
points, or clouds lying in a common hyperplane, as lifted inputs do when
one side is small) are triangulated inside their affine hull: the input is
first mapped isometrically onto hull coordinates.

Cells are emitted as sorted index tuples; under general position the cell
set is unique, and the result does not depend on the insertion order;
the tests check it against ``reference.delaunay_bruteforce``. Points
within ``EPS`` of a cosphericality (a non-vertex on a candidate cell's
circumsphere) raise ``AmbiguousTriangulation`` instead of silently
picking a diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._rows import facets, unique
from .geometry import (
    EPS,
    DegenerateInput,
    GeometryError,
    RankDeficient,
    _certified_solve,
    _hull_coordinates,
    as_point_array,
)

# Coordinate differences held at once by the blocked scans over all points (2 MiB).
_BLOCK_FLOATS = 1 << 18


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
    n, d = pts.shape
    if n >= 2:
        # The closest pair, first in row-major order, scanned in blocks of
        # rows of at most about _BLOCK_FLOATS differences: O(n) memory.
        best, i, j = np.inf, 0, 0
        step = max(1, _BLOCK_FLOATS // max(n * d, 1))
        for start in range(0, n, step):
            diff = pts[start : start + step, None, :] - pts[None, :, :]
            dist2 = np.einsum("ijk,ijk->ij", diff, diff)
            rows = np.arange(dist2.shape[0])
            dist2[rows, start + rows] = np.inf
            at = int(dist2.argmin())
            if dist2.flat[at] < best:
                best, i, j = dist2.flat[at], start + at // n, at % n
        if float(best) <= EPS * EPS:
            raise DegenerateInput(f"points {i} and {j} coincide within tolerance")
    return _hull_coordinates(pts)


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
        # The interior point is row -1, so a hull row's vertex -1 indexes it.
        self.points = np.vstack([coords, interior])
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
        """Store a (g, m+1) block of sorted cells with their spheres and planes.

        Every row is one square system ``a x = r`` of one stacked
        ``_certified_solve``. A finite row takes the bisector rows
        ``a = [v_i - v_0]``, ``r = |v_i - v_0|^2 / 2``, and its circumcentre
        is ``v_0 + x``. A hull row (-1,) + f takes the edges of f and the
        interior point, ``a = [f_i - f_0; interior - f_0]`` with last entry
        ``r = 0``, and a second right-hand side e_m whose solution w is
        orthogonal to f with ``w . (interior - f_0) = 1``: ``-w / |w|`` is
        the outward unit normal, ``1 / |w|`` the interior's distance from
        the facet's hyperplane, and x projected onto that hyperplane the
        facet's circumcentre. A row that ``_certified_solve`` finds
        dependent names its cell in ``AmbiguousTriangulation``.
        """
        g, m = cells.shape[0], self.points.shape[1]
        hull = cells[:, 0] == -1
        # Put a hull row's -1 (the interior point) last, behind its facet.
        pts = self.points[np.where(hull[:, None], np.roll(cells, -1, axis=1), cells)]
        a = pts[:, 1:] - pts[:, :1]
        rhs = np.zeros((2, g, m))
        rhs[0] = 0.5 * np.einsum("gij,gij->gi", a, a)
        rhs[0, hull, -1] = 0.0
        rhs[1, :, -1] = 1.0
        try:
            (x, w), _ = _certified_solve(a, rhs)
        except RankDeficient as exc:
            raise AmbiguousTriangulation(
                f"cell {tuple(cells[exc.system].tolist())} is affinely degenerate within tolerance"
            ) from None
        normals = np.zeros((g, m))
        offsets = np.zeros(g)
        if hull.any():
            w = w[hull]
            length = np.linalg.norm(w, axis=1)
            flat = 1.0 / length <= self.side_tol
            if flat.any():
                raise AmbiguousTriangulation(
                    f"cannot orient hull cell {tuple(cells[hull][flat.argmax()].tolist())}; "
                    "input degenerate within tolerance"
                )
            along = np.einsum("ij,ij->i", x[hull], w) / length**2
            x[hull] -= along[:, None] * w
            normals[hull] = -w / length[:, None]
            offsets[hull] = np.einsum("ij,ij->i", normals[hull], pts[hull, 0])
        centers = pts[:, 0] + x
        radii2 = np.linalg.norm(centers - pts[:, 0], axis=1) ** 2

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


def _verify_delaunay(coords: np.ndarray, store: _CellStore) -> np.ndarray:
    """Check the final cells against the spheres and planes stored for them.

    Requires every input point to be used, every facet to be shared by
    exactly two cells (cells at infinity included), every point to lie on
    the inner side of each hull cell's plane, and, at every facet of two
    finite cells, each cell's circumsphere to exclude the other cell's
    opposite vertex by more than ``EPS (1 + r)``. A vertex on a
    circumsphere within that tolerance is a genuine ambiguity of the input.
    The plane check runs over blocks of hull cells against all points, at
    most about ``_BLOCK_FLOATS`` coordinate differences at a time; the
    sphere check reads the two sides of each facet from the same facet sort
    as the count. Returns the finite cells, lexsorted.

    These local tests suffice. The spheres of two cells across a facet
    both pass through the facet's vertices, so the difference of a point's
    powers to them is affine and vanishes on the facet's hyperplane; with
    each opposite vertex strictly outside the other cell's sphere that
    difference has opposite signs at the two opposite vertices, so the two
    cells lie on opposite sides of their facet and the cells tile the hull
    without folds. A triangulation that is locally Delaunay at every
    interior facet is Delaunay (the Delaunay lemma), so every circumsphere
    is empty. Then a point q exactly on the sphere of a cell has power 0
    there and at least 0 everywhere, and along a straight walk from that
    cell to a cell with vertex q its power never grows (lifted to the
    paraboloid, the cells' planes are the faces of a convex lower hull), so
    it is still 0 at the cell entered last before q, and the facet opposite
    q there refuses it. Each local test is one entry of
    a test of every finite cell against every point, computed with the
    same arithmetic, so nothing that such a scan accepts is refused here.
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
    # Facet k is cell k // (m + 1) without its vertex cells.flat[k]. Once
    # sorted, a facet shared by exactly two cells fills places 2i and 2i + 1.
    faces = facets(cells)
    order = np.lexsort(faces.T[::-1])
    faces = faces[order]
    same = (faces[1:] == faces[:-1]).all(axis=1)
    if len(faces) % 2 or not same[::2].all() or same[1::2].any():
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

    # Each side's finite cell against the finite vertex opposite the other side.
    owner = order // (m + 1)
    opposite = cells.reshape(-1)[order].reshape(-1, 2)[:, ::-1].reshape(-1)
    tested = ~hull[owner] & (opposite != -1)
    owner, opposite = owner[tested], opposite[tested]
    diff = coords[opposite] - store.centers[rows[owner]]
    dist2 = np.einsum("ij,ij->i", diff, diff)
    dist = np.sqrt(dist2, out=dist2)
    radius = np.sqrt(store.radii2[rows[owner]])
    tol = EPS * (1.0 + radius)
    inside = dist < radius - tol
    on = np.abs(dist - radius) <= tol
    bad = inside | on
    if bad.any():
        # Name the first refused cell in row order, as a scan over the cells would.
        first = owner[bad].min()
        cell = tuple(cells[first].tolist())
        if (inside & (owner == first)).any():
            raise AmbiguousTriangulation(
                f"a point lies strictly inside the circumsphere of cell {cell}"
            )
        point = int(opposite[on & (owner == first)].min())
        raise AmbiguousTriangulation(f"point {point} lies on the circumsphere of cell {cell}")
    return finite[np.lexsort(finite.T[::-1])]


def _delaunay_cells(points) -> np.ndarray:
    """The verified cells of ``delaunay_incremental`` as a lexsorted (k, rank + 1) int array."""
    coords, rank = _prepare(points)
    if rank == 0:
        return np.zeros((0, 1), dtype=np.int64)
    return _verify_delaunay(coords, _bowyer_watson(coords))


def delaunay_incremental(points) -> Triangulation:
    """Bowyer-Watson Delaunay triangulation with post-hoc verification.

    Matches ``reference.delaunay_bruteforce`` on inputs in general position. The
    convex-hull boundary is handled symbolically through a vertex at
    infinity, so coordinates of very different magnitudes never mix inside
    a circumsphere computation; the result is verified from the stored
    spheres and planes before returning.
    """
    return Triangulation(tuple(map(tuple, _delaunay_cells(points).tolist())))
