"""Point-cloud pairs and the coupled alpha complex at infinite radius.

The coupled alpha complex of a pair (X, Y) is the nerve of the union of
the two families of restricted Voronoi balls, one family per cloud. At
infinite radius it is computed combinatorially: embed X at height 0 and Y
at height 1 in one extra dimension, take the Delaunay triangulation of
the union, and project the faces back down by forgetting the extra
coordinate. Vertex indices are global: X points come first, Y points
follow, so a simplex is a sorted row of ints and its X/Y split is a
threshold comparison. The complex keeps one array of such rows per
dimension, made from the cells top down by one ``_rows.unique`` each.

The plain alpha complex of a single cloud is the same object with the
other cloud empty (``PointCloudPair(points, None)``), and is computed
directly from the cloud's Delaunay triangulation.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain

import numpy as np

from ._rows import facets, unique
from .delaunay import _delaunay_cells
from .geometry import DegenerateInput, as_point_array, lift_clouds

Simplex = tuple[int, ...]


def _integer_type(t: type) -> bool:
    """Python and NumPy integers; not bool, which ``int`` subclasses."""
    return issubclass(t, (int, np.integer)) and not issubclass(t, bool)


class PointCloudPair:
    """Two finite point clouds in a common R^d with global vertex indexing.

    The constructor validates shapes only. Ambiguous inputs are refused by
    ``coupled_alpha_infty``, with ``AmbiguousTriangulation`` or
    ``DegenerateInput``; the exhaustive coupled general-position audit is
    ``reference.check_coupled_general_position``.
    """

    def __init__(self, x, y=None, *, check: bool = False):
        # ``check`` is kept only for the benchmark's pinned ``check=False`` call.
        if check:
            raise TypeError("PointCloudPair does not audit; use check_coupled_general_position(x, y)")
        x = as_point_array(x)
        if y is None:
            y = np.zeros((0, x.shape[1] if x.size else 0))
        y = as_point_array(y)
        if x.shape[0] and y.shape[0] and x.shape[1] != y.shape[1]:
            raise ValueError("clouds must share the ambient dimension")
        dim = x.shape[1] if x.shape[0] else y.shape[1]
        if dim == 0 and (x.shape[0] or y.shape[0]):
            raise ValueError("points must have at least one coordinate")
        self.x = x.reshape(x.shape[0], dim)
        self.y = y.reshape(y.shape[0], dim)
        self.dim = dim
        self._points = np.vstack([self.x, self.y]) if dim else np.zeros((0, 0))

    @property
    def n_x(self) -> int:
        return self.x.shape[0]

    @property
    def n_y(self) -> int:
        return self.y.shape[0]

    @property
    def n_total(self) -> int:
        return self.n_x + self.n_y

    @property
    def points(self) -> np.ndarray:
        """All points, X rows first then Y rows."""
        return self._points

    def split(self, simplex: Simplex) -> tuple[Simplex, Simplex]:
        """Partition a global-index simplex into its X part and Y part."""
        qx = tuple(i for i in simplex if i < self.n_x)
        qy = tuple(i for i in simplex if i >= self.n_x)
        if qx + qy != tuple(simplex):
            raise ValueError(f"simplex {simplex} is not sorted")
        return qx, qy


class CoupledComplex:
    """A finite simplicial complex over a point-cloud pair.

    ``rows[k]`` holds the k-simplices as an (m_k, k+1) int array of sorted
    global vertex indices, distinct and in lexicographic order. ``simplices``
    and ``by_dim`` list them as tuples, each made once on demand.
    ``facet_index(k)`` locates the facets of the k-simplices in ``rows[k-1]``.

    Built from a listing of sorted tuples, closed under faces, or from
    ``cells``: arrays of generating cells, one width each, in any order and
    with repeats, closed here and joined by every vertex of the pair. One
    ``unique`` per dimension, top down, of the k-simplices given and the
    facets of the (k+1)-simplices yields ``rows[k]`` and ``facet_index(k+1)``.
    A listing passes the same checks as one array per width, after its
    vertices are checked one by one. It refuses, with ``ValueError``, a
    listed simplex with a vertex that is not an integer (a bool included),
    ``cells`` that are not 2-D integer arrays of width at least 1, a given
    simplex that is not strictly increasing or names a vertex outside the
    pair (without a pair, a negative one), and a listing that lacks a facet
    of a simplex it lists.
    """

    def __init__(self, pair: PointCloudPair | None, simplices=(), cells=None):
        self.pair = pair  # None under a bare filtration
        listing = cells is None
        if listing:
            simplices = list(simplices)
            # Vertex by vertex, as one array would read True as 1 beside an int.
            if not all(map(_integer_type, set(map(type, chain.from_iterable(simplices))))):
                first = next(s for s in simplices if not all(map(_integer_type, map(type, s))))
                raise ValueError(f"simplex {tuple(first)} has a non-integer vertex")
            widths = {len(s) for s in simplices} - {0}
            cells = [np.array([s for s in simplices if len(s) == w]) for w in widths]
        cells = [np.asarray(c) for c in cells]
        for c in cells:
            if c.ndim != 2 or c.shape[1] < 1 or c.dtype.kind not in "iu":
                raise ValueError(
                    "cells must be 2-D integer arrays of width at least 1,"
                    f" not {c.dtype} of shape {c.shape}"
                )
        # One signed dtype, so the concatenations below stay integer.
        cells = [c.astype(np.int64, copy=False) for c in cells]
        if pair is not None and not listing:
            cells = [np.arange(pair.n_total).reshape(-1, 1), *cells]
        if pair is None:
            n_vertices, outside = np.inf, "names a negative vertex"
        else:
            n_vertices, outside = pair.n_total, f"names a vertex outside 0..{pair.n_total - 1}"
        for r in sorted(cells, key=lambda c: c.shape[1]):
            for bad, why in (
                ((r[:, 1:] <= r[:, :-1]).any(axis=1), "is not strictly increasing"),
                ((r[:, 0] < 0) | (r[:, -1] >= n_vertices), outside),
            ):
                if bad.any():
                    first = r[bad][np.lexsort(r[bad].T[::-1])[0]]
                    raise ValueError(f"simplex {tuple(first.tolist())} {why}")
        self.rows, self._facet_index, listed = [], [], []
        for w in range(max((c.shape[1] for c in cells if len(c)), default=0), 0, -1):
            given = [c for c in cells if c.shape[1] == w]
            above = [facets(self.rows[0])] if self.rows else []  # facets one dimension up
            distinct, inverse = unique(np.concatenate(given + above))
            n = sum(map(len, given))
            if above:
                self._facet_index.insert(0, inverse[n:].reshape(self.rows[0].shape))
            if listing:
                listed.insert(0, np.bincount(inverse[:n], minlength=len(distinct)) > 0)
            self.rows.insert(0, distinct)
        for k in range(1, len(listed)):
            absent = np.argwhere(listed[k][:, None] & ~listed[k - 1][self.facet_index(k)])
            if len(absent):
                i, drop = absent[0]
                simplex = tuple(self.rows[k][i].tolist())
                lacks = simplex[:drop] + simplex[drop + 1 :]
                raise ValueError(f"complex not closed under faces: {simplex} lacks {lacks}")

    @cached_property
    def _tuples(self) -> list[list[Simplex]]:
        return [list(map(tuple, r.tolist())) for r in self.rows]

    @cached_property
    def simplices(self) -> tuple[Simplex, ...]:
        return tuple(s for group in self._tuples for s in group)

    def __len__(self) -> int:
        return sum(len(r) for r in self.rows)

    def __iter__(self):
        return iter(self.simplices)

    @property
    def dimension(self) -> int:
        return len(self.rows) - 1

    def by_dim(self, k: int) -> list[Simplex]:
        return list(self._tuples[k]) if 0 <= k < len(self.rows) else []

    def counts(self) -> tuple[int, ...]:
        """Number of simplices per dimension, from 0 up."""
        return tuple(len(r) for r in self.rows)

    def facet_index(self, k: int) -> np.ndarray:
        """(m_k, k+1) array: entry (i, j) is the position in ``rows[k-1]`` of
        ``rows[k][i]`` without its vertex j."""
        return self._facet_index[k - 1]


def coupled_alpha_infty(pair: PointCloudPair) -> CoupledComplex:
    """The coupled alpha complex of the pair at infinite radius.

    Computed as the projection of the Delaunay triangulation of the
    lifted clouds. When one cloud is empty this degrades to the plain
    alpha complex of the other cloud. Raises DegenerateInput when the
    points are affinely dependent beyond their count: n points may span
    only an (n-1)-flat, but spanning fewer dimensions than that or than
    the space allows is a general-position failure, such as a collinear
    triple in the plane.
    """
    if pair.n_total == 0:
        return CoupledComplex(pair, ())
    if pair.n_x and pair.n_y:
        points, what = lift_clouds(pair.x, pair.y), "lifted pair"
    else:
        points, what = pair.points, "cloud"
    cells = _delaunay_cells(points)
    # The triangulation works inside the affine hull: its cells have rank + 1 vertices.
    rank = cells.shape[1] - 1 if len(cells) else 0
    expected = min(pair.n_total - 1, points.shape[1])
    if rank < expected:
        raise DegenerateInput(f"{what}: points span only a {rank}-flat (expected {expected})")
    # Forgetting the height coordinate keeps vertex indices; faces of the
    # lifted cells are exactly the coupled simplices.
    return CoupledComplex(pair, cells=[cells])
