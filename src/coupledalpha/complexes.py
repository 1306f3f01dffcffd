"""Point-cloud pairs and the coupled alpha complex at infinite radius.

The coupled alpha complex of a pair (X, Y) is the nerve of the union of
the two families of restricted Voronoi balls, one family per cloud. At
infinite radius it is computed combinatorially: embed X at height 0 and Y
at height 1 in one extra dimension, take the Delaunay triangulation of
the union, and project the faces back down by forgetting the extra
coordinate. Vertex indices are global: X points come first, Y points
follow, so a simplex is a sorted row of ints and its X/Y split is a
threshold comparison. The complex keeps one array of such rows per
dimension, made from the cells by sorted row operations (``_rows``).

The plain alpha complex of a single cloud is the same object with the
other cloud empty (``PointCloudPair(points, None)``), and is computed
directly from the cloud's Delaunay triangulation.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from ._rows import facets, match, unique
from .delaunay import _delaunay_cells
from .geometry import DegenerateInput, GeneralPositionError, as_point_array, lift_clouds
from .reference import check_coupled_general_position

Simplex = tuple[int, ...]


class PointCloudPair:
    """Two finite point clouds in a common R^d with global vertex indexing.

    By default the coupled general-position check runs on construction and
    raises ``GeneralPositionError`` on failure; pass ``check=False`` to
    waive it (the check is exhaustive over subsets, so waiving is the
    normal thing to do for more than a few dozen points). The check is a
    reference and decides ties with its own tolerance ``reference.TOL``;
    the triangulation and the filtration read ``geometry.EPS``.
    """

    def __init__(self, x, y=None, *, check: bool = True):
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
        if check and (x.shape[0] or y.shape[0]):
            ok, violations = check_coupled_general_position(self.x, self.y)
            if not ok:
                raise GeneralPositionError(violations)

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
    global vertex indices, distinct and in lexicographic order (built from
    sorted tuples unless given). ``simplices`` and ``by_dim`` list them as
    tuples in (dimension, lexicographic) order, each made once on demand.
    ``facet_index(k)`` locates the facets of the k-simplices among the
    (k-1)-simplices, once per dimension for every layer that needs it.

    The constructor refuses, with ``ValueError``, rows that are not a
    complex: a row that is not strictly increasing, a vertex below 0 (or,
    with a pair, at or above ``pair.n_total``), a given ``rows[k]`` that is
    not distinct and in lexicographic order, or a simplex listed without
    one of its facets. Every later layer relies on this.
    """

    def __init__(self, pair: PointCloudPair | None, simplices=(), rows=None):
        self.pair = pair  # None under a bare filtration
        if rows is None:
            simplices = sorted(set(simplices), key=lambda s: (len(s), s))
            top = len(simplices[-1]) if simplices else 0
            groups = [[s for s in simplices if len(s) == k] for k in range(1, top + 1)]
            rows = [np.array(g, dtype=np.int64).reshape(-1, k + 1) for k, g in enumerate(groups)]
        self.rows: list[np.ndarray] = rows
        self._facet_index: dict[int, np.ndarray] = {}
        n_vertices = pair.n_total if pair is not None else np.inf
        outside = f"names a vertex outside 0..{n_vertices - 1}"
        for r in rows:
            step = np.diff(r, axis=0)  # each row exceeds the last at their first difference
            lead = np.r_[1, step[np.arange(len(step)), (step != 0).argmax(axis=1)]]
            for bad, why in (
                ((r[:, 1:] <= r[:, :-1]).any(axis=1), "is not strictly increasing"),
                ((r[:, 0] < 0) | (r[:, -1] >= n_vertices), outside),
                (lead <= 0, "is repeated or out of lexicographic order"),
            ):
                if bad.any():
                    raise ValueError(f"simplex {tuple(r[bad.argmax()].tolist())} {why}")
        for k in range(1, len(rows)):
            absent = np.argwhere(self.facet_index(k) < 0)
            if len(absent):
                i, drop = absent[0]
                simplex = tuple(rows[k][i].tolist())
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
        ``rows[k][i]`` without its vertex j. An entry can be -1 (facet absent)
        only while the constructor checks closure, which then refuses it."""
        if k not in self._facet_index:
            rows = self.rows[k]
            self._facet_index[k] = match(self.rows[k - 1], facets(rows)).reshape(len(rows), k + 1)
        return self._facet_index[k]


def _closure(cells: np.ndarray, n_vertices: int) -> list[np.ndarray]:
    """Rows of every face of the (sorted, distinct) cells per dimension, all vertices included."""
    rows = [cells] if len(cells) else []
    while rows and rows[-1].shape[1] > 2:
        rows.append(unique(facets(rows[-1]))[0])
    return [np.arange(n_vertices).reshape(-1, 1)] + rows[::-1]


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
    return CoupledComplex(pair, rows=_closure(cells, pair.n_total))
