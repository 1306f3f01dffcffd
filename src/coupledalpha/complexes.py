"""Point-cloud pairs and the coupled alpha complex at infinite radius.

The coupled alpha complex of a pair (X, Y) is the nerve of the union of
the two families of restricted Voronoi balls, one family per cloud. At
infinite radius it is computed combinatorially: embed X at height 0 and Y
at height 1 in one extra dimension, take the Delaunay triangulation of
the union, and project the faces back down by forgetting the extra
coordinate. Vertex indices are global: X points come first, Y points
follow, so a simplex is a sorted tuple of ints and its X/Y split is a
threshold comparison.

The plain alpha complex of a single cloud is the same object with the
other cloud empty, and is computed directly from the cloud's Delaunay
triangulation.
"""

from __future__ import annotations

import itertools

import numpy as np

from .delaunay import delaunay_incremental
from .geometry import (
    EPS,
    DegenerateInput,
    GeneralPositionError,
    as_point_array,
    check_coupled_general_position,
    lift_clouds,
)

Simplex = tuple[int, ...]


class PointCloudPair:
    """Two finite point clouds in a common R^d with global vertex indexing.

    By default the coupled general-position check runs on construction and
    raises ``GeneralPositionError`` on failure; pass ``check=False`` to
    waive it (the check is exhaustive over subsets, so waiving is the
    normal thing to do for more than a few dozen points).
    """

    def __init__(self, x, y=None, *, check: bool = True, eps: float = EPS):
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
        self.eps = eps
        self._points = np.vstack([self.x, self.y]) if dim else np.zeros((0, 0))
        if check and (x.shape[0] or y.shape[0]):
            ok, violations = check_coupled_general_position(self.x, self.y, eps)
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

    def side(self, index: int) -> str:
        """'x' or 'y' depending on which cloud a global index names."""
        if not 0 <= index < self.n_total:
            raise IndexError(f"vertex index {index} out of range")
        return "x" if index < self.n_x else "y"

    def split(self, simplex: Simplex) -> tuple[Simplex, Simplex]:
        """Partition a global-index simplex into its X part and Y part."""
        qx = tuple(i for i in simplex if i < self.n_x)
        qy = tuple(i for i in simplex if i >= self.n_x)
        if qx + qy != tuple(simplex):
            raise ValueError(f"simplex {simplex} is not sorted")
        return qx, qy

    def split_coords(self, simplex: Simplex) -> tuple[np.ndarray, np.ndarray]:
        qx, qy = self.split(simplex)
        return self._points[list(qx)], self._points[list(qy)]


class CoupledComplex:
    """A finite simplicial complex over a point-cloud pair.

    Simplices are sorted global-index tuples, stored in (dimension,
    lexicographic) order and closed under taking faces.
    """

    def __init__(self, pair: PointCloudPair, simplices):
        self.pair = pair
        self.simplices: tuple[Simplex, ...] = tuple(
            sorted(set(simplices), key=lambda s: (len(s), s))
        )
        self._by_dim: dict[int, list[Simplex]] = {}
        for s in self.simplices:
            self._by_dim.setdefault(len(s) - 1, []).append(s)

    def __len__(self) -> int:
        return len(self.simplices)

    def __iter__(self):
        return iter(self.simplices)

    @property
    def dimension(self) -> int:
        return max(self._by_dim, default=-1)

    def by_dim(self, k: int) -> list[Simplex]:
        return list(self._by_dim.get(k, ()))

    def counts(self) -> tuple[int, ...]:
        """Number of simplices per dimension, from 0 up."""
        top = self.dimension
        return tuple(len(self._by_dim.get(k, ())) for k in range(top + 1))


def _closure(cells, n_vertices: int) -> set[Simplex]:
    faces: set[Simplex] = {(i,) for i in range(n_vertices)}
    for cell in cells:
        for size in range(2, len(cell) + 1):
            faces.update(itertools.combinations(cell, size))
        faces.update((v,) for v in cell)
    return faces


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
    cells = delaunay_incremental(points, pair.eps).cells
    # The triangulation works inside the affine hull: its cells have rank + 1 vertices.
    rank = len(cells[0]) - 1 if cells else 0
    expected = min(pair.n_total - 1, points.shape[1])
    if rank < expected:
        raise DegenerateInput(f"{what}: points span only a {rank}-flat (expected {expected})")
    # Forgetting the height coordinate keeps vertex indices; faces of the
    # lifted cells are exactly the coupled simplices.
    return CoupledComplex(pair, _closure(cells, pair.n_total))


def alpha_infty(points) -> CoupledComplex:
    """The alpha complex of a single cloud at infinite radius.

    Returned over a pair with an empty second cloud, so the same
    filtration and homology machinery applies unchanged.
    """
    return coupled_alpha_infty(PointCloudPair(points, None, check=False))
