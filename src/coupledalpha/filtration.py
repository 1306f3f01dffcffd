"""Filtration values for coupled alpha complexes.

The value of a simplex Q is the smallest radius r at which the restricted
Voronoi balls of its vertices (each restricted within its own cloud) have
a common point. Values are computed top-down:

* The relaxed value ignores the Voronoi restriction: minimize the larger
  of the two cloud radii over the affine set of centers equidistant from
  Q's X part and, separately, from its Y part. There each squared radius
  is the squared distance to that side's projection, p_X or p_Y, plus a
  constant, so the minimizer is p_X if its X radius dominates there, else
  p_Y if its Y radius dominates there, else the point of [p_X, p_Y] where
  the radii are equal (their squared difference is affine along it): the
  center of the smallest sphere through all of Q. With d+2 vertices the
  flat is one point, both projections. ``_relaxed_batch`` is the one
  spelling of this case analysis: it solves a dimension's simplices per
  (|Q_X|, |Q_Y|) type, rows with the same X count gathered into one
  (g, k+1, d) array and solved by one stacked bisector solve, and
  ``relaxed_value`` is its one-row call.
* ``coupled_filtration`` walks the complex from the top dimension down,
  one batched pass per dimension. The coupled Gabriel test decides
  whether a simplex's relaxed solution is feasible for the original
  problem relative to one coface: the open X ball around the relaxed
  center must avoid the coface's X vertices and the open Y ball its Y
  vertices. For a pure simplex this degenerates to the classical
  one-ball Gabriel test against its own cloud. It runs as array
  comparisons over (facet, coface) rows, one per dropped vertex of each
  coface, read from the complex's ``facet_index``: the complex filled it
  in the same sort that closed it, so every facet is found, and the
  boundary matrix reads it too. A simplex that passes against every
  coface keeps its relaxed value, anything else inherits the minimum
  over its cofaces, scattered with ``np.minimum.at``.

Vertices get value 0 and values are monotone along face inclusions by
construction. A simplex without cofaces starts from ``math.inf``, the
neutral element of the minimum, and passes the Gabriel test vacuously;
a top simplex therefore keeps its relaxed value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .complexes import CoupledComplex, PointCloudPair, Simplex
from .geometry import GeometryError, _bisector_points

X_DOMINANT = "X_DOMINANT"
Y_DOMINANT = "Y_DOMINANT"
CIRCUMSPHERE = "CIRCUMSPHERE"
# Case names by the codes 0, 1, 2 that ``_relaxed_batch`` returns.
CASES = (X_DOMINANT, Y_DOMINANT, CIRCUMSPHERE)

class DimensionOverflow(GeometryError):
    """A simplex has more vertices than the ambient dimension allows."""


@dataclass(frozen=True, eq=False)
class SphereSolution:
    """Solution of the relaxed two-ball problem for one simplex.

    ``radius_x`` is the distance from the center to the simplex's X
    vertices, ``radius_y`` to its Y vertices (0.0 for an absent side).
    The relaxed value is the larger of the two.
    """

    center: np.ndarray
    radius_x: float
    radius_y: float
    case: str

    @property
    def relaxed_radius(self) -> float:
        return max(self.radius_x, self.radius_y)


class FilteredComplex:
    """A complex with float64 filtration values alongside its rows.

    ``levels[k]`` holds the values of the k-simplices ``cplx.rows[k]``;
    both come from a dict ``{simplex: value}`` unless given.
    ``values`` is a dict view made once, top dimension first as the walk assigns them.
    """

    def __init__(self, values: dict[Simplex, float] | None = None, cplx=None, levels=None):
        if cplx is None:
            cplx = CoupledComplex(None, values)
            by_dim = map(cplx.by_dim, range(len(cplx.rows)))
            levels = [np.array([values[s] for s in simplices], dtype=float) for simplices in by_dim]
        self.cplx, self.levels = cplx, levels

    @cached_property
    def values(self) -> dict[Simplex, float]:
        dims = range(len(self.levels) - 1, -1, -1)
        return {s: v for k in dims for s, v in zip(self.cplx.by_dim(k), self.levels[k].tolist())}

    def sorted_items(self) -> list[tuple[Simplex, float]]:
        """(simplex, value) in filtration order: one lexsort by (value, dimension,
        lexicographic rank), faces first at ties."""
        sizes = self.cplx.counts()
        dim = np.repeat(np.arange(len(sizes)), sizes)
        index = np.concatenate([np.zeros(0, dtype=np.intp), *map(np.arange, sizes)])
        order = np.lexsort((index, dim, np.concatenate([np.zeros(0), *self.levels])))
        items = [list(zip(self.cplx.by_dim(k), v.tolist())) for k, v in enumerate(self.levels)]
        return [items[k][i] for k, i in zip(dim[order].tolist(), index[order].tolist())]


def relaxed_value(q_x, q_y) -> SphereSolution:
    """Solve the relaxed smallest-radius problem for a labeled simplex.

    ``q_x`` and ``q_y`` are the simplex's vertex coordinates per cloud,
    either side empty or None, checked and stacked by ``PointCloudPair``.
    The center returned is equidistant from all X vertices and from all Y
    vertices, minimizing the larger of the two distances over the bisector
    solution set.
    """
    pair = PointCloudPair(np.zeros((0, 0)) if q_x is None else q_x, q_y)
    if pair.n_total == 0:
        raise ValueError("need at least one vertex")
    c, r_x, r_y, case = _relaxed_batch(pair.points, pair.n_x, np.arange(pair.n_total)[None])
    return SphereSolution(c[0], float(r_x[0]), float(r_y[0]), CASES[case[0]])


def coupled_filtration(cplx: CoupledComplex) -> FilteredComplex:
    """Assign filtration values to every simplex of a coupled complex.

    Processes dimensions from the top down. Each simplex either keeps its
    own relaxed value (coupled Gabriel against all cofaces) or inherits
    the smallest coface value. The minimum with the coface values is
    always taken, which makes the result monotone under float arithmetic
    too. The Gabriel test takes no tolerance (``dist < radius``): a tie
    decided either way leaves the value unchanged, so a near-tie decided
    wrongly in floats moves it by round-off only. A complex without a
    point-cloud pair has no geometry and is refused.
    """
    if cplx.pair is None:
        raise ValueError("the complex has no point-cloud pair to take values from")
    levels = [value for _, value, _ in _gabriel_walk(cplx)]
    return FilteredComplex(cplx=cplx, levels=levels[::-1])


def _gabriel_walk(cplx: CoupledComplex):
    """Yield ``(rows, values, gabriel)`` per dimension, top down.

    ``gabriel[i]`` tells whether simplex ``rows[i]`` passed the coupled
    Gabriel test against every coface (vertices pass by definition, with
    value 0).
    """
    pair = cplx.pair
    points, n_x = pair.points, pair.n_x
    above = None  # rows and values of the dimension above
    for k in range(cplx.dimension, -1, -1):
        rows = cplx.rows[k]
        gabriel = np.ones(len(rows), dtype=bool)
        if k == 0:
            yield rows, np.zeros(len(rows)), gabriel
            return
        center, radius_x, radius_y, _ = _relaxed_batch(points, n_x, rows)
        min_coface = np.full(len(rows), math.inf)
        if above is not None:
            # Facet j of a coface drops its vertex j; the complex holds every facet.
            cofaces, coface_value = above
            facet, extra = cplx.facet_index(k + 1).ravel(), cofaces.ravel()
            np.minimum.at(min_coface, facet, np.repeat(coface_value, k + 2))
            # Coupled Gabriel test: every coface vertex stays outside the open
            # ball of its own cloud. A cloud the simplex lacks has radius 0,
            # so a pure simplex gets the classical Gabriel test.
            radius = np.where(extra < n_x, radius_x[facet], radius_y[facet])
            dist = np.linalg.norm(points[extra] - center[facet], axis=1)
            gabriel[facet[dist < radius]] = False
        relaxed = np.maximum(radius_x, radius_y)
        value = np.where(gabriel, np.minimum(relaxed, min_coface), min_coface)
        yield rows, value, gabriel
        above = rows, value


def _relaxed_batch(points: np.ndarray, n_x: int, rows: np.ndarray):
    """Relaxed centers, radii and cases of the simplices ``rows``, batched per type.

    ``rows`` is an (m, k+1) array of sorted global vertex indices, so X
    ones come first. Rows are grouped by their X count and each group is
    solved in one stacked bisector solve: pure rows shifted to their first
    vertex, mixed rows shifted to their centroid, with the X and Y
    projections sharing one factorization; the circumsphere candidate is
    then in closed form, and signs pick the case, with no tie tolerance.
    Returns ``(center, radius_x, radius_y, case)`` of shapes (m, d), (m,),
    (m,), (m,); ``case`` holds the index into ``CASES`` of the candidate
    that won (a pure row is dominated by its own cloud). Every bisector
    system is square or wide.
    """
    m, size = rows.shape
    dim = points.shape[1]
    counts = (rows < n_x).sum(axis=1)
    # A lifted Delaunay cell has at most d + 2 vertices and spans both
    # clouds, so only a listing or a direct call can overflow.
    pure = ((counts == 0) | (counts == size)).any()
    limit = dim + 1 if pure else dim + 2
    if size > limit:
        kind = "pure simplex" if pure else "simplex"
        raise DimensionOverflow(f"{size} vertices exceed the maximum {kind} size {limit} in R^{dim}")
    center = np.empty((m, dim))
    radius_x = np.zeros(m)
    radius_y = np.zeros(m)
    case = np.empty(m, dtype=np.intp)
    for n_qx in np.unique(counts).tolist():
        sel = np.flatnonzero(counts == n_qx)
        pts = points[rows[sel]]  # (g, size, dim)
        if n_qx in (0, size):
            # Shifted to the first vertex, whose coordinates then add to the
            # center only: the radius is read off the unrounded solution.
            first = pts[:, 0]
            rel = pts - first[:, None]
            sol = _bisector_points(rel[:, :1], rel[:, 1:], rel[:, 0])
            center[sel] = sol + first
            (radius_x if n_qx else radius_y)[sel] = np.linalg.norm(sol, axis=1)
            case[sel] = 0 if n_qx else 1
            continue
        # Work in coordinates shifted to each simplex's centroid for conditioning.
        shift = pts.mean(axis=1)
        pts = pts - shift[:, None]
        x1, y1 = pts[:, 0], pts[:, n_qx]
        # Bisector pairs: every other X vertex with x1, every other Y vertex with y1.
        first = [0] * (n_qx - 1) + [n_qx] * (size - n_qx - 1)
        other = list(range(1, n_qx)) + list(range(n_qx + 1, size))
        # The X and Y projections p_X, p_Y share the bisector rows: (2, g, dim).
        p = _bisector_points(pts[:, first], pts[:, other], np.stack([x1, y1]))
        # On the flat r_X² = |c - p_X|² + const and r_Y² = |c - p_Y|² + const, so
        # r_Y² - r_X² is affine along [p_X, p_Y]: g_x at p_X, -g_y at p_Y.
        sq_x = np.square(p - x1).sum(axis=-1)
        sq_y = np.square(p - y1).sum(axis=-1)
        g_x, g_y = sq_y[0] - sq_x[0], sq_x[1] - sq_y[1]
        code = np.where(g_x <= 0, 0, np.where(g_y <= 0, 1, 2))
        # t = 0 and 1 return p_X and p_Y exactly; in between both radii are equal.
        t = (code == 1).astype(float)
        both = code == 2
        t[both] = g_x[both] / (g_x[both] + g_y[both])
        c = (1.0 - t)[:, None] * p[0] + t[:, None] * p[1]
        center[sel] = c + shift
        radius_x[sel] = np.linalg.norm(c - x1, axis=1)
        radius_y[sel] = np.linalg.norm(c - y1, axis=1)
        case[sel] = code
    return center, radius_x, radius_y, case
