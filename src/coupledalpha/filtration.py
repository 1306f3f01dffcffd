"""Filtration values for coupled alpha complexes.

The value of a simplex Q is the smallest radius r at which the restricted
Voronoi balls of its vertices (each restricted within its own cloud) have
a common point. Values are computed top-down:

* The relaxed value ignores the Voronoi restriction: minimize the larger
  of the two cloud radii over the affine set of centers equidistant from
  Q's X part and, separately, from its Y part. The minimizer is one of
  three candidates -- the X-side projection if its X radius dominates
  there, else the Y-side projection if its Y radius dominates there, else
  the center of the smallest sphere through all of Q. ``_relaxed_batch``
  is the one spelling of this case analysis: it solves a dimension's
  simplices per (|Q_X|, |Q_Y|) type, rows with the same X count gathered
  into one (g, k+1, d) array and solved by stacked bisector solves, and
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
  when it checked its own closure, so every facet is found, and the
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

from .complexes import CoupledComplex, Simplex
from .geometry import EPS, GeometryError, _bisector_points, as_point_array

X_DOMINANT = "X_DOMINANT"
Y_DOMINANT = "Y_DOMINANT"
CIRCUMSPHERE = "CIRCUMSPHERE"
# Case names by the codes 0, 1, 2 that ``_relaxed_batch`` returns.
CASES = (X_DOMINANT, Y_DOMINANT, CIRCUMSPHERE)

# Absolute slack when comparing the two candidate radii for dominance.
_TIE_EPS = 1e-12


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

    def order(self) -> tuple[np.ndarray, np.ndarray]:
        """(dimension, index into ``cplx.rows[k]``) of each simplex in filtration order:
        one lexsort by (value, dimension, lexicographic rank), faces first at ties."""
        sizes = self.cplx.counts()
        dim = np.repeat(np.arange(len(sizes)), sizes)
        index = np.concatenate([np.zeros(0, dtype=np.intp), *map(np.arange, sizes)])
        order = np.lexsort((index, dim, np.concatenate([np.zeros(0), *self.levels])))
        return dim[order], index[order]

    def sorted_items(self) -> list[tuple[Simplex, float]]:
        dim, index = self.order()
        items = [list(zip(self.cplx.by_dim(k), v.tolist())) for k, v in enumerate(self.levels)]
        return [items[k][i] for k, i in zip(dim.tolist(), index.tolist())]


def relaxed_value(q_x, q_y) -> SphereSolution:
    """Solve the relaxed smallest-radius problem for a labeled simplex.

    ``q_x`` and ``q_y`` are the simplex's vertex coordinates per cloud;
    either side may be empty. The center returned is equidistant from all
    X vertices and from all Y vertices, minimizing the larger of the two
    distances over the bisector solution set.
    """
    q_x = as_point_array(q_x) if q_x is not None else np.zeros((0, 0))
    if q_y is None:
        q_y = np.zeros((0, q_x.shape[1]))
    q_y = as_point_array(q_y, dim=q_x.shape[1] if q_x.size else None)
    n_x, n_y = q_x.shape[0], q_y.shape[0]
    if n_x == 0 and n_y == 0:
        raise ValueError("need at least one vertex")
    dim = q_x.shape[1] if n_x else q_y.shape[1]
    points = np.vstack([q_x.reshape(n_x, dim), q_y])
    center, radius_x, radius_y, case = _relaxed_batch(points, n_x, np.arange(n_x + n_y)[None])
    return SphereSolution(center[0], float(radius_x[0]), float(radius_y[0]), CASES[case[0]])


def coupled_filtration(cplx: CoupledComplex) -> FilteredComplex:
    """Assign filtration values to every simplex of a coupled complex.

    Processes dimensions from the top down. Each simplex either keeps its
    own relaxed value (coupled Gabriel against all cofaces) or inherits
    the smallest coface value. The minimum with the coface values is
    always taken, which makes the result monotone under float arithmetic
    too. The Gabriel test's tolerance is ``geometry.EPS``.
    """
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
            gabriel[facet[dist < radius - EPS * (1.0 + radius)]] = False
        relaxed = np.maximum(radius_x, radius_y)
        value = np.where(gabriel, np.minimum(relaxed, min_coface), min_coface)
        yield rows, value, gabriel
        above = rows, value


def _relaxed_batch(points: np.ndarray, n_x: int, rows: np.ndarray):
    """Relaxed centers, radii and cases of the simplices ``rows``, batched per type.

    ``rows`` is an (m, k+1) array of sorted global vertex indices, so X
    ones come first. Rows are grouped by their X count and each group is
    solved in stacked bisector solves: pure rows shifted to their first
    vertex, mixed rows shifted to their centroid, with the X and Y
    candidates sharing one factorization and the circumsphere solved only
    where neither radius dominates. Returns ``(center, radius_x, radius_y, case)``
    of shapes (m, d), (m,), (m,), (m,); ``case`` holds the index into
    ``CASES`` of the candidate that won (a pure row is dominated by its
    own cloud).
    """
    m, size = rows.shape
    dim = points.shape[1]
    if size > dim + 2:
        raise DimensionOverflow(
            f"{size} vertices exceed the maximum simplex size {dim + 2} in R^{dim}"
        )
    center = np.empty((m, dim))
    radius_x = np.zeros(m)
    radius_y = np.zeros(m)
    case = np.empty(m, dtype=np.intp)
    counts = (rows < n_x).sum(axis=1)
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
        # The X and Y candidates share the bisector rows: (2, g, dim).
        c = _bisector_points(pts[:, first], pts[:, other], np.stack([x1, y1]))
        r_x = np.linalg.norm(c - x1, axis=-1)
        r_y = np.linalg.norm(c - y1, axis=-1)
        pick = np.where(r_x[0] >= r_y[0] - _TIE_EPS, 0, 1)
        both = np.flatnonzero((pick == 1) & (r_x[1] > r_y[1] + _TIE_EPS))
        g = np.arange(len(sel))
        c, r_x, r_y = c[pick, g], r_x[pick, g], r_y[pick, g]
        pick[both] = 2  # the case code: 0 and 1 name the candidate taken
        if both.size:
            # Both radii active: the minimizer is the center of the smallest
            # sphere through all of the simplex.
            on = pts[both]
            c[both] = _bisector_points(on[:, first + [0]], on[:, other + [n_qx]], x1[both])
            r_x[both] = np.linalg.norm(c[both] - x1[both], axis=1)
            r_y[both] = np.linalg.norm(c[both] - y1[both], axis=1)
        center[sel] = c + shift
        radius_x[sel] = r_x
        radius_y[sel] = r_y
        case[sel] = pick
    return center, radius_x, radius_y, case
