"""Filtration values for coupled alpha complexes.

The value of a simplex Q is the smallest radius r at which the restricted
Voronoi balls of its vertices (each restricted within its own cloud) have
a common point. Values are computed top-down:

* ``relaxed_value`` solves the relaxation that ignores the Voronoi
  restriction: minimize the larger of the two cloud radii over the affine
  set of centers equidistant from Q's X part and, separately, from its Y
  part. The minimizer is one of three candidates -- the X-side projection
  if its X radius dominates there, else the Y-side projection if its Y
  radius dominates there, else the center of the smallest sphere through
  all of Q.
* ``coupled_filtration`` walks the complex from the top dimension down.
  The coupled Gabriel test decides whether a simplex's relaxed solution
  is feasible for the original problem relative to one coface: the open
  X ball around the relaxed center must avoid the coface's X vertices
  and the open Y ball its Y vertices. For a pure simplex this
  degenerates to the classical one-ball Gabriel test against its own
  cloud. A simplex that passes against every coface keeps its relaxed
  value, anything else inherits the minimum over its cofaces.

Vertices get value 0 and values are monotone along face inclusions by
construction. During the walk a simplex that no coface has reached yet
starts from ``math.inf``, the neutral element of the minimum, with no
coface vertices to test; a top simplex therefore keeps its relaxed value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .complexes import CoupledComplex, Simplex, alpha_infty
from .geometry import EPS, GeometryError, _bisector_point, as_point_array

X_DOMINANT = "X_DOMINANT"
Y_DOMINANT = "Y_DOMINANT"
CIRCUMSPHERE = "CIRCUMSPHERE"

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


@dataclass(eq=False)
class FilteredComplex:
    """Simplices with filtration values, sorted by (value, dim, lex)."""

    values: dict[Simplex, float]

    def sorted_items(self) -> list[tuple[Simplex, float]]:
        return sorted(self.values.items(), key=lambda kv: (kv[1], len(kv[0]), kv[0]))

    def simplices(self) -> list[Simplex]:
        return sorted(self.values, key=lambda s: (len(s), s))

    def max_value(self) -> float:
        return max(self.values.values(), default=0.0)

    def at_radius(self, radius: float) -> list[Simplex]:
        """Simplices present at the given radius."""
        return [s for s, v in self.values.items() if v <= radius]

    def check_monotone(self, tol: float = 0.0) -> bool:
        """True iff every simplex's value is >= each of its facets' values."""
        for simplex, value in self.values.items():
            if len(simplex) == 1:
                continue
            for drop in range(len(simplex)):
                facet = simplex[:drop] + simplex[drop + 1 :]
                if self.values[facet] > value + tol:
                    return False
        return True


def relaxed_value(q_x, q_y, eps: float = EPS) -> SphereSolution:
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
    if n_x + n_y > dim + 2:
        raise DimensionOverflow(
            f"{n_x + n_y} vertices exceed the maximum simplex size {dim + 2} in R^{dim}"
        )

    if n_x == 0 or n_y == 0:
        pts = q_x if n_x else q_y
        center = _bisector_point(pts[0], pts[1:], pts[0], eps)
        radius = float(np.linalg.norm(center - pts[0]))
        if n_x:
            return SphereSolution(center, radius, 0.0, X_DOMINANT)
        return SphereSolution(center, 0.0, radius, Y_DOMINANT)

    # Work in coordinates shifted to the simplex centroid for conditioning.
    shift = np.vstack([q_x, q_y]).mean(axis=0)
    px = q_x - shift
    py = q_y - shift
    x1, y1 = px[0], py[0]
    # Bisector pairs: every other X vertex with x1, every other Y vertex with y1.
    u = np.repeat([x1, y1], [n_x - 1, n_y - 1], axis=0)
    v = np.vstack([px[1:], py[1:]])

    c_x = _bisector_point(u, v, x1, eps)  # raises RankDeficient on dependent rows
    r_xx = float(np.linalg.norm(c_x - x1))
    r_xy = float(np.linalg.norm(c_x - y1))
    if r_xx >= r_xy - _TIE_EPS:
        return SphereSolution(c_x + shift, r_xx, r_xy, X_DOMINANT)

    c_y = _bisector_point(u, v, y1, eps)
    r_yx = float(np.linalg.norm(c_y - x1))
    r_yy = float(np.linalg.norm(c_y - y1))
    if r_yx <= r_yy + _TIE_EPS:
        return SphereSolution(c_y + shift, r_yx, r_yy, Y_DOMINANT)

    # Both radii active: the minimizer is equidistant from every vertex of
    # the simplex, i.e. the center of the smallest sphere through all of it.
    center = _bisector_point(np.vstack([u, x1]), np.vstack([v, y1]), x1, eps)
    r_x = float(np.linalg.norm(center - x1))
    r_y = float(np.linalg.norm(center - y1))
    return SphereSolution(center + shift, r_x, r_y, CIRCUMSPHERE)


def coupled_filtration(cplx: CoupledComplex) -> FilteredComplex:
    """Assign filtration values to every simplex of a coupled complex.

    Processes dimensions from the top down. Each simplex either keeps its
    own relaxed value (coupled Gabriel against all cofaces) or inherits
    the smallest coface value. The minimum with the coface values is
    always taken, which makes the result monotone under float arithmetic
    too. The tolerance is the pair's ``eps``.
    """
    pair = cplx.pair
    eps = pair.eps
    values: dict[Simplex, float] = {}
    # For each simplex some coface has reached: [min coface value, extra vertices of cofaces]
    pending: dict[Simplex, list] = {}

    for k in range(cplx.dimension, -1, -1):
        for simplex in cplx.by_dim(k):
            if k == 0:
                values[simplex] = 0.0
                continue
            q_x, q_y = pair.split_coords(simplex)
            solution = relaxed_value(q_x, q_y, eps)
            min_coface, extras = pending.pop(simplex, [math.inf, []])
            # Coupled Gabriel test: every coface vertex stays outside the open
            # ball of its own cloud. A cloud the simplex lacks has radius 0, so
            # a pure simplex gets the classical Gabriel test.
            gabriel = True
            for v in extras:
                radius = solution.radius_x if v < pair.n_x else solution.radius_y
                dist = float(np.linalg.norm(pair.points[v] - solution.center))
                if dist < radius - eps * (1.0 + radius):
                    gabriel = False
                    break
            if gabriel:
                value = min(solution.relaxed_radius, min_coface)
            else:
                value = min_coface
            values[simplex] = value
            for drop in range(k + 1):
                facet = simplex[:drop] + simplex[drop + 1 :]
                entry = pending.setdefault(facet, [math.inf, []])
                entry[0] = min(entry[0], value)
                entry[1].append(simplex[drop])
    # Vertex entries remain in pending (their value is fixed at 0); top
    # simplices never appear in pending at all.
    return FilteredComplex(values)


def alpha_filtration(points) -> FilteredComplex:
    """Alpha filtration of a single cloud.

    The one-cloud specialization of the coupled machinery: the complex is
    the Delaunay closure and every simplex is pure, so the relaxed value
    is the circumsphere radius and the Gabriel test is the classical one.
    """
    return coupled_filtration(alpha_infty(points))
