"""Definition-level reference implementations used for certification.

Nothing here shares code with the fast paths: membership and filtration
values are decided straight from the definition (a common point of the
restricted Voronoi balls) in exact rational arithmetic, and the enclosing
balls come from ``reference``, so these routines serve
as independent oracles in the test suite and the ``compare`` command.

* ``qualifying_centres``: for every subset T of at most d+2 points (a
  pure T: at most d+1), three candidate centres on T's bisector flat
  (the points equidistant from T's X vertices and from its Y vertices):
  x1 projected onto the flat, y1 projected onto it, and x1 projected onto
  it cut by the equal-radius hyperplane 2(y1 - x1)·c = |y1|² - |x1|². No
  case is decided: a candidate is kept, in ``fractions.Fraction``, when
  its open X ball holds no X point and its open Y ball no Y point.
* ``exact_filtration``: a simplex Q is in the complex at r = infinity iff
  some superset T of it has a qualifying centre, and its squared value is
  the smallest max(r_X² if Q has an X vertex, r_Y² if Q has a Y vertex)
  over them: every qualifying centre is a common point of Q's restricted
  balls at that radius, and the optimum is the relaxed optimum of Q plus
  its active constraints. Each value is one float square root of the
  exact minimum. For a single cloud this is the empty-circumsphere view
  of alpha values (Edelsbrunner and Mücke, 1994).
* ``cech_filtration``: the Cech filtration of a small cloud, one minimum
  enclosing ball per subset of at most d+2 points.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .complexes import PointCloudPair, Simplex, coupled_alpha_infty
from .filtration import FilteredComplex, coupled_filtration
from .geometry import as_point_array
from .homology import diagram_discrepancy, persistence_diagram
from .reference import min_enclosing_ball

diagram_tolerance_default = 1e-6


class TooLarge(ValueError):
    """Input exceeds the size cap of a brute-force oracle."""


_CECH_CAP = 16
_EXACT_CAP = 24


def _dot(a, b):
    return sum(s * t for s, t in zip(a, b))


def _orthogonal(rows, basis=()):
    """Gram-Schmidt in rationals of the affine equations ``a·c = b``.

    Returns ``basis`` extended by (u, beta, u·u) triples with pairwise
    orthogonal normals u that cut out the same flat, or None when the
    equations contradict each other.
    """
    basis = list(basis)
    for a, b in rows:
        for u, beta, uu in basis:
            f = _dot(a, u) / uu
            a = [s - f * t for s, t in zip(a, u)]
            b -= f * beta
        if any(a):
            basis.append((a, b, Fraction(_dot(a, a))))
        elif b:
            return None
    return basis


def _project(p, basis):
    """The point of the flat of ``basis`` nearest to ``p``."""
    c = list(p)
    for u, beta, uu in basis:
        f = (beta - _dot(u, c)) / uu
        c = [s + f * t for s, t in zip(c, u)]
    return c


def qualifying_centres(pair: PointCloudPair):
    """Yield ``(T, centre, r_x², r_y²)`` for every qualifying candidate centre.

    ``T`` is a sorted tuple of global vertex indices, the centre a tuple of
    ``Fraction`` coordinates and the squared radii exact rationals (0 for
    a side T lacks). The input floats are dyadic, so they are scaled
    by one power of two to integers and the emptiness test of each ball is
    an integer comparison of powers D·(|c - p|² - |c|²), with c = N/D.
    """
    n, d, n_x = pair.n_total, pair.dim, pair.n_x
    if n > _EXACT_CAP:
        raise TooLarge(f"{n} points exceed the brute-force cap {_EXACT_CAP}")
    ratios = [v.as_integer_ratio() for v in pair.points.ravel().tolist()]
    scale = max([q for _, q in ratios], default=1)  # every denominator is a power of two
    coords = [p * (scale // q) for p, q in ratios]
    pts = [coords[i * d : (i + 1) * d] for i in range(n)]
    sq = [_dot(p, p) for p in pts]
    unit = Fraction(1, scale * scale)
    spans = (0, n_x), (n_x, n)

    def bisector(u, v):  # |c - p_u|² = |c - p_v|²
        return [2 * (s - t) for s, t in zip(pts[v], pts[u])], sq[v] - sq[u]

    for size in range(1, min(n, d + 2) + 1):
        for t in itertools.combinations(range(n), size):
            groups = [v for v in t if v < n_x], [v for v in t if v >= n_x]
            if size > d + 1 and not all(groups):
                continue
            basis = _orthogonal([bisector(g[0], v) for g in groups for v in g[1:]])
            if basis is None:
                continue
            firsts = [g[0] for g in groups if g]
            candidates = [_project(pts[v], basis) for v in firsts]
            if len(firsts) == 2:
                cut = _orthogonal([bisector(*firsts)], basis)
                if cut is not None:
                    candidates.append(_project(pts[firsts[0]], cut))
            for c in candidates:
                den = math.lcm(*(v.denominator for v in c))
                num = [v.numerator * (den // v.denominator) for v in c]
                power = [den * s - 2 * _dot(num, p) for p, s in zip(pts, sq)]
                # Empty open balls: no point of a side's cloud has less power than T's.
                if all(min(power[lo:hi]) == power[g[0]] for g, (lo, hi) in zip(groups, spans) if g):
                    r2 = [(Fraction(power[g[0]], den) + _dot(c, c)) * unit if g else 0 for g in groups]
                    yield t, tuple(Fraction(v, scale) for v in c), *r2


def exact_filtration(pair: PointCloudPair) -> FilteredComplex:
    """The coupled complex at r = infinity with exact filtration values.

    Every face Q of a T with a qualifying centre is a member, bounded by
    that centre's larger squared radius over the sides Q has; the value
    is the square root of the least bound, rounded once. Exponential in
    the input size, hence the cap ``_EXACT_CAP``.
    """
    n_x = pair.n_x
    best: dict[Simplex, Fraction] = {}
    for t, _, r2_x, r2_y in qualifying_centres(pair):
        for size in range(1, len(t) + 1):
            for q in itertools.combinations(t, size):
                bound = max(r2_x if q[0] < n_x else 0, r2_y if q[-1] >= n_x else 0)
                if q not in best or bound < best[q]:
                    best[q] = bound
    return FilteredComplex({q: math.sqrt(v) for q, v in best.items()})


def cech_filtration(points) -> FilteredComplex:
    """Cech filtration of a cloud: every subset valued by its enclosing ball.

    Exponential in the input size, hence the hard cap. Simplices go up to
    dimension d+1 (d+2 vertices), enough for exact homology through the
    ambient dimension d.
    """
    pts = as_point_array(points)
    n, d = pts.shape
    if n == 0:
        return FilteredComplex({})
    if n > _CECH_CAP:
        raise TooLarge(f"{n} points exceed the brute-force cap {_CECH_CAP}")
    values: dict[Simplex, float] = {}
    for size in range(1, min(d + 2, n) + 1):
        for combo in itertools.combinations(range(n), size):
            if size == 1:
                values[combo] = 0.0
                continue
            radius = min_enclosing_ball(pts[list(combo)]).radius
            # Exact monotonicity under float arithmetic.
            for drop in range(size):
                radius = max(radius, values[combo[:drop] + combo[drop + 1 :]])
            values[combo] = radius
    return FilteredComplex(values)


def diagram_discrepancy_vs_reference(
    pair: PointCloudPair, tol: float = diagram_tolerance_default
) -> tuple[bool, float]:
    """Coupled-filtration diagram vs the brute-force diagram of the union.

    Both filtrations cover the same union of balls, so their diagrams must
    agree. Compared in dimensions 0..d-1. Returns the verdict
    at ``tol`` and the worst endpoint discrepancy (``inf`` on an interval
    count mismatch).
    """
    fast = persistence_diagram(coupled_filtration(coupled_alpha_infty(pair)))
    reference = persistence_diagram(cech_filtration(pair.points))
    worst = diagram_discrepancy(fast, reference, range(pair.dim), min_length=tol)
    return worst <= tol, worst
