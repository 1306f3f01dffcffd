"""Definition-level reference implementations used for certification.

Nothing here shares code with the fast paths or with ``reference``:
membership and filtration values are decided straight from the
definitions (a common point of the restricted Voronoi balls, the smallest
enclosing ball) in exact rational arithmetic, so these routines serve as
independent oracles in the test suite and the ``compare`` command. Every
centre is a point projected onto a bisector flat, and each value one
float square root of an exact rational, so values scale exactly by 2^k.

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
  its active constraints. For a single cloud this is the
  empty-circumsphere view of alpha values (Edelsbrunner and Mücke, 1994).
* ``cech_filtration``: the Cech filtration of a small cloud. Every subset
  T of at most d+1 points gets its smallest circumsphere (its first point
  projected onto its bisector flat) and the points its closed ball holds;
  a subset S of at most d+2 points takes the least radius over the T ⊆ S
  whose ball holds S, which is S's smallest enclosing ball.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import mul

from .complexes import PointCloudPair, Simplex, coupled_alpha_infty
from .filtration import FilteredComplex, coupled_filtration
from .geometry import as_point_array
from .homology import diagram_discrepancy, persistence_diagram

diagram_tolerance_default = 1e-6


class TooLarge(ValueError):
    """Input exceeds the size cap of a brute-force oracle."""


_CECH_CAP = 16
_EXACT_CAP = 24


def _dot(a, b):
    return sum(map(mul, a, b))


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


def _integers(points):
    """The rows of ``points`` times ``scale``, as integer lists, their squared norms and ``scale``.

    The input floats are dyadic, so one power of two, their largest
    denominator, scales every coordinate to an integer.
    """
    n, d = points.shape
    ratios = [v.as_integer_ratio() for v in points.ravel().tolist()]
    scale = max([q for _, q in ratios], default=1)  # every denominator is a power of two
    coords = [p * (scale // q) for p, q in ratios]
    pts = [coords[i * d : (i + 1) * d] for i in range(n)]
    return pts, [_dot(p, p) for p in pts], scale


def _bisector(pts, sq, u, v):
    """The affine equation |c - p_u|² = |c - p_v|² of centres c."""
    return [2 * (s - t) for s, t in zip(pts[v], pts[u])], sq[v] - sq[u]


def _powers(c, pts, sq):
    """Every point's power about the centre c = N/D, as the integer D·(|c - p|² - |c|²).

    One point has less power than another iff it is nearer to c. Also
    returns the map from a point's power to its squared distance |c - p|².
    """
    den = math.lcm(*(v.denominator for v in c))
    num = [v.numerator * (den // v.denominator) for v in c]
    power = [den * s - 2 * _dot(num, p) for p, s in zip(pts, sq)]
    cc = _dot(c, c)
    return power, lambda v: Fraction(v, den) + cc


def _sqrt(v: Fraction) -> float:
    """``math.sqrt(v)``, without overflow or underflow: v is shifted by an even power of two first."""
    half = (v.numerator.bit_length() - v.denominator.bit_length()) // 2
    return math.ldexp(math.sqrt(v * Fraction(2) ** (-2 * half)), half)


def qualifying_centres(pair: PointCloudPair):
    """Yield ``(T, centre, r_x², r_y²)`` for every qualifying candidate centre.

    ``T`` is a sorted tuple of global vertex indices, the centre a tuple of
    ``Fraction`` coordinates and the squared radii exact rationals (0 for
    a side T lacks). The emptiness test of each ball compares the integer
    powers of ``_powers`` on the input scaled to integers.
    """
    n, d, n_x = pair.n_total, pair.dim, pair.n_x
    if n > _EXACT_CAP:
        raise TooLarge(f"{n} points exceed the brute-force cap {_EXACT_CAP}")
    pts, sq, scale = _integers(pair.points)
    unit = Fraction(1, scale * scale)
    spans = (0, n_x), (n_x, n)

    for size in range(1, min(n, d + 2) + 1):
        for t in itertools.combinations(range(n), size):
            groups = [v for v in t if v < n_x], [v for v in t if v >= n_x]
            if size > d + 1 and not all(groups):
                continue
            basis = _orthogonal([_bisector(pts, sq, g[0], v) for g in groups for v in g[1:]])
            if basis is None:
                continue
            firsts = [g[0] for g in groups if g]
            candidates = [_project(pts[v], basis) for v in firsts]
            if len(firsts) == 2:
                cut = _orthogonal([_bisector(pts, sq, *firsts)], basis)
                if cut is not None:
                    candidates.append(_project(pts[firsts[0]], cut))
            for c in candidates:
                power, dist2 = _powers(c, pts, sq)
                # Empty open balls: no point of a side's cloud has less power than T's.
                if all(min(power[lo:hi]) == power[g[0]] for g, (lo, hi) in zip(groups, spans) if g):
                    r2 = [dist2(power[g[0]]) * unit if g else 0 for g in groups]
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
    return FilteredComplex({q: _sqrt(v) for q, v in best.items()})


def cech_filtration(points) -> FilteredComplex:
    """Cech filtration of a cloud: every subset valued by its smallest enclosing ball.

    The smallest enclosing ball of a set S is the smallest circumsphere of
    some T ⊆ S of at most d+1 points whose closed ball holds S, so each S
    takes the least squared radius over such T, in exact arithmetic; its
    ``_sqrt`` is monotone since the exact radius is. Exponential in the
    input size, hence the hard cap. Simplices go up to dimension d+1 (d+2
    vertices), enough for exact homology through the ambient dimension d.
    """
    pts = as_point_array(points)
    n, d = pts.shape
    if n > _CECH_CAP:
        raise TooLarge(f"{n} points exceed the brute-force cap {_CECH_CAP}")
    pts, sq, scale = _integers(pts)
    best: dict[Simplex, Fraction] = {}
    for size in range(1, min(d + 1, n) + 1):
        for t in itertools.combinations(range(n), size):
            basis = _orthogonal([_bisector(pts, sq, t[0], v) for v in t[1:]])
            if basis is None:
                continue
            power, dist2 = _powers(_project(pts[t[0]], basis), pts, sq)
            r2 = dist2(power[t[0]])
            held = [v for v, p in enumerate(power) if p <= power[t[0]] and v not in t]
            for extra in (e for k in range(d + 3 - size) for e in itertools.combinations(held, k)):
                s = tuple(sorted(t + extra))
                if s not in best or r2 < best[s]:
                    best[s] = r2
    return FilteredComplex({s: _sqrt(v / scale**2) for s, v in best.items()})


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
