"""Shared helpers: independent reference constructions used across tests.

Everything here is deliberately built from definitions, not from the
library's fast paths, so the tests compare two independent routes.
"""

import itertools
import math

import numpy as np
import pytest

from coupledalpha import PointCloudPair, coupled_alpha_infty, coupled_filtration, relaxed_value
from coupledalpha.geometry import RANK_RCOND, RankDeficient
from coupledalpha.homology import Interval, PersistenceDiagram
from coupledalpha.reference import _circumsphere


def random_pair(rng, dim=2, max_x=6, max_y=6):
    """Uniform clouds in the unit cube with nonempty X and Y."""
    n_x = int(rng.integers(1, max_x + 1))
    n_y = int(rng.integers(1, max_y + 1))
    return PointCloudPair(rng.random((n_x, dim)), rng.random((n_y, dim)))


def lstsq_bisector(u, v, p):
    """Closest point to ``p`` equidistant from ``u[i]`` and ``v[i]`` for every row i, by lstsq.

    One system at a time, with lstsq's rank rule at ``RANK_RCOND``: the
    reference for the stacked LU/QR solves of ``_bisector_points``.
    ``u`` may be a single row shared by all; there are at most d rows.
    Raises RankDeficient on dependent rows.
    """
    a = v - u
    r = 0.5 * np.einsum("ij,ij->i", a, (v - p) + (u - p))
    sol, _, rank, _ = np.linalg.lstsq(a, r, rcond=RANK_RCOND)
    if rank < min(a.shape):
        raise RankDeficient(f"bisector rows are dependent (rank {rank} < {min(a.shape)})")
    return p + sol


def enclosing_radius(pts):
    """Smallest enclosing ball radius in floats: the least lstsq circumsphere of a subset that holds all.

    The optimal ball is determined by at most d+1 points on its boundary.
    """
    best = 0.0 if len(pts) == 1 else math.inf
    for size in range(2, min(len(pts), pts.shape[1] + 1) + 1):
        for combo in itertools.combinations(range(len(pts)), size):
            ball = _circumsphere(pts[list(combo)])
            if ball is not None and np.linalg.norm(pts - ball.center, axis=1).max() <= ball.radius * (1 + 1e-9):
                best = min(best, ball.radius)
    return best


def golden_min(fun, lo, hi, tol=1e-9):
    """Golden-section minimum of a unimodal function on [lo, hi]."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a = hi - invphi * (hi - lo)
    b = lo + invphi * (hi - lo)
    fa, fb = fun(a), fun(b)
    while hi - lo > tol:
        if fa < fb:
            hi, b, fb = b, a, fa
            a = hi - invphi * (hi - lo)
            fa = fun(a)
        else:
            lo, a, fa = a, b, fb
            b = lo + invphi * (hi - lo)
            fb = fun(b)
    return fun(0.5 * (lo + hi))


def minimize_relaxed(q_x, q_y, tol=1e-9):
    """Relaxed smallest-radius value by constrained golden-section search.

    Parameterizes the set of centers equidistant within each cloud part
    directly from the bisector equations, then minimizes the larger of
    the two representative distances by golden-section search nested over
    the free directions. The objective is convex, so every level of the
    nest is unimodal. A plain grid stalls here: near symmetric inputs the
    descent cone of the max gets arbitrarily narrow.
    """
    q_x = np.asarray(q_x, dtype=float)
    q_y = np.asarray(q_y, dtype=float)
    dim = q_x.shape[1] if q_x.size else q_y.shape[1]
    reps = [p[0] for p in (q_x, q_y) if p.shape[0]]
    rows = [p[1:] - p[0] for p in (q_x, q_y) if p.shape[0] > 1]
    if rows:
        a = np.vstack(rows)
        b = np.concatenate(
            [
                0.5 * (np.einsum("ij,ij->i", p[1:], p[1:]) - p[0] @ p[0])
                for p in (q_x, q_y)
                if p.shape[0] > 1
            ]
        )
        anchor, *_ = np.linalg.lstsq(a, b, rcond=None)
        assert np.allclose(a @ anchor, b, atol=1e-9), "no equidistant center"
        _, s, vt = np.linalg.svd(a)
        rank = int((s > 1e-12 * max(a.shape) * (s[0] if s.size else 1.0)).sum())
        basis = vt[rank:].T
    else:
        anchor = np.zeros(dim)
        basis = np.eye(dim)

    def value(params):
        center = anchor + basis @ params
        return max(float(np.linalg.norm(center - rep)) for rep in reps)

    k = basis.shape[1]
    if k == 0:
        return value(np.zeros(0))
    allpts = np.vstack([p for p in (q_x, q_y) if p.size])
    half = float(max(np.linalg.norm(allpts - anchor, axis=1).max(), 1.0)) * 4.0

    def level(prefix):
        if len(prefix) == k:
            return value(np.array(prefix))
        return golden_min(lambda t: level(prefix + [t]), -half, half, tol)

    return level([])


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def reference_walk(cplx):
    """Filtration values and Gabriel outcomes by a plain per-simplex walk.

    The scalar form of the top-down walk: one ``relaxed_value`` call per
    simplex, each coface pushing its value and extra vertex onto its
    facets in a dict. Returns ``(values, gabriel)``, both keyed by simplex;
    ``gabriel`` holds the outcome of the coupled Gabriel test for every
    simplex of dimension at least one.
    """
    pair = cplx.pair
    values, gabriel, pending = {}, {}, {}
    for k in range(cplx.dimension, -1, -1):
        for simplex in cplx.by_dim(k):
            if k == 0:
                values[simplex] = 0.0
                continue
            sol = relaxed_value(*split_coords(pair, simplex))
            min_coface, extras = pending.pop(simplex, [np.inf, []])
            passed = True
            for v in extras:
                radius = sol.radius_x if v < pair.n_x else sol.radius_y
                dist = float(np.linalg.norm(pair.points[v] - sol.center))
                passed &= not dist < radius
            gabriel[simplex] = passed
            value = min(sol.relaxed_radius, min_coface) if passed else min_coface
            values[simplex] = value
            for drop in range(k + 1):
                facet = simplex[:drop] + simplex[drop + 1 :]
                entry = pending.setdefault(facet, [np.inf, []])
                entry[0] = min(entry[0], value)
                entry[1].append(simplex[drop])
    return values, gabriel


def alpha_infty(points):
    """The alpha complex of a single cloud: the pair with an empty second cloud."""
    return coupled_alpha_infty(PointCloudPair(points, None))


def alpha_filtration(points):
    """Alpha filtration of a single cloud, the one-cloud case of the coupled one."""
    return coupled_filtration(alpha_infty(points))


def side(pair, index):
    """'x' or 'y' depending on which cloud a global index names."""
    if not 0 <= index < pair.n_total:
        raise IndexError(f"vertex index {index} out of range")
    return "x" if index < pair.n_x else "y"


def split_coords(pair, simplex):
    """Coordinates of a simplex's X vertices and of its Y vertices."""
    qx = [i for i in simplex if i < pair.n_x]
    qy = [i for i in simplex if i >= pair.n_x]
    return pair.points[qx], pair.points[qy]


def max_value(fc):
    return max(fc.values.values(), default=0.0)


def at_radius(fc, radius):
    """Simplices present at the given radius."""
    return [s for s, v in fc.values.items() if v <= radius]


def check_monotone(fc, tol=0.0):
    """True iff every simplex's value is >= each of its facets' values."""
    values = fc.values
    for simplex, value in values.items():
        if len(simplex) == 1:
            continue
        for drop in range(len(simplex)):
            facet = simplex[:drop] + simplex[drop + 1 :]
            if values[facet] > value + tol:
                return False
    return True


def betti_at(dgm, radius, dim):
    """Rank of homology in the given dimension at the given radius."""
    return sum(
        1 for iv in dgm.all_intervals if iv.dim == dim and iv.birth <= radius < iv.death
    )


def reference_order(fc):
    """Simplices in filtration order: sorted by (value, dimension, vertex tuple)."""
    return [s for s, _ in sorted(fc.values.items(), key=lambda kv: (kv[1], len(kv[0]), kv[0]))]


def reference_pairs(fc):
    """Plain left-to-right GF(2) reduction over all simplices at once.

    Columns are Python-int bitmasks over global filtration positions, and
    each column is reduced by the earlier column with the same lowest
    entry, with no clearing and no union-find. Returns the ordered
    simplices and the (birth, death) position pairs.
    """
    simplices = reference_order(fc)
    position = {s: i for i, s in enumerate(simplices)}
    pivot, pairs = {}, []
    for j, simplex in enumerate(simplices):
        col = 0
        if len(simplex) > 1:
            for drop in range(len(simplex)):
                col |= 1 << position[simplex[:drop] + simplex[drop + 1 :]]
        while col:
            low = col.bit_length() - 1
            if low not in pivot:
                pivot[low] = col
                pairs.append((low, j))
                break
            col ^= pivot[low]
    return simplices, pairs


def reference_diagram(fc):
    """Persistence diagram of ``fc`` by the plain reduction of ``reference_pairs``."""
    simplices, pairs = reference_pairs(fc)
    values = fc.values
    paired = {i for pair in pairs for i in pair}
    intervals = [
        Interval(len(simplices[i]) - 1, values[simplices[i]], values[simplices[j]])
        for i, j in pairs
    ]
    intervals += [
        Interval(len(s) - 1, values[s], math.inf)
        for i, s in enumerate(simplices)
        if i not in paired
    ]
    return PersistenceDiagram(intervals)
