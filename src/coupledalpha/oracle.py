"""Definition-level reference implementations used for certification.

Nothing here shares code with the fast paths: membership and filtration
values are decided straight from the definition (a common point of the
restricted Voronoi balls), and the enclosing balls and the diameter come
from ``reference``, so these routines serve as independent oracles in the
test suite and the ``compare`` command.

* ``feasibility``: is there a point lying in the Voronoi cell of every
  simplex vertex (within its own cloud) and within radius r of each?
  Sharing a cell with a same-cloud sibling pins the point to a bisector,
  so those equalities are eliminated exactly first; the remaining
  inequalities are decided by cyclic alternating projections inside the
  reduced subspace, where the feasible set has interior whenever it is
  nonempty. Every constraint (half-space or ball) has a closed-form
  projection and convexity guarantees convergence. Feasible runs stop at
  a point satisfying everything within tolerance; infeasible runs are
  detected by the sweep map reaching its limit cycle while constraints
  stay violated. Exhausting the iteration cap without any verdict raises
  ``IterationLimit``, which is distinct from a clean infeasible answer.
* ``value_by_bisection``: bisect the radius between 0 and an upper bound
  (the cloud diameter by default) down to the fixed width ``_WIDTH``.
* ``cech_filtration``: the Cech filtration of a small cloud, one minimum
  enclosing ball per subset of at most d+2 points.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .complexes import PointCloudPair, Simplex, coupled_alpha_infty
from .filtration import FilteredComplex, coupled_filtration
from .geometry import as_point_array
from .homology import diagram_discrepancy, persistence_diagram
from .reference import diameter, min_enclosing_ball

diagram_tolerance_default = 1e-6


class IterationLimit(RuntimeError):
    """Alternating projections hit the iteration cap without a verdict."""


class NotInComplex(ValueError):
    """The simplex is infeasible even at the upper bisection bound."""


class TooLarge(ValueError):
    """Input exceeds the size cap of a brute-force oracle."""


_TOL = 1e-10
_MAX_SWEEPS = 100_000
_CECH_CAP = 16
_RELAX = 1.9
_BLOCK = 24
_WINDOW = 16
_WIDTH = 1e-8  # bracket width at which value_by_bisection stops


def _reduced_constraints(simplex, pair, radius, feas_tol):
    """Eliminate the equidistance equalities of a feasibility query.

    A point shared by the cells of several same-cloud vertices is
    equidistant to them, so the query restricts to an affine subspace
    c = anchor + basis @ s. Returns (anchor, basis, planes, balls) with
    the inequality constraints rewritten in s coordinates, or None when
    the equalities alone are contradictory or a ball misses the subspace.
    Plane rows are normalized so violations are in distance units.
    """
    pts = pair.points
    d = pair.dim
    qx, qy = pair.split(simplex)
    rows = []
    rhs = []
    for group in (qx, qy):
        base = pts[group[0]] if group else None
        for v in group[1:]:
            rows.append(pts[v] - base)
            rhs.append(0.5 * (float(pts[v] @ pts[v]) - float(base @ base)))
    if rows:
        a_eq = np.array(rows)
        b_eq = np.array(rhs)
        anchor, *_ = np.linalg.lstsq(a_eq, b_eq, rcond=None)
        if float(np.linalg.norm(a_eq @ anchor - b_eq)) > feas_tol * max(
            1.0, float(np.abs(a_eq).max())
        ):
            return None  # no point is equidistant within the groups
        _, sing, vt = np.linalg.svd(a_eq)
        cutoff = max(a_eq.shape) * np.finfo(float).eps * (sing[0] if sing.size else 0.0)
        rank = int((sing > cutoff).sum())
        basis = vt[rank:].T
    else:
        anchor = np.zeros(d)
        basis = np.eye(d)

    planes = []
    for v in simplex:
        own = pts[v]
        lo, hi = (0, pair.n_x) if v < pair.n_x else (pair.n_x, pair.n_total)
        for j in range(lo, hi):
            if j == v:
                continue
            other = pts[j]
            a = other - own
            b = 0.5 * (float(other @ other) - float(own @ own))
            a_s = basis.T @ a
            b_s = b - float(a @ anchor)
            norm = float(np.linalg.norm(a_s))
            if norm <= 1e-12 * max(1.0, float(np.linalg.norm(a))):
                # Constraint parallel to the subspace: constant verdict.
                if b_s < -feas_tol * max(float(np.linalg.norm(a)), 1e-30):
                    return None
                continue
            planes.append((tuple(a_s / norm), b_s / norm))

    balls = []
    if math.isfinite(radius):
        for v in simplex:
            w = pts[v] - anchor
            center_s = basis.T @ w
            perp_sq = float(w @ w) - float(center_s @ center_s)
            reduced_sq = radius * radius - perp_sq
            if reduced_sq < -feas_tol * max(1.0, radius):
                return None  # the subspace stays farther than r from this vertex
            balls.append((tuple(center_s), math.sqrt(max(reduced_sq, 0.0))))
    return anchor, basis, planes, balls


def _worst_violation(c, planes, balls, rng) -> float:
    worst = 0.0
    for a, b in planes:
        gap = sum(a[i] * c[i] for i in rng) - b
        if gap > worst:
            worst = gap
    for ctr, radius in balls:
        gap = math.sqrt(sum((c[i] - ctr[i]) ** 2 for i in rng)) - radius
        if gap > worst:
            worst = gap
    return worst


def feasibility_witness(
    simplex: Simplex, pair: PointCloudPair, radius: float = math.inf
) -> tuple[bool, np.ndarray | None]:
    """Like ``feasibility`` but also returns the feasible point found.

    After the exact equality elimination, the subspace problem is solved
    by cyclic over-relaxed projections in blocks, with one extrapolation
    step between blocks that jumps along the dominant geometric crawl
    (accepted only when it does not worsen the violation, so it cannot
    break convergence). A feasible verdict is always certified by an
    explicit point; an infeasible verdict requires a full window of pure
    sweeps that moved the iterate by at most the tolerance while some
    constraint stayed violated a hundredfold beyond it.
    """
    simplex = tuple(simplex)
    if not simplex:
        raise ValueError("empty simplex")
    if radius < 0:
        return False, None
    scale = 1.0 + float(np.abs(pair.points).max(initial=0.0))
    if math.isfinite(radius):
        scale += radius
    feas_tol = _TOL * scale

    reduced = _reduced_constraints(simplex, pair, radius, feas_tol)
    if reduced is None:
        return False, None
    anchor, basis, planes, balls = reduced
    m = basis.shape[1]
    rng = range(m)

    c = [0.0] * m  # the anchor, the least-norm equidistant point
    if m == 0 or (not planes and not balls):
        if _worst_violation(c, planes, balls, rng) <= feas_tol:
            return True, anchor + basis @ np.array(c)
        return False, None

    sweeps = 0
    while sweeps < _MAX_SWEEPS:
        history = [c[:]]
        for _ in range(_BLOCK):
            worst = 0.0
            for a, b in planes:
                gap = sum(a[i] * c[i] for i in rng) - b
                if gap > 0.0:
                    if gap > worst:
                        worst = gap
                    for i in rng:
                        c[i] -= _RELAX * gap * a[i]
            for ctr, rad in balls:
                dist = math.sqrt(sum((c[i] - ctr[i]) ** 2 for i in rng))
                gap = dist - rad
                if gap > 0.0:
                    if gap > worst:
                        worst = gap
                    pull = _RELAX * gap / dist if dist > 0.0 else 0.0
                    for i in rng:
                        c[i] -= pull * (c[i] - ctr[i])
            sweeps += 1
            if worst <= 10.0 * feas_tol:
                if _worst_violation(c, planes, balls, rng) <= feas_tol:
                    return True, anchor + basis @ np.array(c)
            history.append(c[:])
            if len(history) > _WINDOW:
                moved = math.sqrt(
                    sum((c[i] - history[-_WINDOW - 1][i]) ** 2 for i in rng)
                )
                if moved <= feas_tol and worst > 100.0 * feas_tol:
                    return False, None
        if len(history) >= 3:
            last, mid, first = history[-1], history[-2], history[-3]
            step_old = [mid[i] - first[i] for i in rng]
            step_new = [last[i] - mid[i] for i in rng]
            den = sum(t * t for t in step_old)
            if den > 0.0:
                rho = sum(step_new[i] * step_old[i] for i in rng) / den
                if 0.0 < rho < 1.0:
                    cand = [last[i] + step_new[i] * rho / (1.0 - rho) for i in rng]
                    if _worst_violation(cand, planes, balls, rng) <= _worst_violation(
                        last, planes, balls, rng
                    ):
                        c = cand
    raise IterationLimit(
        f"no verdict for {simplex} at radius {radius} after {_MAX_SWEEPS} sweeps"
    )


def feasibility(simplex: Simplex, pair: PointCloudPair, radius: float = math.inf) -> bool:
    """Do the restricted Voronoi balls of the simplex share a point at r?"""
    ok, _ = feasibility_witness(simplex, pair, radius)
    return ok


def value_by_bisection(
    simplex: Simplex, pair: PointCloudPair, radius_max: float | None = None
) -> float:
    """Filtration value of a simplex by bisecting the feasibility radius.

    The default bracket top is the diameter of the union; pass
    ``radius_max`` for simplices whose value exceeds it (sliver cells
    can). Raises ``NotInComplex`` when infeasible at the bracket top.
    Probes that hit the iteration cap count as infeasible, which can only
    nudge the answer upward by less than the bracket width. Bisection also
    stops when no float lies strictly between the bracket ends.
    """
    simplex = tuple(simplex)
    hi = radius_max if radius_max is not None else max(diameter(pair.points), 1.0)
    if not feasibility(simplex, pair, hi):
        raise NotInComplex(f"{simplex} infeasible at radius {hi}")
    lo = 0.0
    while hi - lo > _WIDTH:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        try:
            mid_ok = feasibility(simplex, pair, mid)
        except IterationLimit:
            mid_ok = False
        if mid_ok:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


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
