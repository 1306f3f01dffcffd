"""Low-dimensional metric primitives.

Circumspheres, smallest enclosing balls, bisector (equidistance) systems,
and the coupled general-position check. Everything works on plain float64
numpy arrays: a point is a row of shape ``(d,)``, a point set an array of
shape ``(n, d)``.

There is no exact arithmetic. Predicates share one absolute/relative
tolerance, the constant ``EPS``, which every layer reads from here and no
caller sets; rank decisions use the tighter ``RANK_RCOND`` cutoff.
There are two bisector solves, of square or wide systems only. The fast
paths use ``_certified_solve``, the one place that decides rank: stacked
LU or QR solves whose condition-number certificate decides which
solutions stand, the rest paying for the SVD of the rank decision. The
relaxed centers reach it through ``_bisector_points``; the triangulation
hands it square systems only, so no QR runs per insertion. The
brute-force routes (``_circumsphere``, and through it the enclosing
balls, the general-position check and the brute-force Delaunay) solve
one system at a time by lstsq, independent of the fast paths.
Inputs closer than the tolerance to a degenerate configuration are
rejected with an error rather than silently perturbed -- ``jitter`` is
the explicit way out for callers that want perturbation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

# Tolerance for geometric predicates (inside / on-boundary decisions).
EPS = 1e-9
# Relative singular-value cutoff for rank decisions in least-squares solves.
RANK_RCOND = 1e-12
# Coordinate differences held at once by the blocked pairwise-distance scans (2 MiB).
_BLOCK_FLOATS = 1 << 18


class GeometryError(ValueError):
    """Base class for geometric failures in this package."""


class DegenerateInput(GeometryError):
    """Input points are affinely dependent or otherwise singular."""


class RankDeficient(GeometryError):
    """A bisector system lost rank; ``system`` indexes the first dependent one in its stack."""

    def __init__(self, message: str, system: int = 0):
        super().__init__(message)
        self.system = system


class GeneralPositionError(GeometryError):
    """A point-cloud pair violates coupled general position."""

    def __init__(self, violations: list["Violation"]):
        self.violations = violations
        preview = ", ".join(str(v) for v in violations[:3])
        more = "" if len(violations) <= 3 else f" (+{len(violations) - 3} more)"
        super().__init__(f"general position violated: {preview}{more}")


@dataclass(frozen=True, eq=False)
class Sphere:
    """A sphere given by center and radius."""

    center: np.ndarray
    radius: float


@dataclass(frozen=True)
class Violation:
    """One general-position violation, with global vertex indices."""

    kind: str
    indices: tuple[int, ...]

    def __str__(self) -> str:
        return f"{self.kind}{self.indices}"


def as_point_array(points, dim: int | None = None) -> np.ndarray:
    """Validate and convert to a float64 array of shape (n, d)."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1 and pts.size == 0:
        pts = pts.reshape(0, dim if dim is not None else 0)
    if pts.ndim != 2:
        raise ValueError(f"expected a 2-d point array, got shape {pts.shape}")
    if dim is not None and pts.shape[1] != dim:
        raise ValueError(f"expected points of dimension {dim}, got {pts.shape[1]}")
    if pts.size and not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    return pts


def _bisector_points(u: np.ndarray, v: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Closest point to ``p[i]`` equidistant from ``u[i, j]`` and ``v[i, j]`` for every j.

    This is the bisector-flat solve of the relaxed centers. ``u`` and
    ``v`` have shape (g, m, d) with m <= d (``u`` may be (g, 1, d)); ``p``
    is (g, d), or (t, g, d) for t anchor points that share the bisector
    rows and so one factorization. Flat i is {c : a (c - p) = r} with
    ``a = v - u`` and r the residual at ``p``, taken from differences to
    ``p`` so that nothing cancels when the points are far from the origin;
    the closest point is ``p`` plus the minimum-norm solution from
    ``_certified_solve``, which raises RankDeficient if a system lost rank.
    """
    a = v - u
    if a.shape[-2] == 0:
        return np.array(p, dtype=float)
    anchor = p[..., None, :]
    r = 0.5 * np.einsum("...ij,...ij->...i", a, (v - anchor) + (u - anchor))
    return p + _certified_solve(a, r)[0]


def _certified_solve(a: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-norm solutions of ``a[i] x = r[..., i, :]`` (m <= d), and which are certified.

    A square block is inverted by LU; a wide one (m < d) gives ``Q R^-T r``
    from ``a^T = Q R``, R inverted by LU. System i is certified when
    ``||R||_F ||R^-1||_F < 1e-2 / RANK_RCOND`` (R = a for a square block):
    that bounds the 2-norm condition number, so the SVD would find every
    singular value above its cutoff with 100x to spare, the margin covering
    the round-off of the factorization. Nothing is certified when LU meets
    an exact zero pivot. The uncertified systems are solved by
    ``_svd_solve``, whose RankDeficient then carries the index into ``a``
    of the first dependent system. Leading axes of ``r`` stack right-hand
    sides on one factorization: the triangulation's cell store solves each
    square system for its bisector residuals and for the last unit vector,
    whose solution is the last column of the inverse.
    """
    square = a.shape[-2] == a.shape[-1]
    q, base = (None, a) if square else np.linalg.qr(np.swapaxes(a, -1, -2))
    try:
        inv = np.linalg.inv(base)
    except np.linalg.LinAlgError:
        sol, certified = np.empty(r.shape[:-1] + a.shape[-1:]), np.zeros(len(a), dtype=bool)
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            # Squared Frobenius norms; an overflow or nan leaves the row uncertified.
            cond2 = np.einsum("gij,gij->g", base, base) * np.einsum("gij,gij->g", inv, inv)
            if square:
                sol = np.einsum("gij,...gj->...gi", inv, r)
            else:
                sol = np.einsum("gij,...gj->...gi", q, np.einsum("gji,...gj->...gi", inv, r))
        certified = cond2 < (1e-2 / RANK_RCOND) ** 2
    if not certified.all():
        doubtful = np.flatnonzero(~certified)
        try:
            sol[..., doubtful, :] = _svd_solve(a[doubtful], r[..., doubtful, :])
        except RankDeficient as exc:
            exc.system = int(doubtful[exc.system])
            raise
    return sol, certified


def _svd_solve(a: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Minimum-norm solutions by SVD; RankDeficient if a system fails lstsq's rank rule."""
    left, s, right = np.linalg.svd(a, full_matrices=False)
    # The system is full-rank when every singular value survives the cutoff;
    # then the minimum-norm solution uses all of them.
    dependent = s <= RANK_RCOND * s[:, :1]
    if dependent.any():
        rank = int((~dependent).sum(axis=1).min())
        raise RankDeficient(
            f"bisector rows are dependent (rank {rank} < {s.shape[1]})",
            int(dependent.any(axis=1).argmax()),
        )
    return np.einsum("gqj,...gq->...gj", right, np.einsum("giq,...gi->...gq", left, r) / s)


def _circumsphere(points: np.ndarray) -> Sphere | None:
    """Smallest sphere through all of ``points`` (at most d+1 in R^d), or None if none.

    The center is the circumcenter inside the affine hull of the points:
    ``pts[0]`` plus the minimum-norm solution of the bisector rows
    ``a = pts[1:] - pts[0]``, solved by lstsq. This is the brute-force
    solve, kept apart from the LU/QR solves of ``_certified_solve``.
    Returns None when the rows are dependent (the points are affinely
    dependent).
    """
    pts = np.asarray(points, dtype=float)
    a = pts[1:] - pts[0]
    r = 0.5 * np.einsum("ij,ij->i", a, a)
    sol, _, rank, _ = np.linalg.lstsq(a, r, rcond=RANK_RCOND)
    if rank < min(a.shape):
        return None
    center = pts[0] + sol
    return Sphere(center, float(np.linalg.norm(center - pts[0])))


def min_enclosing_ball(points) -> Sphere:
    """Smallest ball containing all points (Welzl's algorithm).

    Deterministic: the internal randomized order is drawn from a fixed
    seed, so repeated calls return bit-identical results.
    """
    pts = as_point_array(points)
    n, d = pts.shape
    if n == 0:
        raise ValueError("need at least one point")
    order = list(np.random.default_rng(9221).permutation(n))

    def ball_on_boundary(boundary: list[int]) -> Sphere | None:
        if not boundary:
            return None
        if len(boundary) == 1:
            return Sphere(pts[boundary[0]].copy(), 0.0)
        sphere = _circumsphere(pts[boundary])
        if sphere is not None:
            return sphere
        # Degenerate support set (affinely dependent boundary): fall back to
        # the smallest ball through a proper subset that still covers it.
        best = None
        for k in range(1, len(boundary)):
            for sub in itertools.combinations(boundary, k):
                cand = ball_on_boundary(list(sub))
                if cand is None:
                    continue
                if all(contains(cand, i) for i in boundary):
                    if best is None or cand.radius < best.radius:
                        best = cand
        return best

    def contains(sphere: Sphere, idx: int) -> bool:
        slack = 1e-10 * (1.0 + sphere.radius)
        return float(np.linalg.norm(pts[idx] - sphere.center)) <= sphere.radius + slack

    def welzl(head: int, boundary: list[int]) -> Sphere | None:
        # head = number of points of `order` still under consideration.
        if head == 0 or len(boundary) == d + 1:
            return ball_on_boundary(boundary)
        p = order[head - 1]
        ball = welzl(head - 1, boundary)
        if ball is not None and contains(ball, p):
            return ball
        return welzl(head - 1, boundary + [p])

    ball = welzl(n, [])
    if ball is None:  # pragma: no cover - n >= 1 always yields a ball
        raise DegenerateInput("failed to compute enclosing ball")
    return ball


def lift_clouds(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Embed X at height 0 and Y at height 1 in one extra dimension."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    lifted = np.zeros((x.shape[0] + y.shape[0], x.shape[1] + 1))
    lifted[: x.shape[0], :-1] = x
    lifted[x.shape[0] :, :-1] = y
    lifted[x.shape[0] :, -1] = 1.0
    return lifted


def _sphere_violations(
    pts: np.ndarray,
    subset: tuple[int, ...],
    kind: str,
    index_map,
    out: list[Violation],
) -> None:
    """Append a violation for every point within EPS of the subset's circumsphere."""
    sphere = _circumsphere(pts[list(subset)])
    if sphere is None:
        return
    dist = np.linalg.norm(pts - sphere.center, axis=1)
    tol = EPS * (1.0 + sphere.radius)
    near = np.nonzero(np.abs(dist - sphere.radius) <= tol)[0]
    members = set(subset)
    for idx in near:
        if int(idx) not in members:
            out.append(
                Violation(kind, tuple(index_map(i) for i in subset) + (index_map(int(idx)),))
            )


def check_coupled_general_position(x, y) -> tuple[bool, list[Violation]]:
    """Check coupled general position for a pair of clouds in R^d.

    Each cloud on its own must be in general position: no d+1 points on a
    common (d-1)-flat, and no further point of the same cloud on the
    circumsphere of any d+1 of them. On top of that, for every mixed
    (d+2)-subset of the lifted clouds (X at height 0, Y at height 1) that
    spans a circumsphere, no other lifted point may lie on that sphere.

    Returns (ok, violations); violations carry global vertex indices,
    X first and then Y.

    Exhaustive over subsets, so intended for small inputs. At scale the
    triangulation itself reports ambiguities for the subsets that matter.
    """
    x = as_point_array(x)
    y = as_point_array(y, dim=x.shape[1] if x.size else None)
    if x.shape[0] and y.shape[0] and x.shape[1] != y.shape[1]:
        raise ValueError("clouds must share the ambient dimension")
    d = x.shape[1] if x.shape[0] else y.shape[1]
    if x.shape[0] == 0:
        x = x.reshape(0, d)
    if y.shape[0] == 0:
        y = y.reshape(0, d)
    violations: list[Violation] = []

    for offset, cloud in ((0, x), (x.shape[0], y)):
        n = cloud.shape[0]
        if n >= 2:
            diff = cloud[:, None, :] - cloud[None, :, :]
            dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
            for i, j in zip(*np.nonzero(np.triu(dist <= EPS, k=1))):
                violations.append(Violation("duplicate", (offset + int(i), offset + int(j))))
        if n >= d + 1:
            for subset in itertools.combinations(range(n), d + 1):
                sub = cloud[list(subset)]
                if _hull_coordinates(sub)[1] < d:
                    violations.append(
                        Violation("flat", tuple(offset + i for i in subset))
                    )
                    continue
                _sphere_violations(
                    cloud, subset, "cocircular", lambda i, o=offset: o + i, violations
                )

    lifted = lift_clouds(x, y)
    n_x, n_y = x.shape[0], y.shape[0]
    for size_x in range(1, d + 2):
        size_y = d + 2 - size_x
        if size_x > n_x or size_y < 1 or size_y > n_y:
            continue
        for cx in itertools.combinations(range(n_x), size_x):
            for cy in itertools.combinations(range(n_x, n_x + n_y), size_y):
                _sphere_violations(
                    lifted, cx + cy, "lifted_cocircular", lambda i: i, violations
                )

    return (not violations, violations)


def _hull_coordinates(pts: np.ndarray) -> tuple[np.ndarray, int]:
    """Isometric coordinates of the points inside their affine hull, and its dimension."""
    if pts.shape[0] == 0:
        return pts.copy(), 0
    centered = pts - pts.mean(axis=0)
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((pts.shape[0], 0)), 0
    scale = max(float(s[0]), float(np.abs(pts).max()))  # centring round-off grows with max|x|
    rank = int((s > RANK_RCOND * max(pts.shape) * scale).sum())
    return centered @ vt[:rank].T, rank


def _sq_distance_blocks(pts: np.ndarray):
    """Squared distances from blocks of rows of ``pts`` to all rows, as (start, block).

    Each block holds at most about ``_BLOCK_FLOATS`` coordinate differences
    (at least one row), so a full scan takes O(n) memory beyond its output.
    """
    n, d = pts.shape
    step = max(1, _BLOCK_FLOATS // max(n * d, 1))
    for start in range(0, n, step):
        diff = pts[start : start + step, None, :] - pts[None, :, :]
        yield start, np.einsum("ijk,ijk->ij", diff, diff)


def diameter(points) -> float:
    """Largest pairwise distance (0 for fewer than two points)."""
    pts = as_point_array(points)
    if pts.shape[0] < 2:
        return 0.0
    return float(np.sqrt(max(block.max() for _, block in _sq_distance_blocks(pts))))


def jitter(points, magnitude: float | None = None, seed: int | None = None) -> np.ndarray:
    """Return a copy of the points with uniform noise added per coordinate.

    Default magnitude is 1e-6 times the bounding-box diagonal, a cheap
    stand-in for the diameter. Meant for callers that hit degeneracy
    errors and explicitly want general position restored.
    """
    pts = as_point_array(points).copy()
    if pts.shape[0] == 0:
        return pts
    if magnitude is None:
        box = pts.max(axis=0) - pts.min(axis=0)
        magnitude = 1e-6 * float(np.linalg.norm(box))
        if magnitude == 0.0:
            magnitude = 1e-6
    rng = np.random.default_rng(seed)
    return pts + rng.uniform(-magnitude, magnitude, size=pts.shape)
