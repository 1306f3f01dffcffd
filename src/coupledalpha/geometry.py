"""Low-dimensional metric primitives of the fast paths.

Bisector (equidistance) systems, lifting, affine-hull coordinates and
jitter. Everything works on plain float64 numpy arrays: a point is a row
of shape ``(d,)``, a point set an array of shape ``(n, d)``.

There is no exact arithmetic. The fast paths' predicates share one
absolute/relative tolerance, the constant ``EPS``, which they read from
here and no caller sets; rank decisions use the tighter ``RANK_RCOND``
cutoff. ``_certified_solve`` is the one bisector solve, of square or wide
systems only, and the one place that decides rank: stacked LU or QR
solves whose condition-number certificate decides which solutions stand,
the rest paying for the SVD of the rank decision. The relaxed centers
reach it through ``_bisector_points``; the triangulation hands it square
systems only, so no QR runs per insertion. The references the fast paths
are checked against live in ``reference``, with their own tolerance.
Inputs closer than the tolerance to a degenerate configuration are
rejected with an error rather than silently perturbed -- ``jitter`` is
the explicit way out for callers that want perturbation.
"""

from __future__ import annotations

import numpy as np

# Tolerance for geometric predicates (inside / on-boundary decisions).
EPS = 1e-9
# Relative singular-value cutoff for rank decisions in least-squares solves.
RANK_RCOND = 1e-12


class GeometryError(ValueError):
    """Base class for geometric failures in this package."""


class DegenerateInput(GeometryError):
    """Input points are affinely dependent or otherwise singular."""


class RankDeficient(GeometryError):
    """A bisector system lost rank; ``system`` indexes the first dependent one in its stack."""

    def __init__(self, message: str, system: int = 0):
        super().__init__(message)
        self.system = system


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


def lift_clouds(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Embed X at height 0 and Y at height 1 in one extra dimension."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    lifted = np.zeros((x.shape[0] + y.shape[0], x.shape[1] + 1))
    lifted[: x.shape[0], :-1] = x
    lifted[x.shape[0] :, :-1] = y
    lifted[x.shape[0] :, -1] = 1.0
    return lifted


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


def jitter(points, magnitude: float | None = None, seed: int | None = None) -> np.ndarray:
    """Return a copy of the points with uniform noise added per coordinate.

    Default magnitude is 1e-6 times the bounding-box diagonal, a cheap
    stand-in for the diameter. Meant for callers that hit degeneracy
    errors and explicitly want general position restored.
    """
    if magnitude is not None and not 0.0 <= magnitude < np.inf:
        raise ValueError(f"jitter magnitude must be finite and non-negative, got {magnitude}")
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
