"""Low-dimensional metric primitives of the fast paths.

Bisector (equidistance) systems, lifting and jitter. Everything works on
plain float64 numpy arrays: a point is a row of shape ``(d,)``, a point
set an array of shape ``(n, d)``.

There is no exact arithmetic. The fast paths' predicates share one
absolute/relative tolerance, the constant ``EPS``, which they read from
here and no caller sets; rank decisions use the tighter ``RANK_RCOND``
cutoff. ``_certified_inverse`` is the one bisector solver, of square or
wide systems only, and decides the rank of bisector systems (the input's
own affine rank is decided by the seed simplex of ``delaunay._prepare``):
stacked LU or QR inverses whose condition-number certificate decides
which stand, the rest computed by lstsq one system at a time. The relaxed
centers reach it through ``_bisector_points``; the triangulation hands it
square systems only, so no QR runs per insertion. The references the fast
paths are checked against live in ``reference``, with their own tolerance.
Inputs closer than the tolerance to a degenerate configuration are
rejected with an error rather than silently perturbed -- ``jitter``, with
a magnitude and a seed the caller chooses, is the explicit way out for
callers that want perturbation.
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


def as_point_array(points) -> np.ndarray:
    """Validate and convert to a float64 array of shape (n, d); ``[]`` gives shape (0, 0)."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1 and pts.size == 0:
        pts = pts.reshape(0, 0)
    if pts.ndim != 2:
        raise ValueError(f"expected a 2-d point array, got shape {pts.shape}")
    if pts.size and not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    return pts


def _bisector_points(u: np.ndarray, v: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Closest point to ``p[i]`` equidistant from ``u[i, j]`` and ``v[i, j]`` for every j.

    This is the bisector-flat solve of the relaxed centers. ``u`` and
    ``v`` have shape (g, m, d) with m <= d (``u`` may be (g, 1, d)); ``p``
    is (g, d), or (t, g, d) for t anchor points that share the bisector
    rows and so one inverse. Flat i is {c : a (c - p) = r} with
    ``a = v - u`` and r the residual at ``p``, taken from differences to
    ``p`` so that nothing cancels when the points are far from the origin;
    the closest point is ``p`` plus the minimum-norm solution, r times
    ``_certified_inverse(a)``, which raises RankDeficient if a system lost
    rank.
    """
    a = v - u
    if a.shape[-2] == 0:
        return np.array(p, dtype=float)
    anchor = p[..., None, :]
    r = 0.5 * np.einsum("...ij,...ij->...i", a, (v - anchor) + (u - anchor))
    return p + np.einsum("gij,...gj->...gi", _certified_inverse(a), r)


def _certified_inverse(a: np.ndarray) -> np.ndarray:
    """Pseudo-inverses ``pinv``, (g, d, m), of the (g, m, d) stack ``a`` (m <= d).

    ``pinv[i] @ r`` is the minimum-norm solution of ``a[i] x = r``. A square
    block is inverted by LU; a wide one (m < d) gives ``Q R^-T`` from
    ``a^T = Q R``, R inverted by LU. System i is certified when
    ``||R||_F ||R^-1||_F < 1e-2 / RANK_RCOND`` (R = a for a square block):
    that bounds the 2-norm condition number, so the SVD would find every
    singular value above its cutoff with 100x to spare, the margin covering
    the round-off of the factorization. Nothing is certified when LU meets
    an exact zero pivot. Each uncertified system is inverted by lstsq with
    its rank rule at ``RANK_RCOND``; the first of them whose rank is below
    m raises RankDeficient with its index into ``a``.
    """
    g, m, d = a.shape
    square = m == d
    q, base = (None, a) if square else np.linalg.qr(np.swapaxes(a, -1, -2))
    try:
        inv = np.linalg.inv(base)
    except np.linalg.LinAlgError:
        pinv, certified = np.empty((g, d, m)), np.zeros(g, dtype=bool)
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            # Squared Frobenius norms; an overflow or nan leaves the row uncertified.
            cond2 = np.einsum("gij,gij->g", base, base) * np.einsum("gij,gij->g", inv, inv)
            pinv = inv if square else np.einsum("gik,gjk->gij", q, inv)
        certified = cond2 < (1e-2 / RANK_RCOND) ** 2
    for i in np.flatnonzero(~certified).tolist():
        pinv[i], _, rank, _ = np.linalg.lstsq(a[i], np.eye(m), rcond=RANK_RCOND)
        if rank < m:
            raise RankDeficient(f"bisector rows are dependent (rank {rank} < {m})", i)
    return pinv


def lift_clouds(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Embed X at height 0 and Y at height 1 in one extra dimension."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    lifted = np.zeros((x.shape[0] + y.shape[0], x.shape[1] + 1))
    lifted[: x.shape[0], :-1] = x
    lifted[x.shape[0] :, :-1] = y
    lifted[x.shape[0] :, -1] = 1.0
    return lifted


def jitter(points, magnitude: float, seed) -> np.ndarray:
    """Return a copy of the points with uniform noise in [-magnitude, magnitude] per coordinate.

    ``seed`` is anything ``numpy.random.default_rng`` accepts, so a run
    is reproducible. Meant for callers that hit degeneracy errors and
    explicitly want general position restored.
    """
    if not 0.0 <= magnitude < np.inf:
        raise ValueError(f"jitter magnitude must be finite and non-negative, got {magnitude}")
    pts = as_point_array(points)
    rng = np.random.default_rng(seed)
    return pts + rng.uniform(-magnitude, magnitude, size=pts.shape)
