"""Definition-level references the fast paths are certified against.

Circumspheres, smallest enclosing balls, the diameter, the coupled
general-position audit and the brute-force Delaunay triangulation. Each
decides straight from a definition, one lstsq system at a time, and this
module has its own tolerance ``TOL`` and rank cutoff ``RCOND``: a change
to the fast paths' ``geometry.EPS``, ``geometry.RANK_RCOND`` or solvers
leaves every reference where it was, so agreement between the two routes
stays evidence.

From the rest of the package it imports only ``as_point_array``,
``_hull_coordinates`` and ``lift_clouds`` from ``geometry``, the error
classes, and ``Triangulation`` and ``AmbiguousTriangulation`` from
``delaunay``; never a tolerance, ``delaunay._prepare`` or a solver.
No fast path imports from here; ``oracle`` builds on it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .delaunay import AmbiguousTriangulation, Triangulation
from .geometry import DegenerateInput, _hull_coordinates, as_point_array, lift_clouds

# Tolerance of the references' predicates (inside / on-sphere, coincidence).
TOL = 1e-9
# Relative singular-value cutoff of their lstsq solves.
RCOND = 1e-12


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


def _circumsphere(points: np.ndarray) -> Sphere | None:
    """Smallest sphere through all of ``points`` (at most d+1 in R^d), or None if none.

    The center is the circumcenter inside the affine hull of the points:
    ``pts[0]`` plus the minimum-norm solution of the bisector rows
    ``a = pts[1:] - pts[0]``, solved by lstsq. Returns None when the rows
    are dependent (the points are affinely dependent).
    """
    pts = np.asarray(points, dtype=float)
    a = pts[1:] - pts[0]
    r = 0.5 * np.einsum("ij,ij->i", a, a)
    sol, _, rank, _ = np.linalg.lstsq(a, r, rcond=RCOND)
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
                if cand is not None and all(contains(cand, i) for i in boundary):
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


def _sq_distances(pts: np.ndarray) -> np.ndarray:
    """All pairwise squared distances as an (n, n) array; the references take small inputs."""
    diff = pts[:, None, :] - pts[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def diameter(points) -> float:
    """Largest pairwise distance (0 for fewer than two points), one row at a time."""
    pts = as_point_array(points)
    if pts.shape[0] < 2:
        return 0.0
    return float(np.sqrt(max(np.einsum("ij,ij->i", pts - p, pts - p).max() for p in pts)))


def _sphere_violations(
    pts: np.ndarray, subset: tuple[int, ...], kind: str, offset: int, out: list[Violation]
) -> None:
    """Append a violation for every point within TOL of the subset's circumsphere.

    ``offset`` is added to the row indices of ``pts`` to make them global.
    """
    sphere = _circumsphere(pts[list(subset)])
    if sphere is None:
        return
    dist = np.linalg.norm(pts - sphere.center, axis=1)
    tol = TOL * (1.0 + sphere.radius)
    near = np.nonzero(np.abs(dist - sphere.radius) <= tol)[0]
    members = set(subset)
    for idx in near:
        if int(idx) not in members:
            out.append(Violation(kind, tuple(offset + i for i in subset) + (offset + int(idx),)))


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
    x, y = x.reshape(len(x), d), y.reshape(len(y), d)
    violations: list[Violation] = []

    for offset, cloud in ((0, x), (x.shape[0], y)):
        n = cloud.shape[0]
        if n >= 2:
            dist = np.sqrt(_sq_distances(cloud))
            for i, j in zip(*np.nonzero(np.triu(dist <= TOL, k=1))):
                violations.append(Violation("duplicate", (offset + int(i), offset + int(j))))
        if n >= d + 1:
            for subset in itertools.combinations(range(n), d + 1):
                if _hull_coordinates(cloud[list(subset)])[1] < d:
                    violations.append(Violation("flat", tuple(offset + i for i in subset)))
                    continue
                _sphere_violations(cloud, subset, "cocircular", offset, violations)

    lifted = lift_clouds(x, y)
    n_x, n_y = x.shape[0], y.shape[0]
    for size_x in range(1, d + 2):
        size_y = d + 2 - size_x
        if size_x > n_x or size_y < 1 or size_y > n_y:
            continue
        for cx in itertools.combinations(range(n_x), size_x):
            for cy in itertools.combinations(range(n_x, n_x + n_y), size_y):
                _sphere_violations(lifted, cx + cy, "lifted_cocircular", 0, violations)

    return (not violations, violations)


def delaunay_bruteforce(points) -> Triangulation:
    """Delaunay triangulation straight from the empty-circumsphere definition.

    Two points within ``TOL`` of each other raise ``DegenerateInput``.
    Every (m+1)-subset of the points, reduced to coordinates in their
    affine hull of dimension m, is tested: affinely dependent subsets are
    skipped, subsets whose circumsphere strictly contains another point
    are rejected, and a non-member lying on the circumsphere of an
    otherwise empty sphere raises ``AmbiguousTriangulation``.
    """
    pts = as_point_array(points)
    n = pts.shape[0]
    if n >= 2:
        # The closest pair, first in row-major order.
        dist2 = _sq_distances(pts)
        np.fill_diagonal(dist2, np.inf)
        i, j = divmod(int(dist2.argmin()), n)
        if float(dist2[i, j]) <= TOL * TOL:
            raise DegenerateInput(f"points {i} and {j} coincide within tolerance")
    coords, rank = _hull_coordinates(pts)
    if rank == 0:
        return Triangulation(())
    cells = []
    for combo in itertools.combinations(range(n), rank + 1):
        sphere = _circumsphere(coords[list(combo)])
        if sphere is None:
            continue
        dist = np.linalg.norm(coords - sphere.center, axis=1)
        dist[list(combo)] = np.inf
        tol = TOL * (1.0 + sphere.radius)
        if bool((dist < sphere.radius - tol).any()):
            continue
        on = np.nonzero(np.abs(dist - sphere.radius) <= tol)[0]
        if on.size:
            raise AmbiguousTriangulation(
                f"point {int(on[0])} lies on the circumsphere of candidate cell {combo}"
            )
        cells.append(combo)
    return Triangulation(tuple(sorted(cells)))
