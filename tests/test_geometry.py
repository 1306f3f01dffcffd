"""Geometric primitives: spheres, bisector flats, lifting, position checks."""

import tracemalloc

import numpy as np
import pytest

from coupledalpha.delaunay import _prepare
from coupledalpha.geometry import (
    DegenerateInput,
    RankDeficient,
    _bisector_points,
    _certified_solve,
    _hull_coordinates,
    _svd_solve,
    as_point_array,
    jitter,
    lift_clouds,
)
from coupledalpha.reference import (
    _circumsphere,
    check_coupled_general_position,
    diameter,
    min_enclosing_ball,
)
from conftest import lstsq_bisector


def test_as_point_array_shapes_and_errors():
    pts = as_point_array([[0.0, 1.0], [2.0, 3.0]])
    assert pts.shape == (2, 2) and pts.dtype == float
    with pytest.raises(ValueError):
        as_point_array([[0.0, 1.0]], dim=3)
    with pytest.raises(ValueError):
        as_point_array([0.0, 1.0, 2.0])  # 1-d input is ambiguous
    with pytest.raises(ValueError):
        as_point_array([[np.nan, 0.0]])


def test_equidistant_center_right_triangle():
    # Circumcenter of a right triangle is the hypotenuse midpoint.
    sphere = _circumsphere(np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 3.0]]))
    assert np.allclose(sphere.center, [2.0, 1.5], atol=1e-12)
    assert sphere.radius == pytest.approx(2.5, abs=1e-12)


def test_equidistant_center_subsets_live_in_affine_hull():
    rng = np.random.default_rng(4)
    for _ in range(20):
        pts = rng.normal(size=(3, 3))  # triangle in 3-space
        sphere = _circumsphere(pts)
        dists = np.linalg.norm(pts - sphere.center, axis=1)
        assert np.allclose(dists, sphere.radius, atol=1e-9)
        # center inside the affine hull: adding its hull coordinates back
        rank_with = _hull_coordinates(np.vstack([pts, sphere.center]))[1]
        assert rank_with == _hull_coordinates(pts)[1]


def test_equidistant_center_rejects_collinear():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    assert _circumsphere(pts) is None
    with pytest.raises(RankDeficient):
        _bisector_points(pts[None, :1], pts[None, 1:], pts[None, 0])


def test_min_enclosing_ball_known_configurations():
    two = min_enclosing_ball([[0.0, 0.0], [2.0, 0.0]])
    assert two.radius == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(two.center, [1.0, 0.0])
    # Obtuse triangle: ball spanned by the long edge only.
    obtuse = min_enclosing_ball([[0.0, 0.0], [4.0, 0.0], [2.0, 0.5]])
    assert obtuse.radius == pytest.approx(2.0, abs=1e-12)


def test_min_enclosing_ball_vs_subset_enumeration(rng):
    # The optimal ball is determined by at most d+1 points on its boundary.
    for _ in range(25):
        d = int(rng.integers(2, 4))
        pts = rng.random((int(rng.integers(2, 8)), d))
        ball = min_enclosing_ball(pts)
        dist = np.linalg.norm(pts - ball.center, axis=1)
        assert float(dist.max()) <= ball.radius + 1e-9
        best = np.inf
        import itertools

        for size in range(2, d + 2):
            for combo in itertools.combinations(range(len(pts)), size):
                cand = _circumsphere(pts[list(combo)])
                if cand is None:
                    continue
                if np.linalg.norm(pts - cand.center, axis=1).max() <= cand.radius + 1e-9:
                    best = min(best, cand.radius)
        if len(pts) == 1:
            best = 0.0
        assert ball.radius == pytest.approx(min(best, ball.radius), abs=1e-9)
        assert best <= ball.radius + 1e-9


def test_min_enclosing_ball_deterministic():
    pts = np.random.default_rng(1).random((30, 3))
    a = min_enclosing_ball(pts)
    b = min_enclosing_ball(pts)
    assert np.array_equal(a.center, b.center) and a.radius == b.radius


def test_null_space_and_particular_solution(rng):
    # The bisector point equals the projection of p onto the flat built
    # the long way: a particular solution plus an orthonormal null-space
    # basis of the bisector rows.
    for _ in range(20):
        d = int(rng.integers(2, 5))
        rows = int(rng.integers(0, d))
        u = rng.normal(size=(rows, d))
        v = rng.normal(size=(rows, d))
        p = rng.normal(size=d)
        c = _bisector_points(u[None], v[None], p[None])[0]
        assert np.allclose(
            np.linalg.norm(c - u, axis=1), np.linalg.norm(c - v, axis=1), atol=1e-9
        )
        a = v - u
        b = 0.5 * (np.einsum("ij,ij->i", v, v) - np.einsum("ij,ij->i", u, u))
        anchor = np.linalg.lstsq(a, b, rcond=None)[0] if rows else np.zeros(d)
        basis = np.linalg.svd(a, full_matrices=True)[2][rows:].T if rows else np.eye(d)
        assert basis.shape == (d, d - rows)
        expected = anchor + basis @ (basis.T @ (p - anchor))
        assert np.allclose(c, expected, atol=1e-9)


def test_bisector_point_rejects_dependent_rows():
    u = np.zeros((2, 2))
    v = np.array([[1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(RankDeficient):
        _bisector_points(u[None], v[None], np.ones((1, 2)))


def test_stacked_bisector_points_match_scalar(rng):
    for d, m in [(2, 0), (2, 1), (2, 2), (3, 2), (3, 3)]:
        u = rng.normal(size=(6, m, d))
        v = rng.normal(size=(6, m, d))
        p = rng.normal(size=(2, 6, d))
        stacked = _bisector_points(u, v, p)
        for t in range(2):
            for i in range(6):
                expected = lstsq_bisector(u[i], v[i], p[t, i])
                assert np.allclose(stacked[t, i], expected, rtol=1e-12, atol=1e-12)


def test_stacked_bisector_points_refuse_like_the_scalar_solver():
    u = np.zeros((2, 2, 2))
    v = np.array([[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [2.0, 0.0]]])
    with pytest.raises(RankDeficient, match="dependent"):
        _bisector_points(u, v, np.ones((2, 2)))


def test_certified_solve_names_the_first_dependent_system(rng):
    # Uncertified systems at 1, 3 and 4; the first of them is full rank, so
    # the SVD's first dependent system is not the first uncertified one.
    ratios = [0.5, 1e-11, 0.5, 1e-13, 1e-13, 0.5]
    systems = [_graded_rows(rng, 3, 3, ratio) for ratio in ratios]
    a = np.stack([v - u for u, v in systems])
    r = rng.normal(size=(2, len(ratios), 3))
    assert _certified_solve(a[:3], r[:, :3])[1].tolist() == [True, False, True]
    with pytest.raises(RankDeficient, match=r"dependent \(rank 2 < 3\)") as refused:
        _certified_solve(a, r)
    assert refused.value.system == 3


def _graded_rows(rng, m, d, ratio):
    """Bisector rows ``u, u + a`` in R^d, where the m rows of ``a`` are a random
    orthonormal frame scaled to lengths from 1 down to ``ratio``: its singular
    values are those lengths, and its solutions are well determined however
    small ``ratio`` is, so stable solvers agree on them to round-off."""
    frame = np.linalg.qr(rng.normal(size=(d, d)))[0][:m]
    u = rng.normal(size=(1, d))
    return u, u + np.geomspace(1.0, ratio, m)[:, None] * frame


@pytest.mark.parametrize("m,d", [(1, 3), (2, 3), (3, 3), (2, 4), (3, 4), (4, 4)])
def test_certified_solve_keeps_lstsq_rank_decisions(rng, m, d):
    # Well-conditioned rows (s_min/s_max = 0.5) mixed with rows at 1e-13
    # (dependent under lstsq's cutoff 1e-12), 1e-11 (full rank but beyond
    # the certificate, so solved by the SVD fallback) and 1e-9 (certified).
    ratios = [0.5] * 4 + ([1e-13, 1e-11, 1e-9] if m > 1 else [])
    systems = [_graded_rows(rng, m, d, ratio) + (rng.normal(size=d),) for ratio in ratios]
    u, v, p = (np.stack(part) for part in zip(*systems))
    a = v - u
    r = 0.5 * np.einsum("gij,gij->gi", a, (v - p[:, None]) + (u - p[:, None]))
    if m > 1:
        # The dependent system is refused and named; the others keep their certificate.
        with pytest.raises(RankDeficient, match="dependent") as refused:
            _certified_solve(a, r)
        assert refused.value.system == ratios.index(1e-13)
    sound = [i for i, ratio in enumerate(ratios) if ratio != 1e-13]
    certified = dict(zip(sound, _certified_solve(a[sound], r[sound])[1].tolist()))
    assert certified == {i: ratios[i] > 1e-10 for i in sound}

    accepted = []
    for i, ratio in enumerate(ratios):
        try:
            lstsq_bisector(u[i], v[i], p[i])
        except RankDeficient:
            assert ratio == 1e-13
            with pytest.raises(RankDeficient, match="dependent"):
                _bisector_points(u[i : i + 1], v[i : i + 1], p[i : i + 1])
        else:
            assert ratio > 1e-13
            accepted.append(i)
    if len(accepted) < len(ratios):
        with pytest.raises(RankDeficient, match="dependent"):
            _bisector_points(u, v, p)

    centers = _bisector_points(u[accepted], v[accepted], p[accepted])
    for center, i in zip(centers, accepted):
        if certified[i]:
            expected = lstsq_bisector(u[i], v[i], p[i]) - p[i]
            assert np.linalg.norm(center - p[i] - expected) <= 1e-12 * np.linalg.norm(expected)
        else:
            # The SVD code decides and solves these rows as before. It and
            # lstsq differ by up to about 1e-10 relative on them (m=3, d=4).
            assert np.array_equal(center, p[i] + _svd_solve(a[i : i + 1], r[i : i + 1])[0])


def test_lift_clouds_heights_exact():
    x = np.array([[0.25, 0.5]])
    y = np.array([[0.75, 0.25], [0.1, 0.9]])
    lifted = lift_clouds(x, y)
    assert lifted.shape == (3, 3)
    assert np.array_equal(lifted[0], [0.25, 0.5, 0.0])
    assert np.array_equal(lifted[1:, 2], [1.0, 1.0])
    assert np.array_equal(lifted[1, :2], y[0])


def test_general_position_clean_random(rng):
    for _ in range(5):
        ok, violations = check_coupled_general_position(
            rng.random((5, 2)), rng.random((4, 2))
        )
        assert ok and violations == []


def test_general_position_flags_cocircular_square():
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    ok, violations = check_coupled_general_position(square, [[0.3, 0.4]])
    assert not ok
    assert any(v.kind == "cocircular" for v in violations)


def test_general_position_flags_duplicates_across_check():
    ok, violations = check_coupled_general_position(
        [[0.0, 0.0], [0.0, 0.0]], [[1.0, 1.0]]
    )
    assert not ok
    assert any(v.kind == "duplicate" for v in violations)


def test_general_position_flags_lifted_cosphericality():
    # Symmetric cross: the four lifted X points and both lifted Y points
    # are all equidistant from (0, 0, 1/2), so some mixed (d+2)-subset's
    # circumsphere picks up an extra lifted point.
    x = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]) * np.sqrt(1.25)
    y = np.array([[1.0, 0.0], [-1.0, 0.0]])
    ok, violations = check_coupled_general_position(x, y)
    assert not ok
    assert any(v.kind == "lifted_cocircular" for v in violations)


def test_diameter_and_rank():
    assert diameter([[0.0, 0.0]]) == 0.0
    assert diameter([[0.0, 0.0], [3.0, 4.0]]) == pytest.approx(5.0)
    assert _hull_coordinates(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]))[1] == 1


def test_jitter_reproducible_and_bounded():
    pts = np.zeros((8, 2))
    a = jitter(pts, magnitude=1e-3, seed=5)
    b = jitter(pts, magnitude=1e-3, seed=5)
    assert np.array_equal(a, b)
    assert float(np.abs(a).max()) <= 1e-3
    c = jitter(pts, magnitude=1e-3, seed=6)
    assert not np.array_equal(a, c)


def test_pairwise_scans_take_linear_memory():
    # 2,000 lifted points in R^4: a full n x n x d difference array is 128 MB.
    pts = np.random.default_rng(31).random((2000, 4))
    tracemalloc.start()
    try:
        diameter(pts)
        _prepare(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    pts[1777] = pts[5]
    with pytest.raises(DegenerateInput, match="points 5 and 1777 coincide"):
        _prepare(pts)
