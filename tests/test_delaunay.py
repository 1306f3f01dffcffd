"""Triangulation routes: incremental vs definitional, invariances, refusals."""

import numpy as np
import pytest

from coupledalpha import (
    AmbiguousTriangulation,
    DegenerateInput,
    delaunay_incremental,
    lift_clouds,
)
from coupledalpha.complexes import _closure
from coupledalpha.delaunay import delaunay_bruteforce


def test_single_triangle():
    tri = delaunay_incremental([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert tri.cells == ((0, 1, 2),)
    assert _closure(tri.cells, 3) == {(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)}


def test_two_routes_agree_random(rng):
    for _ in range(40):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(m + 1, 11))
        pts = rng.random((n, m)) * float(rng.choice([0.2, 1.0, 25.0]))
        fast = delaunay_incremental(pts)
        reference = delaunay_bruteforce(pts)
        assert fast.cells == reference.cells


def test_two_routes_agree_on_lifted_pairs(rng):
    # Lifted coupled inputs concentrate on two parallel planes; the hull
    # then has large exactly-flat patches, the hard case for insertion.
    for _ in range(8):
        x = rng.random((int(rng.integers(3, 14)), 2))
        y = rng.random((int(rng.integers(3, 14)), 2))
        lifted = lift_clouds(x, y)
        fast = delaunay_incremental(lifted)
        reference = delaunay_bruteforce(lifted)
        assert fast.cells == reference.cells


def test_lifted_cells_always_mix_heights(rng):
    # A cell with all vertices at one height would be affinely flat.
    x = rng.random((12, 2))
    y = rng.random((9, 2))
    tri = delaunay_incremental(lift_clouds(x, y))
    for cell in tri.cells:
        assert any(v < 12 for v in cell) and any(v >= 12 for v in cell)


def test_rigid_motion_invariance(rng):
    pts = rng.random((14, 2))
    theta = 0.83
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    moved = pts @ rot.T + np.array([3.5, -1.25])
    assert delaunay_incremental(pts).cells == delaunay_incremental(moved).cells


def test_insertion_scale_robustness():
    # 400-per-cloud lifted instances used to defeat bounding-box tricks.
    rng = np.random.default_rng(99)
    lifted = lift_clouds(rng.random((350, 2)), rng.random((350, 2)))
    tri = delaunay_incremental(lifted)
    assert len(tri.cells) > 1000
    assert {v for cell in tri.cells for v in cell} == set(range(700))


def test_cocircular_square_refused():
    square = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
    with pytest.raises(AmbiguousTriangulation):
        delaunay_incremental(square)
    with pytest.raises(AmbiguousTriangulation):
        delaunay_bruteforce(square)


def test_duplicate_points_refused():
    with pytest.raises(DegenerateInput):
        delaunay_incremental([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])


def test_lower_dimensional_input_uses_hull_coordinates():
    # Collinear points in the plane triangulate as segments.
    pts = [[0.0, 0.0], [2.0, 2.0], [1.0, 1.0], [3.0, 3.0]]
    tri = delaunay_incremental(pts)
    assert tri.cells == ((0, 2), (1, 2), (1, 3))
    assert delaunay_bruteforce(pts).cells == tri.cells


def test_single_point_and_empty():
    assert delaunay_incremental([[0.5, 0.5]]).cells == ()
    assert delaunay_incremental(np.zeros((0, 2))).cells == ()
