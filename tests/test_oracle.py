"""Feasibility oracle: witnesses, monotonicity, bisection, Cech reference."""

import itertools
import math

import numpy as np
import pytest

from coupledalpha import (
    PointCloudPair,
    coupled_alpha_infty,
    coupled_filtration,
    diagram_discrepancy_vs_reference,
)
from coupledalpha import oracle
from coupledalpha.oracle import (
    NotInComplex,
    TooLarge,
    cech_filtration,
    feasibility,
    feasibility_witness,
    value_by_bisection,
)
from coupledalpha.reference import min_enclosing_ball
from conftest import check_monotone, random_pair


def witness_violation(simplex, pair, radius, z):
    """Largest constraint violation of z, straight from the definitions.

    z must lie in every vertex's radius-r ball and, for each vertex, on
    the correct side of the bisector against every same-cloud point.
    """
    worst = 0.0
    for v in simplex:
        worst = max(worst, float(np.linalg.norm(z - pair.points[v])) - radius)
        lo, hi = (0, pair.n_x) if v < pair.n_x else (pair.n_x, pair.n_total)
        for other in range(lo, hi):
            gap = np.linalg.norm(z - pair.points[v]) - np.linalg.norm(z - pair.points[other])
            worst = max(worst, float(gap))
    return worst


def test_vertices_always_feasible(rng):
    pair = random_pair(rng)
    for v in range(pair.n_total):
        assert feasibility((v,), pair, 0.0)
        ok, z = feasibility_witness((v,), pair, 0.0)
        assert ok and np.allclose(z, pair.points[v], atol=1e-9)


def test_negative_radius_infeasible(rng):
    pair = random_pair(rng)
    assert not feasibility((0,), pair, -1e-9)


def test_same_cloud_edge_flips_at_half_distance():
    pair = PointCloudPair([[0.0, 0.0], [2.0, 0.0]], [[9.0, 9.0]])
    assert not feasibility((0, 1), pair, 1.0 - 1e-6)
    assert feasibility((0, 1), pair, 1.0 + 1e-6)


def test_witness_satisfies_definitions(rng):
    for _ in range(6):
        pair = random_pair(rng, max_x=5, max_y=5)
        cplx = coupled_alpha_infty(pair)
        fc = coupled_filtration(cplx)
        for simplex, value in fc.sorted_items():
            if len(simplex) == 1:
                continue
            r = value * 1.01 + 1e-6
            ok, z = feasibility_witness(simplex, pair, r)
            assert ok, (simplex, r)
            assert witness_violation(simplex, pair, r, z) <= 1e-8


def test_feasibility_monotone_in_radius(rng):
    pair = random_pair(rng, max_x=5, max_y=5)
    fc = coupled_filtration(coupled_alpha_infty(pair))
    for simplex, value in fc.sorted_items():
        if len(simplex) < 2:
            continue
        radii = [value * f for f in (0.5, 0.9995, 1.0005, 2.0, 10.0)]
        results = [feasibility(simplex, pair, r) for r in radii]
        # Once feasible, stays feasible.
        first_true = results.index(True) if True in results else len(results)
        assert all(results[first_true:])


def test_collinear_same_cloud_triple_never_feasible():
    pair = PointCloudPair([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]], [[0.5, 3.0]])
    # Bisectors of a collinear triple are parallel: no equidistant point.
    assert not feasibility((0, 1, 2), pair, 1e9)


def test_bisection_matches_filtration_values(rng):
    pair = random_pair(rng, max_x=5, max_y=5)
    fc = coupled_filtration(coupled_alpha_infty(pair))
    checked = 0
    for simplex, value in fc.sorted_items():
        if len(simplex) < 2 or checked >= 12:
            continue
        assert value_by_bisection(simplex, pair) == pytest.approx(value, abs=1e-7)
        checked += 1
    assert checked == 12


def test_bisection_rejects_nonmembers():
    pair = PointCloudPair([[0.0, 0.0]], [[5.0, 0.0]])
    with pytest.raises(NotInComplex):
        value_by_bisection((0, 1), pair, radius_max=1.0)


def test_bisection_stops_between_adjacent_floats(monkeypatch):
    # Near 1.5e8 adjacent floats are 3e-8 apart, wider than the bisection width.
    monkeypatch.setattr(oracle, "feasibility", lambda simplex, pair, radius: radius >= 1.5e8)
    pair = PointCloudPair([[0.0, 0.0]], [[5.0, 0.0]])
    assert value_by_bisection((0, 1), pair, radius_max=4e8) == pytest.approx(1.5e8, rel=1e-15)


def test_cech_values_are_enclosing_radii(rng):
    pts = rng.random((7, 2))
    fc = cech_filtration(pts)
    for simplex, value in fc.values.items():
        if len(simplex) == 1:
            assert value == 0.0
            continue
        direct = min_enclosing_ball(pts[list(simplex)]).radius
        # Values are maxed with faces, so direct radius can only be lower.
        assert value >= direct - 1e-12
        assert value == pytest.approx(direct, abs=1e-9)
    assert check_monotone(fc, tol=0.0)


def test_cech_dimension_bound_and_cap():
    pts = np.random.default_rng(0).random((6, 2))
    fc = cech_filtration(pts)
    assert max(len(s) for s in fc.values) == 4  # d + 2 vertices in R^2
    with pytest.raises(TooLarge):
        cech_filtration(np.random.default_rng(1).random((17, 2)))


def test_two_point_cech():
    fc = cech_filtration([[0.0, 0.0], [6.0, 0.0]])
    assert fc.values[(0, 1)] == pytest.approx(3.0, abs=1e-12)


def test_diagram_reference_agrees_on_small_instances(rng):
    for _ in range(3):
        pair = random_pair(rng, max_x=5, max_y=5)
        ok, worst = diagram_discrepancy_vs_reference(pair)
        assert ok and worst <= 1e-6
