"""Exact oracle: qualifying centres, membership and values; Cech reference."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from coupledalpha import (
    PointCloudPair,
    coupled_alpha_infty,
    coupled_filtration,
    diagram_discrepancy_vs_reference,
)
from coupledalpha.oracle import TooLarge, cech_filtration, exact_filtration, qualifying_centres
from conftest import at_radius, check_monotone, enclosing_radius, random_pair


def faces(t):
    return [q for size in range(1, len(t) + 1) for q in itertools.combinations(t, size)]


def witness_violation(simplex, pair, radius_sq, z):
    """Largest constraint violation of z in exact rationals, straight from the definitions.

    z must lie in every vertex's ball of squared radius ``radius_sq`` and,
    for each vertex, be no farther from it than from any point of its cloud.
    """
    points = [tuple(map(Fraction, p)) for p in pair.points.tolist()]

    def sq(v):
        return sum((a - b) ** 2 for a, b in zip(z, points[v]))

    worst = 0
    for v in simplex:
        cloud = range(pair.n_x) if v < pair.n_x else range(pair.n_x, pair.n_total)
        worst = max(worst, sq(v) - radius_sq, *(sq(v) - sq(other) for other in cloud))
    return worst


def test_vertices_always_feasible(rng):
    pair = random_pair(rng)
    fc = exact_filtration(pair)
    centres = {t: z for t, z, *_ in qualifying_centres(pair) if len(t) == 1}
    for v in range(pair.n_total):
        assert fc.values[(v,)] == 0.0
        assert centres[(v,)] == tuple(map(Fraction, pair.points[v].tolist()))


def test_negative_radius_infeasible(rng):
    # Values are radii: below 0 not even a vertex is present.
    fc = exact_filtration(random_pair(rng))
    assert at_radius(fc, -1e-300) == [] and min(fc.values.values()) == 0.0


def test_same_cloud_edge_flips_at_half_distance():
    pair = PointCloudPair([[0.0, 0.0], [2.0, 0.0]], [[9.0, 9.0]])
    assert exact_filtration(pair).values[(0, 1)] == 1.0


def test_mixed_edge_takes_the_smallest_of_three_candidates():
    # x1 itself (r_Y = 2), y1 itself (r_X = 2) and the midpoint (both 1).
    pair = PointCloudPair([[0.0, 0.0]], [[2.0, 0.0]])
    found = {z: (r2_x, r2_y) for t, z, r2_x, r2_y in qualifying_centres(pair) if t == (0, 1)}
    assert found == {(0, 0): (0, 4), (2, 0): (4, 0), (1, 0): (1, 1)}
    assert exact_filtration(pair).values[(0, 1)] == 1.0


def test_witness_satisfies_definitions(rng):
    for _ in range(6):
        pair = random_pair(rng, max_x=5, max_y=5)
        attained = {}
        for t, z, r2_x, r2_y in qualifying_centres(pair):
            for q in faces(t):
                r2 = max(r2_x if q[0] < pair.n_x else 0, r2_y if q[-1] >= pair.n_x else 0)
                assert witness_violation(q, pair, r2, z) <= 0, (q, t)
                attained[q] = min(attained.get(q, r2), r2)
        # Every simplex of the fast complex is witnessed at its own value.
        fc = coupled_filtration(coupled_alpha_infty(pair))
        assert set(attained) == set(fc.values)
        for q, value in fc.values.items():
            assert abs(math.sqrt(attained[q]) - value) <= 1e-12 * value, q


def test_feasibility_monotone_in_radius(rng):
    # Once a simplex's restricted balls meet they keep meeting: no face comes later.
    fc = exact_filtration(random_pair(rng, max_x=5, max_y=5))
    assert check_monotone(fc, tol=0.0)
    for r in sorted(set(fc.values.values())):
        present = set(at_radius(fc, r))
        assert all(q[:k] + q[k + 1 :] in present for q in present if len(q) > 1 for k in range(len(q)))


def test_collinear_same_cloud_triple_never_feasible():
    pair = PointCloudPair([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]], [[0.5, 3.0]])
    # Bisectors of a collinear triple are parallel: no equidistant point.
    assert (0, 1, 2) not in exact_filtration(pair).values
    assert all(t[:3] != (0, 1, 2) for t, *_ in qualifying_centres(pair))


def test_exact_values_match_filtration_values(rng):
    for dim in (2, 2, 2, 3, 3, 3):
        pair = random_pair(rng, dim=dim, max_x=5, max_y=5)
        fast = coupled_filtration(coupled_alpha_infty(pair)).values
        exact = exact_filtration(pair).values
        assert set(exact) == set(fast)
        for simplex, value in fast.items():
            assert abs(exact[simplex] - value) <= 1e-12 * value, simplex


def test_exact_oracle_cap():
    with pytest.raises(TooLarge):
        exact_filtration(PointCloudPair(np.random.default_rng(2).random((25, 2))))
    assert exact_filtration(PointCloudPair(np.zeros((0, 2)))).values == {}


def test_cech_values_are_enclosing_radii(rng):
    pts = rng.random((7, 2))
    fc = cech_filtration(pts)
    for simplex, value in fc.values.items():
        assert value == pytest.approx(enclosing_radius(pts[list(simplex)]), rel=1e-12, abs=0.0)
    assert check_monotone(fc, tol=0.0)


def test_cech_dimension_bound_and_cap():
    pts = np.random.default_rng(0).random((6, 2))
    fc = cech_filtration(pts)
    assert max(len(s) for s in fc.values) == 4  # d + 2 vertices in R^2
    with pytest.raises(TooLarge):
        cech_filtration(np.random.default_rng(1).random((17, 2)))


def test_two_point_cech():
    fc = cech_filtration([[0.0, 0.0], [6.0, 0.0]])
    assert fc.values[(0, 1)] == 3.0


def test_cech_closed_forms_of_triangles():
    # A right triangle's ball is its circumsphere, centred on the hypotenuse.
    assert cech_filtration([[0.0, 0.0], [4.0, 0.0], [0.0, 3.0]]).values[(0, 1, 2)] == 2.5
    # An obtuse triangle's ball is spanned by the long edge only.
    assert cech_filtration([[0.0, 0.0], [4.0, 0.0], [2.0, 0.5]]).values[(0, 1, 2)] == 2.0
    # A collinear triple has no circumsphere (its bisectors x = 1 and x = 2
    # never meet), so its ball is spanned by the outer pair too.
    assert cech_filtration([[0.0, 0.0], [2.0, 0.0], [4.0, 0.0]]).values[(0, 1, 2)] == 2.0


@pytest.mark.parametrize("k", [-990, 990])
def test_oracles_scale_exactly_by_powers_of_two(k):
    # Exact rationals and one shifted square root: neither underflow nor overflow.
    pts = np.random.default_rng(3).random((8, 2))
    big = np.ldexp(pts, k)
    for oracle, small, scaled in [
        (exact_filtration, PointCloudPair(pts[:4], pts[4:]), PointCloudPair(big[:4], big[4:])),
        (cech_filtration, pts, big),
    ]:
        values = oracle(small).values
        assert oracle(scaled).values == {s: math.ldexp(v, k) for s, v in values.items()}
        assert min(v for s, v in values.items() if len(s) > 1) > 0


def test_diagram_reference_agrees_on_small_instances(rng):
    for _ in range(3):
        pair = random_pair(rng, max_x=5, max_y=5)
        ok, worst = diagram_discrepancy_vs_reference(pair)
        assert ok and worst <= 1e-6
