"""Filtration values: the three-case solver, Gabriel logic, monotonicity."""

import math
import re

import numpy as np
import pytest

from coupledalpha import (
    CoupledComplex,
    PointCloudPair,
    coupled_alpha_infty,
    coupled_filtration,
    persistence_diagram,
    relaxed_value,
)
from coupledalpha import filtration
from coupledalpha._rows import facets, unique
from coupledalpha.filtration import (
    CASES,
    CIRCUMSPHERE,
    X_DOMINANT,
    Y_DOMINANT,
    DimensionOverflow,
    _gabriel_walk,
    _relaxed_batch,
)
from coupledalpha.geometry import RankDeficient
from conftest import (
    alpha_filtration,
    at_radius,
    check_monotone,
    lstsq_bisector,
    max_value,
    minimize_relaxed,
    random_pair,
    reference_walk,
    split_coords,
)

# Worked fixtures: (X vertices, Y vertices, case, radius, center).
FIXTURES = [
    ([[0.0, 0.0]], [[3.0, 0.0]], CIRCUMSPHERE, 1.5, [1.5, 0.0]),
    ([[0.0, 0.0], [2.0, 0.0]], [[1.0, 1.0]], X_DOMINANT, 1.0, [1.0, 0.0]),
    ([[0.0, 0.0], [0.0, 2.0]], [[0.5, 1.0]], X_DOMINANT, 1.0, [0.0, 1.0]),
    ([[0.0, 0.0], [0.0, 2.0]], [[5.0, 1.0]], CIRCUMSPHERE, 2.6, [2.4, 1.0]),
]


@pytest.mark.parametrize("q_x,q_y,case,radius,center", FIXTURES)
def test_relaxed_value_fixtures(q_x, q_y, case, radius, center):
    sol = relaxed_value(q_x, q_y)
    assert sol.case == case
    assert sol.relaxed_radius == pytest.approx(radius, abs=1e-9)
    assert np.allclose(sol.center, center, atol=1e-9)


def test_relaxed_value_swap_symmetry(rng):
    for _ in range(25):
        d = int(rng.integers(2, 4))
        kx = int(rng.integers(1, d + 1))
        ky = int(rng.integers(1, d + 2 - kx))
        q_x = rng.normal(size=(kx, d))
        q_y = rng.normal(size=(ky, d))
        a = relaxed_value(q_x, q_y)
        b = relaxed_value(q_y, q_x)
        assert a.relaxed_radius == pytest.approx(b.relaxed_radius, abs=1e-9)
        swap = {X_DOMINANT: Y_DOMINANT, Y_DOMINANT: X_DOMINANT, CIRCUMSPHERE: CIRCUMSPHERE}
        assert b.case == swap[a.case]


def test_relaxed_value_rigid_invariance(rng):
    theta = 1.1
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    for _ in range(20):
        q_x = rng.normal(size=(int(rng.integers(1, 3)), 2))
        q_y = rng.normal(size=(1, 2))
        base = relaxed_value(q_x, q_y)
        moved = relaxed_value(q_x @ rot.T + 7.0, q_y @ rot.T + 7.0)
        assert moved.relaxed_radius == pytest.approx(base.relaxed_radius, abs=1e-9)
        assert moved.case == base.case


def test_relaxed_value_matches_direct_minimization(rng):
    for _ in range(40):
        d = int(rng.integers(2, 4))
        kx = int(rng.integers(1, d + 1))
        ky = int(rng.integers(1, d + 2 - kx))
        q_x = rng.normal(size=(kx, d))
        q_y = rng.normal(size=(ky, d))
        fast = relaxed_value(q_x, q_y).relaxed_radius
        reference = minimize_relaxed(q_x, q_y)
        assert fast == pytest.approx(reference, abs=1e-7)


@pytest.mark.parametrize("a", [1.0, 1e-4, 1e-6])
def test_relaxed_value_is_scale_invariant_near_a_tie(a):
    # Two X vertices on the y-axis and one Y vertex at (s a, a): the X radius
    # a dominates up to s = 1, beyond it the circumsphere has radius
    # a (s² + 1) / 2s. Just past the tie the case must not depend on a.
    def solve(s, a):
        return relaxed_value([[0.0, 0.0], [0.0, 2 * a]], [[s * a, a]])

    for s in (0.5, 0.75, 0.999, 1.0, 1 + 5e-7, 1.001, 1.5, 2.0, 3.0):
        sol = solve(s, a)
        assert sol.case == (X_DOMINANT if s <= 1 else CIRCUMSPHERE)
        expected = a if s <= 1 else a * (s * s + 1) / (2 * s)
        assert sol.relaxed_radius == pytest.approx(expected, rel=1e-14, abs=0.0)
    unit = solve(1 + 5e-7, 1.0).relaxed_radius
    assert solve(1 + 5e-7, a).relaxed_radius / a == pytest.approx(unit, rel=1e-14, abs=0.0)


def test_relaxed_value_pure_simplex_is_circumradius():
    sol = relaxed_value([[0.0, 0.0], [4.0, 0.0], [0.0, 3.0]], None)
    assert sol.case == X_DOMINANT
    assert sol.relaxed_radius == pytest.approx(2.5, abs=1e-12)
    assert sol.radius_y == 0.0


def test_relaxed_value_validation():
    with pytest.raises(DimensionOverflow):
        relaxed_value(np.zeros((3, 2)) + np.eye(3, 2), [[1.0, 1.0], [2.0, 5.0]])
    with pytest.raises(RankDeficient):
        relaxed_value([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]], None)
    with pytest.raises(ValueError):
        relaxed_value(np.zeros((0, 2)), np.zeros((0, 2)))


def test_a_pure_simplex_of_d_plus_2_vertices_overflows():
    # Its bisector system would have more rows than columns. A lifted
    # Delaunay cell spans both clouds, so only a listing or a direct call
    # can ask; cospherical or not, the answer is a refusal.
    square = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
    with pytest.raises(DimensionOverflow, match="maximum pure simplex size 3 in R\\^2"):
        relaxed_value(square, None)
    with pytest.raises(DimensionOverflow, match="4 vertices exceed the maximum pure"):
        relaxed_value(None, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [3.0, 3.0]])


@pytest.mark.parametrize("dim", [2, 3])
def test_top_simplices_take_no_circumsphere(dim):
    # A mixed simplex of d + 2 vertices has a square bisector system: the
    # X and Y candidates are one point, equidistant from each side.
    rng = np.random.default_rng(70 + dim)
    for _ in range(3):
        pair = PointCloudPair(rng.random((30, dim)), rng.random((30, dim)))
        top = coupled_alpha_infty(pair).rows[dim + 1]
        assert len(top)
        center, radius_x, radius_y, case = _relaxed_batch(pair.points, pair.n_x, top)
        assert CASES.index(CIRCUMSPHERE) not in case.tolist()
        dist = np.linalg.norm(pair.points[top] - center[:, None], axis=-1)
        own = np.where(top < pair.n_x, radius_x[:, None], radius_y[:, None])
        assert np.allclose(dist, own, rtol=1e-9, atol=1e-12)


def test_pipeline_solves_no_overdetermined_system(monkeypatch):
    # Every bisector system of a full run, triangulation and filtration
    # alike, goes through _certified_solve with at most as many rows as columns.
    from coupledalpha import delaunay, geometry

    shapes = set()
    solve = geometry._certified_solve

    def counted(a, r):
        shapes.add(a.shape[-2:])
        return solve(a, r)

    monkeypatch.setattr(geometry, "_certified_solve", counted)
    monkeypatch.setattr(delaunay, "_certified_solve", counted)
    rng = np.random.default_rng(77)
    for dim in (2, 3):
        pair = PointCloudPair(rng.random((40, dim)), rng.random((40, dim)))
        persistence_diagram(coupled_filtration(coupled_alpha_infty(pair)))
    assert {m < d for m, d in shapes} == {True, False}
    assert all(m <= d for m, d in shapes)


def test_coupled_gabriel_flags_enclosed_vertex():
    # Mixed edge (x0, y0) with relaxed value 1.5 around the midpoint; the
    # relaxed X ball swallows x1 placed at that center, so the Gabriel test
    # fails against the coface (x0, x1, y0) and the edge inherits the
    # triangle's value. Once x1 moves far away the edge keeps its own.
    near = PointCloudPair([[0.0, 0.0], [1.5, 0.0]], [[3.0, 0.0]])
    values = coupled_filtration(coupled_alpha_infty(near)).values
    assert values[(0, 2)] == pytest.approx(2.25, abs=1e-12)
    assert values[(0, 2)] == values[(0, 1, 2)]
    far = PointCloudPair([[0.0, 0.0], [1.5, 4.0]], [[3.0, 0.0]])
    values = coupled_filtration(coupled_alpha_infty(far)).values
    assert values[(0, 2)] == pytest.approx(1.5, abs=1e-12)
    assert values[(0, 2)] < values[(0, 1, 2)]


def test_vertices_are_zero_and_values_monotone(rng):
    for _ in range(6):
        pair = random_pair(rng)
        fc = coupled_filtration(coupled_alpha_infty(pair))
        assert check_monotone(fc, tol=0.0)
        for simplex, value in fc.sorted_items():
            if len(simplex) == 1:
                assert value == 0.0
            else:
                assert value > 0.0


def test_at_radius_nested(rng):
    pair = random_pair(rng)
    fc = coupled_filtration(coupled_alpha_infty(pair))
    top = max_value(fc)
    previous = set()
    for r in np.linspace(0.0, top * 1.01, 12):
        current = set(at_radius(fc, r))
        assert previous <= current
        previous = current
    assert len(previous) == len(fc.values)


def test_pure_simplices_agree_with_single_cloud_alpha(rng):
    for _ in range(5):
        pair = random_pair(rng, max_x=6, max_y=6)
        fc = coupled_filtration(coupled_alpha_infty(pair))
        fx = alpha_filtration(pair.x)
        for simplex, value in fx.values.items():
            assert fc.values[simplex] == pytest.approx(value, abs=1e-9)
        fy = alpha_filtration(pair.y)
        shift = pair.n_x
        for simplex, value in fy.values.items():
            shifted = tuple(v + shift for v in simplex)
            assert fc.values[shifted] == pytest.approx(value, abs=1e-9)


def test_alpha_filtration_acute_triangle_values():
    # Equilateral-ish acute triangle: every edge is Gabriel so edges get
    # half their length and the triangle its circumradius.
    pts = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 1.8]])
    fc = alpha_filtration(pts)
    assert fc.values[(0, 1)] == pytest.approx(1.0, abs=1e-12)
    circum = fc.values[(0, 1, 2)]
    for edge in [(0, 1), (0, 2), (1, 2)]:
        assert fc.values[edge] < circum


def test_alpha_filtration_obtuse_triangle_inherits():
    # The long edge of an obtuse triangle is not Gabriel: its value is the
    # triangle's, not half its own length.
    pts = np.array([[0.0, 0.0], [4.0, 0.0], [2.0, 0.4]])
    fc = alpha_filtration(pts)
    assert fc.values[(0, 1)] == pytest.approx(fc.values[(0, 1, 2)], abs=1e-12)
    assert fc.values[(0, 1)] > 2.0  # strictly above half the edge length


def test_sorted_items_face_before_coface_on_ties(rng):
    pair = random_pair(rng)
    fc = coupled_filtration(coupled_alpha_infty(pair))
    seen = set()
    for simplex, _ in fc.sorted_items():
        for drop in range(len(simplex)):
            facet = simplex[:drop] + simplex[drop + 1 :]
            if facet:
                assert facet in seen
        seen.add(simplex)


def _seeded_complexes():
    """Seeded coupled pairs in d=2 and d=3 and single clouds, as complexes."""
    rng = np.random.default_rng(4417)
    pairs = [
        PointCloudPair(rng.random((40, 2)), rng.random((40, 2))),
        PointCloudPair(rng.random((20, 3)), rng.random((20, 3))),
        PointCloudPair(rng.random((30, 2)), None),
        PointCloudPair(np.zeros((0, 3)), rng.random((20, 3))),
    ]
    return [coupled_alpha_infty(pair) for pair in pairs]


def test_batched_relaxed_values_match_scalar():
    # ``relaxed_value`` is the one-row call of the batch; the independent
    # reference is the golden-section minimum, checked on the first simplex
    # of every (dimension, |Q_X|, |Q_Y|, case) met.
    sample = {}
    for cplx in _seeded_complexes():
        pair = cplx.pair
        for k in range(1, cplx.dimension + 1):
            simplices = cplx.by_dim(k)
            rows = np.array(simplices)
            center, radius_x, radius_y, case = _relaxed_batch(pair.points, pair.n_x, rows)
            for i, simplex in enumerate(simplices):
                q_x, q_y = split_coords(pair, simplex)
                ref = relaxed_value(q_x, q_y)
                assert ref.case == CASES[case[i]]
                scale = max(ref.relaxed_radius, float(np.abs(ref.center).max()))
                assert np.abs(center[i] - ref.center).max() <= 1e-12 * scale
                assert radius_x[i] == pytest.approx(ref.radius_x, rel=1e-12, abs=0.0)
                assert radius_y[i] == pytest.approx(ref.radius_y, rel=1e-12, abs=0.0)
                key = (pair.points.shape[1], len(q_x), len(q_y), ref.case)
                sample.setdefault(key, (q_x, q_y, max(radius_x[i], radius_y[i])))
    for q_x, q_y, radius in sample.values():
        assert radius == pytest.approx(minimize_relaxed(q_x, q_y), abs=1e-7)
    # Every (|Q_X|, |Q_Y|) type of d=2 and d=3 (pure ones included) and every case.
    assert {key[1:3] for key in sample} == {
        (a, b) for a in range(5) for b in range(5) if 2 <= a + b <= 5
    }
    assert {key[3] for key in sample} == set(CASES)


def test_one_bisector_solve_per_type(monkeypatch):
    # A group of rows with the same X count takes one stacked solve; the
    # circumsphere center is the point of [p_X, p_Y] where the radii agree.
    calls = []
    solve = filtration._bisector_points

    def counted(u, v, p):
        calls.append(u.shape)
        return solve(u, v, p)

    monkeypatch.setattr(filtration, "_bisector_points", counted)
    met = 0
    for cplx in _seeded_complexes():
        pair = cplx.pair
        for k in range(1, cplx.dimension + 1):
            rows = cplx.rows[k]
            calls.clear()
            center, radius_x, radius_y, case = _relaxed_batch(pair.points, pair.n_x, rows)
            assert len(calls) == len(np.unique((rows < pair.n_x).sum(axis=1)))
            for i in np.flatnonzero(case == CASES.index(CIRCUMSPHERE)).tolist():
                q = pair.points[rows[i]]
                ref = lstsq_bisector(q[:1], q[1:], q[0])
                scale = max(radius_x[i], float(np.abs(ref).max()))
                assert np.abs(center[i] - ref).max() <= 1e-12 * scale
                assert radius_x[i] == pytest.approx(radius_y[i], rel=1e-12, abs=0.0)
                met += 1
    assert met


def test_coupled_filtration_matches_reference_walk():
    for cplx in _seeded_complexes():
        ref_values, ref_gabriel = reference_walk(cplx)
        values = coupled_filtration(cplx).values
        assert list(values) == list(ref_values)
        for simplex, value in values.items():
            assert value == pytest.approx(ref_values[simplex], rel=1e-12, abs=0.0)
        gabriel = {}
        for rows, _, passed in _gabriel_walk(cplx):
            if rows.shape[1] > 1:
                gabriel.update(zip(map(tuple, rows.tolist()), passed.tolist()))
        assert gabriel == ref_gabriel
        assert not all(gabriel.values())  # some simplices inherit


def test_facet_lookup_takes_indices_beyond_packed_keys():
    # Eight vertex indices near 2**40 would overflow a key packed into int64.
    big = 2**40
    coface = np.array([[big + 3 * i for i in range(8)]])
    queries = facets(coface)
    for j, extra in enumerate(coface[0].tolist()):
        assert sorted(queries[j].tolist() + [extra]) == coface[0].tolist()
    rows, facet = unique(queries)
    assert len(rows) == 8
    assert (rows[facet] == queries).all()
    assert sorted(facet.tolist()) == list(range(8))
    cplx = CoupledComplex(None, cells=[coface])
    assert np.array_equal(cplx.rows[6], rows)
    assert np.array_equal(cplx.facet_index(7)[0], facet)
    # A listing without one of the facets is refused, naming the missing one.
    listing = [tuple(s) for s in cplx.simplices if s != tuple(rows[0].tolist())]
    with pytest.raises(ValueError, match=re.escape(f"lacks {tuple(rows[0].tolist())}")):
        CoupledComplex(None, listing)


def test_pure_radius_is_not_rounded_to_the_coordinates():
    # Edge (50, 57) of a seeded 60+60 planar pair under x -> 0.01 x + 1e3:
    # the half-length is 1e-7 of the coordinates, so a radius read off the
    # center p + sol, rounded to the coordinate grid, is only good to ~1e-9.
    x = np.array(
        [[1000.005390565905, 1000.0015377939134], [1000.0053346940405, 1000.0013646485072]]
    )
    exact = float(np.linalg.norm(x[1] - x[0])) / 2.0  # the difference is exact here
    assert relaxed_value(x, None).radius_x == pytest.approx(exact, rel=1e-15, abs=0.0)
    assert relaxed_value(None, x).radius_y == pytest.approx(exact, rel=1e-15, abs=0.0)
    # A third vertex far outside the edge's diametral ball keeps it Gabriel.
    cloud = np.vstack([x, x[0] + [2e-4, 5e-4]])
    for pair in (
        PointCloudPair(cloud, None),
        PointCloudPair(np.zeros((0, 2)), cloud),
    ):
        value = coupled_filtration(coupled_alpha_infty(pair)).values[(0, 1)]
        assert value == pytest.approx(exact, rel=1e-15, abs=0.0)
