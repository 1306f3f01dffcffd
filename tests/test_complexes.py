"""Coupled complex construction: nerve equality, labels, inclusions."""

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coupledalpha import (
    AmbiguousTriangulation,
    CoupledComplex,
    DegenerateInput,
    PointCloudPair,
    coupled_alpha_infty,
    lift_clouds,
)
from coupledalpha import complexes
from coupledalpha._rows import unique
from coupledalpha.filtration import FilteredComplex
from coupledalpha.oracle import exact_filtration, qualifying_centres
from conftest import alpha_infty, random_pair, side, split_coords


def test_pair_indexing_and_splits():
    pair = PointCloudPair([[0.0, 0.0], [1.0, 0.0]], [[0.5, 1.0]])
    assert (pair.n_x, pair.n_y, pair.n_total) == (2, 1, 3)
    assert side(pair, 0) == "x" and side(pair, 2) == "y"
    cx, cy = split_coords(pair, (0, 2))
    assert np.array_equal(cx, [[0.0, 0.0]]) and np.array_equal(cy, [[0.5, 1.0]])
    assert pair.dim == 2


def test_pair_leaves_general_position_to_the_triangulation():
    # The audit's verdict on this input: test_general_position_flags_cocircular_square.
    square = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
    pair = PointCloudPair(square, [[0.3, 0.4]])
    # The four cocircular X points lie at one exact height, so they make a flat lifted cell.
    message = r"^cell \(0, 1, 2, 3\) is affinely degenerate within tolerance$"
    with pytest.raises(AmbiguousTriangulation, match=message):
        coupled_alpha_infty(pair)
    with pytest.raises(TypeError, match="check_coupled_general_position"):
        PointCloudPair(square, [[0.3, 0.4]], check=True)


def test_an_empty_cloud_keeps_its_width():
    pair = PointCloudPair(np.zeros((0, 2)))
    assert pair.dim == 2
    assert pair.x.shape == pair.y.shape == pair.points.shape == (0, 2)
    # So it is compared with the other cloud's width, empty or not.
    for x, y in [(np.zeros((0, 2)), [[1.0, 2.0, 3.0]]), ([[1.0, 2.0, 3.0]], np.zeros((0, 2))),
                 (np.zeros((0, 2)), np.zeros((0, 3)))]:
        with pytest.raises(ValueError, match="^clouds must share the ambient dimension$"):
            PointCloudPair(x, y)
    # A (0, 0) cloud, as from [], has no width and sits beside any.
    assert PointCloudPair([], [[1.0, 2.0, 3.0]]).dim == 3
    assert PointCloudPair([[1.0, 2.0]], []).y.shape == (0, 2)


def test_points_without_coordinates_are_refused():
    with pytest.raises(ValueError, match="^points must have at least one coordinate$"):
        PointCloudPair(np.zeros((2, 0)))


@pytest.mark.parametrize(
    "pair",
    [PointCloudPair(np.zeros((0, 2))), PointCloudPair(np.zeros((0, 3)), np.zeros((0, 3)))],
    ids=["empty X", "both empty"],
)
def test_an_empty_pair_takes_the_general_route(pair):
    # The triangulation of no points is a (0, 1) cell array, which closes to no simplex.
    cplx = coupled_alpha_infty(pair)
    assert cplx.rows == CoupledComplex(pair, ()).rows == []
    assert cplx.dimension == -1 and list(cplx) == []


def test_complex_closed_under_faces_and_counts(rng):
    pair = random_pair(rng)
    cplx = coupled_alpha_infty(pair)
    members = set(cplx)
    for simplex in members:
        for drop in range(len(simplex)):
            facet = simplex[:drop] + simplex[drop + 1 :]
            if facet:
                assert facet in members
    counts = cplx.counts()
    assert counts[0] == pair.n_total
    assert sum(counts) == len(cplx)
    assert cplx.dimension <= pair.dim + 1


def test_simplices_are_made_once(rng):
    cplx = coupled_alpha_infty(random_pair(rng))
    assert cplx.simplices is cplx.simplices
    assert tuple(cplx) == cplx.simplices


def test_nerve_equality_small_instances(rng):
    for _ in range(8):
        pair = random_pair(rng, max_x=5, max_y=5)
        fast = set(coupled_alpha_infty(pair))
        assert fast == set(exact_filtration(pair).values)


def test_mixed_edges_carry_lifted_witness(rng):
    # Constructive certificate: a point in both restricted cells lifts to
    # a point equidistant from the two lifted endpoints and at least as
    # close to them as to every other lifted point.
    pair = random_pair(rng, max_x=5, max_y=5)
    lifted = lift_clouds(pair.x, pair.y)
    cplx = coupled_alpha_infty(pair)
    mixed_edges = [
        s for s in cplx.by_dim(1) if s[0] < pair.n_x <= s[1]
    ]
    assert mixed_edges, "random instance unexpectedly produced no mixed edge"
    # Any qualifying centre of a superset is a point of both restricted cells.
    centres = {}
    for t, z, *_ in qualifying_centres(pair):
        for edge in itertools.combinations(t, 2):
            centres.setdefault(edge, np.array(z, dtype=float))
    for i, j in mixed_edges:
        z = centres[i, j]
        x, y = pair.points[i], pair.points[j]
        t = 0.5 * (np.dot(y - z, y - z) - np.dot(x - z, x - z) + 1.0)
        s = np.append(z, t)
        d_edge = max(np.linalg.norm(s - lifted[i]), np.linalg.norm(s - lifted[j]))
        others = np.linalg.norm(lifted - s, axis=1)
        others[[i, j]] = np.inf
        assert abs(np.linalg.norm(s - lifted[i]) - np.linalg.norm(s - lifted[j])) <= 1e-9
        assert d_edge <= float(others.min()) + 1e-7


def test_single_cloud_alpha_contained_in_coupled(rng):
    pair = random_pair(rng, max_x=6, max_y=6)
    coupled = set(coupled_alpha_infty(pair))
    pure_x = alpha_infty(pair.x)
    for simplex in pure_x:
        assert simplex in coupled
    pure_y = alpha_infty(pair.y)
    shift = pair.n_x
    for simplex in pure_y:
        assert tuple(v + shift for v in simplex) in coupled


def test_empty_y_degrades_to_alpha():
    rng = np.random.default_rng(2)
    x = rng.random((6, 2))
    pair = PointCloudPair(x, None)
    assert set(coupled_alpha_infty(pair)) == set(alpha_infty(x))
    assert pair.n_y == 0


def test_rank_guard_refuses_flat_inputs():
    # A collinear cloud in the plane spans a 1-flat where it needs a
    # 2-flat; X and Y on one line lift to a 2-flat of R^3.
    line = [[0.0, 0.0], [1.0, 1.0], [2.5, 2.5], [4.0, 4.0]]
    with pytest.raises(DegenerateInput, match="1-flat"):
        coupled_alpha_infty(PointCloudPair(line, None))
    pair = PointCloudPair([[0.0, 0.0], [1.0, 0.0]], [[2.0, 0.0], [3.5, 0.0]])
    with pytest.raises(DegenerateInput, match="2-flat"):
        coupled_alpha_infty(pair)


def test_round_trip_through_explicit_simplices(rng):
    pair = random_pair(rng)
    cplx = coupled_alpha_infty(pair)
    rebuilt = CoupledComplex(pair, list(cplx))
    assert set(rebuilt) == set(cplx)
    assert rebuilt.counts() == cplx.counts()


# Listings that are not a complex on the 3 points of ``three_points()``, with
# the refusal of ``CoupledComplex``. A bare filtration has no pair; there
# vertex 7 is refused because (0, 7) is listed without its face (7,).
BAD_LISTINGS = {
    "negative index": ([(-1,), (0,), (-1, 0)], r"\(-1,\) names a vertex outside 0\.\.2"),
    "index beyond the points": (
        [(0,), (1,), (2,), (0, 7)],
        r"\(0, 7\) names a vertex outside 0\.\.2",
    ),
    "vertices out of order": ([(0,), (1,), (1, 0)], r"\(1, 0\) is not strictly increasing"),
    "triangle without an edge": (
        [(0,), (1,), (2,), (0, 1), (0, 2), (0, 1, 2)],
        r"not closed under faces: \(0, 1, 2\) lacks \(1, 2\)",
    ),
}


def three_points():
    return PointCloudPair([[0.0, 0.0], [2.0, 0.0]], [[1.0, 1.0]])


def by_width(listing):
    """The listing as ``cells=`` arrays, one per width from 1 up."""
    top = max(map(len, listing))
    return [
        np.array([s for s in listing if len(s) == k], dtype=np.int64).reshape(-1, k)
        for k in range(1, top + 1)
    ]


def faces_of(simplex):
    """Every non-empty face of a sorted tuple, itself included."""
    return [
        face for size in range(1, len(simplex) + 1)
        for face in itertools.combinations(simplex, size)
    ]


@pytest.mark.parametrize("listing,message", list(BAD_LISTINGS.values()), ids=list(BAD_LISTINGS))
def test_constructor_refuses_non_complex(listing, message):
    with pytest.raises(ValueError, match=message):
        CoupledComplex(three_points(), listing)
    if "lacks" in message:  # cells generate their faces
        assert set(CoupledComplex(three_points(), cells=by_width(listing))) == set(
            itertools.chain.from_iterable(map(faces_of, listing))
        )
    else:
        with pytest.raises(ValueError, match=message):
            CoupledComplex(three_points(), cells=by_width(listing))
    with pytest.raises(ValueError):
        FilteredComplex({s: float(len(s) - 1) for s in listing})


@pytest.mark.parametrize("vertices", [[[0], [2], [1]], [[0], [1], [1], [2]]], ids=["order", "repeat"])
def test_given_rows_must_be_distinct_and_ordered(vertices):
    # Cells in any order, or repeated, are stored distinct and in lexicographic order.
    for pair in (None, three_points()):
        for cplx in (CoupledComplex(pair, cells=[np.array(vertices)]),
                     CoupledComplex(pair, [tuple(v) for v in vertices])):
            assert [r.tolist() for r in cplx.rows] == [[[0], [1], [2]]]
            assert list(cplx) == [(0,), (1,), (2,)]


def test_pairless_complex_names_a_negative_vertex():
    with pytest.raises(ValueError, match=r"^simplex \(-1,\) names a negative vertex$"):
        FilteredComplex({(-1,): 0.0})
    with pytest.raises(ValueError, match=r"^simplex \(-2, 0\) names a negative vertex$"):
        CoupledComplex(None, cells=[np.array([[0, 1], [-2, 0]])])


def test_listing_refuses_a_non_integer_vertex():
    # A listing goes through the integer check of ``cells=``; nothing is truncated.
    with pytest.raises(ValueError, match=r"^simplex \(1\.9,\) has a non-integer vertex$"):
        CoupledComplex(None, [(0,), (1.9,), (0, 1.2)])
    with pytest.raises(ValueError, match=r"^simplex \(0\.5,\) has a non-integer vertex$"):
        FilteredComplex({(0.5,): 0.0, (1,): 0.0})
    # A bool beside ints is refused too, not read as 1.
    with pytest.raises(ValueError, match=r"^simplex \(True,\) has a non-integer vertex$"):
        CoupledComplex(None, [(0,), (True,)])
    with pytest.raises(ValueError, match=r"^simplex \(True,\) has a non-integer vertex$"):
        FilteredComplex({(0,): 0.0, (True,): 0.0})


def test_listing_refuses_a_vertex_beyond_int64():
    # NumPy would read these as float64 or object; the message names them as given.
    with pytest.raises(ValueError, match=r"^simplex \(9223372036854775808,\) names a vertex beyond"):
        CoupledComplex(None, [(0,), (2**63,)])
    with pytest.raises(ValueError, match=r"^simplex \(18446744073709551615,\) names a vertex beyond"):
        FilteredComplex({(0,): 0.0, (2**64 - 1,): 0.0})
    with pytest.raises(ValueError, match=r"^simplex \(0, 18446744073709551615\) names a vertex beyond"):
        CoupledComplex(three_points(), [(0,), (0, np.uint64(2**64 - 1))])


def test_listing_and_cells_are_not_both_given():
    with pytest.raises(ValueError, match="^give a listing or cells, not both$"):
        CoupledComplex(three_points(), [(0,), (1,), (0, 1)], cells=[np.array([[0, 1, 2]])])
    assert len(CoupledComplex(three_points(), [], cells=[np.array([[0, 1]])])) == 4


def test_cells_in_any_order_with_repeats_build_the_same_complex():
    cells = np.array([[0, 1, 2], [0, 1, 2]])
    shuffled = [np.array([[1, 2], [0, 2], [1, 2]]), cells, np.array([[2], [0]])]
    for given in ([cells], shuffled):
        cplx = CoupledComplex(three_points(), cells=given)
        assert [r.tolist() for r in cplx.rows] == [
            [[0], [1], [2]], [[0, 1], [0, 2], [1, 2]], [[0, 1, 2]]
        ]
        assert [cplx.facet_index(k).tolist() for k in (1, 2)] == [
            [[1, 0], [2, 0], [2, 1]], [[2, 1, 0]]
        ]


@pytest.mark.parametrize(
    "cells,message",
    [
        ([np.array([1, 2])], r"int64 of shape \(2,\)"),
        ([np.zeros((2, 0), dtype=np.int64)], r"int64 of shape \(2, 0\)"),
        ([np.array([[0.5, 1.0]])], r"float64 of shape \(1, 2\)"),
        ([[[0], [1.5]]], r"float64 of shape \(2, 1\)"),
        ([np.array([[True, False]])], r"bool of shape \(1, 2\)"),
    ],
    ids=["1-D", "width 0", "float", "float list", "bool"],
)
def test_cells_must_be_integer_matrices(cells, message):
    prefix = "^cells must be 2-D integer arrays of width at least 1, not "
    with pytest.raises(ValueError, match=prefix + message):
        CoupledComplex(three_points(), cells=cells)


def test_cells_may_be_nested_lists_empty_or_unsigned():
    given = [[[0, 2]], np.zeros((0, 3), dtype=np.int64), np.array([[0, 1]], dtype=np.uint8)]
    cplx = CoupledComplex(three_points(), cells=given)
    assert [r.tolist() for r in cplx.rows] == [[[0], [1], [2]], [[0, 1], [0, 2]]]
    assert all(r.dtype == np.int64 for r in cplx.rows)


def test_unsigned_cells_beyond_int64_are_refused_as_given():
    # The int64 cast would wrap 2**64 - 1 to -1.
    cells = [np.array([[0], [2**64 - 1]], dtype=np.uint64), np.array([[0, 1]], dtype=np.uint64)]
    message = r"^simplex \(18446744073709551615,\) names a vertex beyond int64$"
    for pair in (None, PointCloudPair([[0.0, 0.0], [1.0, 0.0]], [[0.0, 1.0], [1.0, 1.0]])):
        with pytest.raises(ValueError, match=message):
            CoupledComplex(pair, cells=cells)


@st.composite
def _listings(draw):
    """Sorted tuples over vertices 0..7, as the generating cells of a complex."""
    simplex = st.lists(st.integers(0, 7), min_size=1, max_size=5, unique=True).map(sorted)
    return [tuple(s) for s in draw(st.lists(simplex, min_size=1, max_size=8))]


@settings(max_examples=200, deadline=None)
@given(_listings(), st.data())
def test_one_pass_closes_and_indexes_listings(cells, data):
    closure = set(itertools.chain.from_iterable(map(faces_of, cells)))
    cplx = CoupledComplex(None, cells=by_width(cells))
    assert set(cplx) == closure and len(cplx) == len(closure)
    for k, rows in enumerate(cplx.rows):
        assert rows.tolist() == sorted(s for s in map(list, closure) if len(s) == k + 1)
    for k in range(1, len(cplx.rows)):
        facet = cplx.facet_index(k)
        for i, row in enumerate(cplx.rows[k].tolist()):
            for j in range(k + 1):
                assert cplx.rows[k - 1][facet[i, j]].tolist() == row[:j] + row[j + 1 :]
    # The closed listing builds the same complex; without one face it is refused.
    listed = CoupledComplex(None, sorted(closure, reverse=True))
    assert len(listed.rows) == len(cplx.rows)
    assert all(np.array_equal(a, b) for a, b in zip(listed.rows, cplx.rows))
    dropped = data.draw(st.sampled_from(sorted(closure)))
    if any(len(s) > len(dropped) for s in closure if set(dropped) <= set(s)):
        lacks = re.escape(f"lacks {dropped}")
        with pytest.raises(ValueError, match=rf"not closed under faces: .* {lacks}$"):
            CoupledComplex(None, list(closure - {dropped}))


def test_one_unique_per_dimension(rng, monkeypatch):
    calls = []

    def counted(rows):
        calls.append(rows.shape[1])
        return unique(rows)

    monkeypatch.setattr(complexes, "unique", counted)
    cplx = coupled_alpha_infty(random_pair(rng))
    assert calls == list(range(len(cplx.rows), 0, -1))


def test_feasibility_matches_membership_at_infinity(rng):
    pair = random_pair(rng, max_x=4, max_y=4)
    cplx = coupled_alpha_infty(pair)
    members = set(cplx)
    exact = exact_filtration(pair).values
    for size in (1, 2, 3):
        for combo in itertools.combinations(range(pair.n_total), size):
            assert (combo in exact) == (combo in members)


def test_nested_samples_go_in_as_the_points_added():
    x_prime = np.random.default_rng(6).random((9, 2))
    x = x_prime[:6]
    # Passed whole, X' repeats every point of X: refused, naming the lowest in sorted order.
    message = r"^point 5 of X equals point 5 of Y \(vertex 11\); pass nested samples X ⊂ X' as \(X, X' minus X\)$"
    with pytest.raises(DegenerateInput, match=message):
        coupled_alpha_infty(PointCloudPair(x, x_prime))
    # One shared point is named by its index in each cloud.
    with pytest.raises(DegenerateInput, match=r"^point 4 of X equals point 1 of Y \(vertex 7\)"):
        coupled_alpha_infty(PointCloudPair(x, x_prime[[8, 4]]))
    # As (X, X' minus X) the union is X' and the alpha complex of X is inside.
    pair = PointCloudPair(x, x_prime[6:])
    assert np.array_equal(pair.points, x_prime)
    assert set(alpha_infty(x)) <= set(coupled_alpha_infty(pair))
