"""Persistence: boundary reduction, diagrams, Betti numbers, known shapes."""

import itertools
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coupledalpha import (
    PointCloudPair,
    boundary_matrix,
    coupled_alpha_infty,
    coupled_filtration,
    jitter,
    persistence_diagram,
    reduce_and_pair,
)
from coupledalpha.filtration import FilteredComplex
from coupledalpha.homology import Interval, NonMonotone, diagram_discrepancy
from conftest import (
    alpha_filtration,
    betti_at,
    max_value,
    random_pair,
    reference_diagram,
    reference_order,
    reference_pairs,
)

TRIANGLE = FilteredComplex(
    {
        (0,): 0.0,
        (1,): 0.0,
        (2,): 0.0,
        (0, 1): 1.0,
        (0, 2): 2.0,
        (1, 2): 3.0,
        (0, 1, 2): 4.0,
    }
)


def _ordered(fc, order):
    """Per dimension, the simplices of ``fc`` as tuples in the order ``order``."""
    return [[tuple(r) for r in rows[o].tolist()] for rows, o in zip(fc.cplx.rows, order)]


def test_boundary_matrix_squares_to_zero(rng):
    pair = random_pair(rng)
    fc = coupled_filtration(coupled_alpha_infty(pair))
    order, columns = boundary_matrix(fc)
    simplices = _ordered(fc, order)
    position = {s: i for i, s in enumerate(reference_order(fc))}
    for k in range(1, len(columns)):
        for simplex, facet_ranks in zip(simplices[k], columns[k].tolist()):
            assert sorted(simplices[k - 1][r] for r in facet_ranks) == sorted(
                simplex[:drop] + simplex[drop + 1 :] for drop in range(len(simplex))
            )
            # Facets sit strictly before the simplex in the filtration order.
            assert all(position[simplices[k - 1][r]] < position[simplex] for r in facet_ranks)
            if k >= 2:
                acc = 0
                for r in facet_ranks:
                    for rr in columns[k - 1][r].tolist():
                        acc ^= 1 << rr
                assert acc == 0, f"boundary of boundary nonzero at {simplex}"


def test_boundary_matrix_requires_closure():
    with pytest.raises(ValueError):
        boundary_matrix(FilteredComplex({(0,): 0.0, (1,): 0.0, (0, 1, 2): 1.0}))


def test_boundary_matrix_requires_monotone():
    with pytest.raises(NonMonotone):
        boundary_matrix(
            FilteredComplex({(0,): 0.0, (1,): 0.5, (0, 1): 0.2})
        )


def test_reduce_and_pair_pivots_unique(rng):
    for fc in (TRIANGLE, coupled_filtration(coupled_alpha_infty(random_pair(rng, dim=3)))):
        _, columns = boundary_matrix(fc)
        pairs = reduce_and_pair(columns)
        for k in range(1, len(columns)):
            births, deaths = pairs[k].T.tolist()
            assert len(births) == len(set(births)) and len(deaths) == len(set(deaths))
            assert set(births) <= set(range(len(columns[k - 1])))
            assert set(deaths) <= set(range(len(columns[k])))
            # A simplex either creates a class or kills one, never both.
            if k + 1 < len(columns):
                assert not set(deaths) & set(pairs[k + 1][:, 0].tolist())


def _simplex_pairs(fc):
    """Persistence pairs as (birth simplex, death simplex), from the fast path."""
    order, columns = boundary_matrix(fc)
    simplices = _ordered(fc, order)
    return {
        (simplices[k - 1][b], simplices[k][d])
        for k, pairs in enumerate(reduce_and_pair(columns))
        for b, d in pairs.tolist()
    }


def _tied_filtrations():
    """Hand-built filtrations with many values tied within and across dimensions."""
    out = [TRIANGLE]
    # A solid tetrahedron on two levels: vertices and edges at 0, the rest at 1.
    faces = [s for size in range(1, 5) for s in itertools.combinations(range(4), size)]
    out.append(FilteredComplex({s: float(len(s) // 2) for s in faces}))
    # Every simplex of a 6-vertex 2-skeleton plus some tetrahedra on three levels.
    rng = np.random.default_rng(11)
    levels = [0.0, 1.0, 2.0]
    values = {(v,): 0.0 for v in range(6)}
    for size in (2, 3, 4):
        for s in itertools.combinations(range(6), size):
            if size == 4 and rng.random() < 0.6:
                continue
            floor = max(values[s[:d] + s[d + 1 :]] for d in range(size))
            values[s] = max(floor, float(rng.choice(levels)))
    out.append(FilteredComplex(values))
    # All values equal: every pair is zero-length.
    out.append(FilteredComplex({s: 0.5 for s in values}))
    return out


def _edge_cases():
    return [
        FilteredComplex({}),
        FilteredComplex({(0,): 0.0}),
        FilteredComplex({(0,): 0.0, (1,): 0.25, (0, 1): 1.0}),
        FilteredComplex({(0,): 0.0, (1,): 0.0, (2,): 0.5}),  # no edges
    ]


def test_diagrams_match_the_plain_reduction():
    seeded = np.random.default_rng(606)
    fcs = _tied_filtrations() + _edge_cases()
    for dim in (2, 3):
        for _ in range(3):
            pair = random_pair(seeded, dim=dim, max_x=9, max_y=9)
            fcs.append(coupled_filtration(coupled_alpha_infty(pair)))
    fcs.append(alpha_filtration(seeded.random((25, 2))))
    fcs.append(alpha_filtration(seeded.random((20, 3))))
    for fc in fcs:
        fast = Counter(persistence_diagram(fc).all_intervals)
        assert fast == Counter(reference_diagram(fc).all_intervals)
        simplices, pairs = reference_pairs(fc)
        assert _simplex_pairs(fc) == {(simplices[i], simplices[j]) for i, j in pairs}
    assert not persistence_diagram(FilteredComplex({})).all_intervals
    one_vertex = persistence_diagram(FilteredComplex({(0,): 0.0}))
    assert one_vertex.all_intervals == [Interval(0, 0.0, math.inf)]


def test_filtration_order_breaks_ties_by_dimension_then_vertices():
    for fc in _tied_filtrations():
        dim, index = fc.order()
        got = [tuple(fc.cplx.rows[k][i].tolist()) for k, i in zip(dim.tolist(), index.tolist())]
        assert got == reference_order(fc)
        assert [s for s, _ in fc.sorted_items()] == got
        order, _ = boundary_matrix(fc)
        assert sum(_ordered(fc, order), []) == sorted(got, key=len)


def test_persistence_memory_follows_the_nonzeros():
    # A seeded d=3 100+100 pair of about 18,000 simplices. Bitmask columns as
    # wide as each simplex's filtration position peaked at 22 MiB here, and
    # bitmasks over ranks for the reduced columns at 4 MiB; facet index arrays,
    # with stored columns as lists and sets of ranks, peak at 2.3 MiB.
    rng = np.random.default_rng(5)
    pair = PointCloudPair(rng.random((100, 3)), rng.random((100, 3)))
    fc = coupled_filtration(coupled_alpha_infty(pair))
    tracemalloc.start()
    try:
        persistence_diagram(fc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_reduction_memory_grows_with_the_simplices():
    # Stored columns as lists and sets take memory per nonzero: the peak per
    # simplex grows x1.07 from 100+100 to 200+200 here, where bitmasks as wide
    # as each pivot's rank grew x1.66.
    per_simplex = []
    for n in (100, 200):
        rng = np.random.default_rng(5)
        pair = PointCloudPair(rng.random((n, 3)), rng.random((n, 3)))
        _, columns = boundary_matrix(coupled_filtration(coupled_alpha_infty(pair)))
        tracemalloc.start()
        try:
            reduce_and_pair(columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        per_simplex.append(peak / sum(map(len, columns)))
    assert per_simplex[1] <= 1.25 * per_simplex[0]


@st.composite
def _monotone_filtrations(draw):
    """Closed complexes on at most 7 vertices up to dimension 3, with monotone
    values from {0, 1, 2}, so that ties and clearing are common."""
    simplex = st.lists(st.integers(0, 6), min_size=1, max_size=4, unique=True).map(sorted)
    cells = draw(st.lists(simplex, min_size=1, max_size=10))
    faces = {f for c in cells for size in range(1, 5) for f in itertools.combinations(c, size)}
    values = {}
    for s in sorted(faces, key=len):
        facets = [s[:d] + s[d + 1 :] for d in range(len(s))] if len(s) > 1 else []
        values[s] = max([float(draw(st.sampled_from((0, 1, 2))))] + [values[f] for f in facets])
    return FilteredComplex(values)


@settings(max_examples=200, deadline=None)
@given(_monotone_filtrations())
def test_reduction_matches_the_reference_on_random_complexes(fc):
    simplices, pairs = reference_pairs(fc)
    assert _simplex_pairs(fc) == {(simplices[i], simplices[j]) for i, j in pairs}


def test_a_nan_value_is_refused():
    for values, simplex in (
        ({(0,): 0.0, (1,): 0.0, (0, 1): math.nan}, r"\(0, 1\)"),
        ({(0,): 0.0, (1,): math.nan, (0, 1): 1.0}, r"\(1,\)"),
    ):
        with pytest.raises(ValueError, match=rf"^{simplex} has value nan$"):
            persistence_diagram(FilteredComplex(values))
    # An infinite value stays allowed: the edge kills one class at infinity.
    late = persistence_diagram(FilteredComplex({(0,): 0.0, (1,): 0.0, (0, 1): math.inf}))
    assert late.all_intervals == [Interval(0, 0.0, math.inf)] * 2


def test_triangle_diagram_by_hand():
    dgm = persistence_diagram(TRIANGLE)
    h0 = dgm.intervals(0)
    assert [(iv.birth, iv.death) for iv in h0] == [
        (0.0, 1.0),
        (0.0, 2.0),
        (0.0, math.inf),
    ]
    h1 = dgm.intervals(1)
    assert [(iv.birth, iv.death) for iv in h1] == [(3.0, 4.0)]


def test_hollow_triangle_h1_never_dies():
    fc = FilteredComplex(
        {(0,): 0.0, (1,): 0.0, (2,): 0.0, (0, 1): 1.0, (0, 2): 1.5, (1, 2): 2.5}
    )
    dgm = persistence_diagram(fc)
    assert [(iv.birth, iv.death) for iv in dgm.intervals(1)] == [(2.5, math.inf)]


def test_betti_conventions_half_open():
    dgm = persistence_diagram(TRIANGLE)
    assert betti_at(dgm, 0.0, 0) == 3
    assert betti_at(dgm, 1.0, 0) == 2  # half-open: dead at its death value
    assert betti_at(dgm, 3.0, 1) == 1
    assert betti_at(dgm, 4.0, 1) == 0
    assert betti_at(dgm, 10.0, 0) == 1


def test_euler_characteristic_identity(rng):
    # Alternating simplex counts at level r equal alternating Betti numbers.
    pair = random_pair(rng, max_x=5, max_y=5)
    fc = coupled_filtration(coupled_alpha_infty(pair))
    dgm = persistence_diagram(fc)
    values = sorted({v for v in fc.values.values()})
    probes = [0.0] + [0.5 * (a + b) for a, b in zip(values, values[1:])] + [
        max_value(fc) * 1.1
    ]
    for r in probes:
        euler_cells = sum(
            (-1) ** (len(s) - 1) for s, v in fc.values.items() if v <= r
        )
        euler_betti = sum(
            (-1) ** k * betti_at(dgm, r, k) for k in range(pair.dim + 2)
        )
        assert euler_cells == euler_betti


def test_top_dimensions_vanish(rng):
    for _ in range(4):
        pair = random_pair(rng, max_x=6, max_y=6)
        fc = coupled_filtration(coupled_alpha_infty(pair))
        dgm = persistence_diagram(fc)
        for r in np.linspace(0.0, max_value(fc) * 1.05, 9):
            assert betti_at(dgm, float(r), pair.dim) == 0
            assert betti_at(dgm, float(r), pair.dim + 1) == 0


def test_octagon_single_h1_interval():
    angles = 2.0 * np.pi * np.arange(8) / 8.0
    ring = np.column_stack([np.cos(angles), np.sin(angles)])
    fc = alpha_filtration(jitter(ring, magnitude=1e-7, seed=0))
    dgm = persistence_diagram(fc)
    finite = [
        iv
        for iv in dgm.intervals(1)
        if math.isfinite(iv.death) and iv.length > 1e-6
    ]
    assert len(finite) == 1
    assert finite[0].birth == pytest.approx(math.sin(math.pi / 8.0), abs=1e-6)
    assert finite[0].death == pytest.approx(1.0, abs=1e-6)


def test_diagram_discrepancy_semantics():
    a = persistence_diagram(TRIANGLE)
    assert diagram_discrepancy(a, a, dims=[0, 1]) == 0.0
    shifted = FilteredComplex(
        {s: (v + 1e-4 if len(s) == 3 else v) for s, v in TRIANGLE.values.items()}
    )
    b = persistence_diagram(shifted)
    assert diagram_discrepancy(a, b, dims=[1]) == pytest.approx(1e-4, abs=1e-12)
    # Cardinality mismatch reports inf; a min_length floor can repair it.
    short = FilteredComplex(
        {
            **TRIANGLE.values,
            (3,): 0.0,
            (1, 3): 3.9,
            (2, 3): 3.9 + 5e-7,
            (1, 2, 3): 3.9 + 8e-7,
        }
    )
    c = persistence_diagram(short)
    assert [iv.length for iv in c.intervals(1)] == pytest.approx([1.0, 3e-7])
    assert diagram_discrepancy(a, c, dims=[1]) == math.inf
    assert diagram_discrepancy(a, c, dims=[1], min_length=1e-6) == 0.0


def test_zero_length_intervals_hidden_by_default():
    fc = FilteredComplex(
        {(0,): 0.0, (1,): 0.0, (0, 1): 0.0}
    )
    dgm = persistence_diagram(fc)
    assert len(dgm.intervals(0)) == 1  # only the essential class
    assert len([iv for iv in dgm.all_intervals if iv.dim == 0]) == 2


def test_slivers_are_not_reported_as_homology():
    # Top Betti vanishing: an R^3 pair has no H3 classes. Tied values that
    # floating point reached through different routes leave ulp slivers in
    # dimension 3, which intervals() must not report.
    rng = np.random.default_rng(0)
    pair = PointCloudPair(rng.random((20, 3)), rng.random((20, 3)))
    dgm = persistence_diagram(coupled_filtration(coupled_alpha_infty(pair)))
    assert dgm.intervals(3) == []
    slivers = [iv for iv in dgm.all_intervals if iv.dim == 3]
    assert slivers
    assert all(iv.length <= 1e-12 * iv.death for iv in slivers)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("dim,n_x,n_y", [(2, 150, 157), (3, 50, 57)])
def test_swapping_the_clouds_relabels_the_complex(dim, n_x, n_y, seed):
    # Lifting X to height 0 and Y to height 1 makes the swap a reflection of
    # the lift, so the complex is the same up to labels and the diagram agrees.
    rng = np.random.default_rng(seed)
    x, y = rng.random((n_x, dim)), rng.random((n_y, dim))
    cplx = coupled_alpha_infty(PointCloudPair(x, y))
    swapped = coupled_alpha_infty(PointCloudPair(y, x))
    # Swapped index i < n_y is Y[i], global n_x + i here; the rest are X.
    label = np.concatenate([np.arange(n_x, n_x + n_y), np.arange(n_x)])
    relabelled = {tuple(sorted(label[list(s)].tolist())) for s in swapped}
    assert swapped.counts() == cplx.counts() and relabelled == set(cplx)
    a = persistence_diagram(coupled_filtration(cplx))
    b = persistence_diagram(coupled_filtration(swapped))
    assert diagram_discrepancy(a, b) <= 1e-12
