"""Persistence: boundary reduction, diagrams, Betti numbers, known shapes."""

import math

import numpy as np
import pytest

from coupledalpha import (
    PointCloudPair,
    boundary_matrix,
    coupled_alpha_infty,
    coupled_filtration,
    jitter,
    persistence_diagram,
    reduce_and_pair,
)
from coupledalpha.filtration import FilteredComplex, alpha_filtration
from coupledalpha.homology import NonMonotone, diagram_discrepancy
from conftest import random_pair

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


def test_boundary_matrix_squares_to_zero(rng):
    pair = random_pair(rng)
    fc = coupled_filtration(coupled_alpha_infty(pair))
    simplices, columns = boundary_matrix(fc)
    position = {s: i for i, s in enumerate(simplices)}
    for simplex, column in zip(simplices, columns):
        acc = 0
        bits = column
        while bits:
            low = bits & -bits
            acc ^= columns[low.bit_length() - 1]
            bits ^= low
        assert acc == 0, f"boundary of boundary nonzero at {simplex}"
        # Column bits sit strictly below the simplex's own position.
        assert column < (1 << position[simplex])


def test_boundary_matrix_requires_closure():
    with pytest.raises(ValueError):
        boundary_matrix(FilteredComplex({(0,): 0.0, (1,): 0.0, (0, 1, 2): 1.0}))


def test_boundary_matrix_requires_monotone():
    with pytest.raises(NonMonotone):
        boundary_matrix(
            FilteredComplex({(0,): 0.0, (1,): 0.5, (0, 1): 0.2})
        )


def test_reduce_and_pair_pivots_unique():
    fc = TRIANGLE
    _, columns = boundary_matrix(fc)
    reduced, pivots = reduce_and_pair(columns)
    lows = [c.bit_length() - 1 for c in reduced if c]
    assert len(lows) == len(set(lows))
    assert set(pivots.values()) <= set(range(len(columns)))


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
    assert dgm.betti_at(0.0, 0) == 3
    assert dgm.betti_at(1.0, 0) == 2  # half-open: dead at its death value
    assert dgm.betti_at(3.0, 1) == 1
    assert dgm.betti_at(4.0, 1) == 0
    assert dgm.betti_at(10.0, 0) == 1


def test_euler_characteristic_identity(rng):
    # Alternating simplex counts at level r equal alternating Betti numbers.
    pair = random_pair(rng, max_x=5, max_y=5)
    fc = coupled_filtration(coupled_alpha_infty(pair))
    dgm = persistence_diagram(fc)
    values = sorted({v for v in fc.values.values()})
    probes = [0.0] + [0.5 * (a + b) for a, b in zip(values, values[1:])] + [
        fc.max_value() * 1.1
    ]
    for r in probes:
        euler_cells = sum(
            (-1) ** (len(s) - 1) for s, v in fc.values.items() if v <= r
        )
        euler_betti = sum(
            (-1) ** k * dgm.betti_at(r, k) for k in range(pair.dim + 2)
        )
        assert euler_cells == euler_betti


def test_top_dimensions_vanish(rng):
    for _ in range(4):
        pair = random_pair(rng, max_x=6, max_y=6)
        fc = coupled_filtration(coupled_alpha_infty(pair))
        dgm = persistence_diagram(fc)
        for r in np.linspace(0.0, fc.max_value() * 1.05, 9):
            assert dgm.betti_at(float(r), pair.dim) == 0
            assert dgm.betti_at(float(r), pair.dim + 1) == 0


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
    assert len(dgm.intervals(0, include_zero=True)) == 2


def test_slivers_are_not_reported_as_homology():
    # Top Betti vanishing: an R^3 pair has no H3 classes. Tied values that
    # floating point reached through different routes leave ulp slivers in
    # dimension 3, which intervals() must not report.
    rng = np.random.default_rng(0)
    pair = PointCloudPair(rng.random((20, 3)), rng.random((20, 3)), check=False)
    dgm = persistence_diagram(coupled_filtration(coupled_alpha_infty(pair)))
    assert dgm.intervals(3) == []
    assert dgm.intervals(3, include_zero=True)
    assert all(iv.length <= 1e-12 * iv.death for iv in dgm.all_intervals if iv.dim == 3)
