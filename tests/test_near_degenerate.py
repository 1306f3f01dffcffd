"""Near-degenerate inputs: refused, or answered as the exact oracle answers.

Three planted d=2 families sit close to a degeneracy of the lifted
triangulation: cocircular points, a grid beside a shifted copy of its
corner, and points of X nearly repeated in Y. Each is jittered by eps.
"""

import numpy as np
import pytest

from coupledalpha import (
    AmbiguousTriangulation,
    DegenerateInput,
    PointCloudPair,
    coupled_alpha_infty,
    coupled_filtration,
    persistence_diagram,
)
from coupledalpha.homology import diagram_discrepancy
from coupledalpha.oracle import exact_filtration

DRAWS = 10


def circle(rng, eps):
    """7 points of the unit circle, jittered, split 4 + 3."""
    angles = 2.0 * np.pi * rng.random(7)
    pts = np.column_stack([np.cos(angles), np.sin(angles)]) + eps * rng.standard_normal((7, 2))
    return PointCloudPair(pts[:4], pts[4:])


def grid(rng, eps):
    """A 3x3 grid beside its 2x2 corner shifted by 0.25, jittered."""
    x = np.array([[i, j] for i in range(3) for j in range(3)], dtype=float)
    y = x[[0, 1, 3, 4]] + 0.25
    return PointCloudPair(x + eps * rng.standard_normal(x.shape), y + eps * rng.standard_normal(y.shape))


def near_shared(rng, eps):
    """6 uniform X points; Y is 3 of them moved by eps and 3 uniform points."""
    x = rng.random((6, 2))
    return PointCloudPair(x, np.vstack([x[:3] + eps * rng.standard_normal((3, 2)), rng.random((3, 2))]))


def test_gabriel_test_takes_no_tolerance():
    # Y point 6 lies 1e-8 from X point 0. A Gabriel test forgiving a vertex
    # EPS·(1 + r) inside a ball kept a relaxed value too low here and left an
    # extra H1 interval 3.8e-10 long.
    pair = near_shared(np.random.default_rng(4), 1e-8)
    fast = persistence_diagram(coupled_filtration(coupled_alpha_infty(pair)))
    exact = persistence_diagram(exact_filtration(pair))
    assert diagram_discrepancy(fast, exact, range(2), min_length=1e-12) <= 1e-12


@pytest.mark.parametrize("family", [circle, grid, near_shared])
@pytest.mark.parametrize("eps", [1e-5, 1e-7, 1e-8])
def test_refused_or_exact_complex(family, eps):
    rng = np.random.default_rng(13)
    answered = 0
    for _ in range(DRAWS):
        pair = family(rng, eps)
        try:
            cplx = coupled_alpha_infty(pair)
        except (AmbiguousTriangulation, DegenerateInput):
            continue
        assert set(cplx) == set(exact_filtration(pair).values)
        answered += 1
    print(f"{family.__name__} eps={eps:g}: {DRAWS - answered} of {DRAWS} refused")
