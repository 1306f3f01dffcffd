"""Triangulation routes: incremental vs definitional, invariances, refusals."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import Delaunay

from coupledalpha import (
    AmbiguousTriangulation,
    CoupledComplex,
    DegenerateInput,
    PointCloudPair,
    coupled_alpha_infty,
    delaunay_incremental,
    lift_clouds,
)
from coupledalpha import delaunay
from coupledalpha._rows import facet_columns, facets, once, unique
from coupledalpha.delaunay import _bowyer_watson, _CellStore, _verify_delaunay
from coupledalpha.geometry import _bisector_points, _hull_coordinates
from coupledalpha.reference import delaunay_bruteforce


def test_single_triangle():
    points = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    tri = delaunay_incremental(points)
    assert tri.cells == ((0, 1, 2),)
    cplx = CoupledComplex(PointCloudPair(points), cells=[np.array(tri.cells)])
    assert [r.tolist() for r in cplx.rows] == [[[0], [1], [2]], [[0, 1], [0, 2], [1, 2]], [[0, 1, 2]]]


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


def test_close_points_far_from_the_origin_span_an_edge():
    # 1.8e-4 apart near (1e3, 1e3): centring leaves round-off of about
    # 1e-13 across the edge (singular value 2.5e-14), which is no second
    # dimension of the affine hull.
    x = np.array(
        [[1000.005390565905, 1000.0015377939134], [1000.0053346940405, 1000.0013646485072]]
    )
    assert _hull_coordinates(x)[1] == 1
    assert delaunay_incremental(x).cells == ((0, 1),)
    for x_side, y_side in ((x, None), (np.zeros((0, 2)), x)):
        cplx = coupled_alpha_infty(PointCloudPair(x_side, y_side))
        assert cplx.simplices == ((0,), (1,), (0, 1))


def test_single_point_and_empty():
    assert delaunay_incremental([[0.5, 0.5]]).cells == ()
    assert delaunay_incremental(np.zeros((0, 2))).cells == ()


def _qhull_cases():
    for dim, n in [(2, 300), (3, 100), (2, 1000), (3, 200)]:
        yield pytest.param(dim, n, 1012 if n == 1000 else 1000 + dim, 1.0, 0.0, id=f"{dim}-{n}")
    # The spatial-200 benchmark shape at more seeds, and small planar pairs
    # under x -> 100 x + 1e3.
    for seed in range(1004, 1008):
        yield pytest.param(3, 200, seed, 1.0, 0.0, id=f"3-200-seed{seed}")
    for seed in range(1000, 1004):
        yield pytest.param(2, 60, seed, 100.0, 1e3, id=f"2-60-affine-seed{seed}")


@pytest.mark.parametrize("dim,n,seed,scale,shift", _qhull_cases())
def test_lifted_pairs_match_qhull(dim, n, seed, scale, shift):
    # The brute-force oracle cannot reach this scale; Qhull can. Centering
    # spares Qhull the offset, and Delaunay cells are translation invariant.
    # Seed 1002 at 1000+1000 is refused by contract: point 1547 lies 1.19e-9
    # outside the circumsphere (radius 0.50) of cell (824, 914, 924, 1087),
    # within the tolerance EPS (1 + r) = 1.50e-9.
    rng = np.random.default_rng(seed)
    lifted = lift_clouds(scale * rng.random((n, dim)) + shift, scale * rng.random((n, dim)) + shift)
    qhull = Delaunay(lifted - lifted.mean(axis=0))
    expected = tuple(sorted(tuple(sorted(int(v) for v in s)) for s in qhull.simplices))
    assert delaunay_incremental(lifted).cells == expected


def test_lifted_pair_matches_qhull_at_2000_per_cloud():
    rng = np.random.default_rng(7)
    lifted = lift_clouds(rng.random((2000, 2)), rng.random((2000, 2)))
    qhull = Delaunay(lifted - lifted.mean(axis=0))
    expected = tuple(sorted(tuple(sorted(int(v) for v in s)) for s in qhull.simplices))
    assert delaunay_incremental(lifted).cells == expected


def test_store_reuses_dead_rows(monkeypatch):
    # Each insertion kills its cavity and fills the freed rows first, so the
    # rows ever used exceed the live cells by at most one cavity.
    cavities = []
    kill = _CellStore.kill

    def counted_kill(self, rows):
        cavities.append(len(rows))
        kill(self, rows)

    monkeypatch.setattr(_CellStore, "kill", counted_kill)
    rng = np.random.default_rng(5)
    lifted = lift_clouds(rng.random((200, 3)), rng.random((200, 3)))
    store = _bowyer_watson(lifted)
    live = len(store.live())
    assert live <= store.count <= live + max(cavities)
    assert store.count - live == len(store.free)
    assert sum(cavities) > 2 * store.count  # without reuse, count would be live + sum(cavities)


@st.composite
def _cell_rows(draw):
    """Sorted int rows of one width, -1 included, sometimes with a facet planted in three rows."""
    width = draw(st.integers(2, 5))
    vertices = st.lists(st.integers(-1, 8), min_size=width, max_size=width, unique=True)
    rows = draw(st.lists(vertices.map(sorted), min_size=1, max_size=12))
    if draw(st.booleans()):
        extra = draw(st.lists(st.integers(-1, 8), min_size=width + 2, max_size=width + 2, unique=True))
        rows += [sorted(extra[: width - 1] + [v]) for v in extra[width - 1 :]]
    return np.array(rows, dtype=np.int64)


@settings(max_examples=300, deadline=None)
@given(_cell_rows())
def test_cavity_boundary_matches_unique_counts(rows):
    # The insertion loop gathers a cavity's facets through the store's drop
    # index and keeps those that occur once, refusing a facet seen 3+ times.
    faces = rows[np.arange(len(rows))[:, None, None], facet_columns(rows.shape[1])]
    faces = faces.reshape(-1, rows.shape[1] - 1)
    assert np.array_equal(faces, facets(rows))
    distinct, inverse = unique(faces)
    counts = np.bincount(inverse)
    boundary = once(faces)
    if (counts > 2).any():
        assert boundary is None
    else:
        assert np.array_equal(boundary, distinct[counts == 1])


@pytest.mark.parametrize("dim", [2, 3])
def test_one_certified_solve_per_insertion(monkeypatch, dim):
    # All new cells of an insertion are solved in one stacked call, and the
    # initial simplex with its hull cells in one more.
    calls = []
    solve = delaunay._certified_solve

    def counted(a, r):
        calls.append(len(a))
        return solve(a, r)

    monkeypatch.setattr(delaunay, "_certified_solve", counted)
    rng = np.random.default_rng(4000 + dim)
    lifted = lift_clouds(rng.random((40, dim)), rng.random((40, dim)))
    _bowyer_watson(lifted)
    assert len(calls) == 1 + len(lifted) - (dim + 2)


@pytest.mark.parametrize("dim", [2, 3])
def test_row_permutation_invariance(dim):
    # Permuting the rows changes which point the seeded order inserts when,
    # so this covers other insertion orders; the cells must not change.
    rng = np.random.default_rng(2000 + dim)
    lifted = lift_clouds(rng.random((60, dim)), rng.random((60, dim)))
    cells = delaunay_incremental(lifted).cells
    for _ in range(4):
        perm = rng.permutation(len(lifted))
        moved = delaunay_incremental(lifted[perm]).cells
        assert tuple(sorted(tuple(sorted(int(perm[v]) for v in cell)) for cell in moved)) == cells


def _scaled_lifted_pair(seed, n, dim, scale):
    rng = np.random.default_rng(seed)
    return lift_clouds(scale * rng.random((n, dim)), scale * rng.random((n, dim)))


def test_insertion_refuses_an_inconsistent_cavity():
    # At scale 1e-6 the absolute tolerance swamps the clouds' spread, so the
    # conflict tests of one insertion disagree: some facet of its cavity is
    # shared by more than two conflicting cells.
    with pytest.raises(AmbiguousTriangulation, match="cavity of point .* is inconsistent"):
        delaunay_incremental(_scaled_lifted_pair(189, 20, 2, 1e-6))


def test_insertion_refuses_a_lifted_pair_at_scale_1e6():
    # At scale 1e6 the unit lift height is tiny against the clouds' extent,
    # so the cells spanning both heights have huge, imprecise spheres, and
    # the absolute tolerances cannot tell them apart. Which check refuses
    # first depends on the rounding of those spheres.
    with pytest.raises(AmbiguousTriangulation):
        delaunay_incremental(_scaled_lifted_pair(175, 40, 2, 1e6))


def test_store_refuses_an_affinely_degenerate_cell():
    # Points 0, 1 and 2 are collinear, so cell (0, 1, 2) has no circumcircle;
    # it is named even when a sound cell comes in the same block.
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [0.5, 1.0]])
    store = _CellStore(coords, coords.mean(axis=0))
    with pytest.raises(AmbiguousTriangulation, match=r"cell \(0, 1, 2\) is affinely degenerate"):
        store.add(np.array([[0, 1, 3], [0, 1, 2]]))


@pytest.mark.parametrize("dim", [2, 3])
def test_store_solve_matches_bisector_and_qr_formulas(dim):
    # One square solve per row gives the spheres and hull planes that the
    # bisector solve and a complete QR of the facet edges give: finite rows
    # solve the very same system, so they agree exactly.
    rng = np.random.default_rng(3000 + dim)
    lifted = lift_clouds(rng.random((60, dim)), rng.random((60, dim)))
    store = _bowyer_watson(lifted)
    rows = store.live()
    hull = store.verts[rows, 0] == -1
    pts = lifted[store.verts[rows[~hull]]]
    centers = _bisector_points(pts[:, :1], pts[:, 1:], pts[:, 0])
    assert np.array_equal(store.centers[rows[~hull]], centers)
    assert np.array_equal(
        store.radii2[rows[~hull]], np.linalg.norm(centers - pts[:, 0], axis=1) ** 2
    )

    rows = rows[hull]
    facet = lifted[store.verts[rows, 1:]]
    centers = _bisector_points(facet[:, :1], facet[:, 1:], facet[:, 0])
    radii = np.linalg.norm(centers - facet[:, 0], axis=1)
    edges = np.swapaxes(facet[:, 1:] - facet[:, :1], 1, 2)
    normals = np.linalg.qr(edges, mode="complete")[0][:, :, -1]
    # The centroid of the points lies inside the hull, so it orients every plane.
    normals[np.einsum("ij,ij->i", normals, lifted.mean(axis=0) - facet[:, 0]) > 0] *= -1
    offsets = np.einsum("ij,ij->i", normals, facet[:, 0])
    tol = 1e-12
    assert (np.linalg.norm(store.centers[rows] - centers, axis=1) <= tol * radii).all()
    assert np.allclose(store.radii2[rows], radii**2, rtol=tol, atol=0.0)
    assert np.allclose(store.normals[rows], normals, rtol=0.0, atol=tol)
    assert np.allclose(store.offsets[rows], offsets, rtol=tol, atol=tol)


def _triangulated_store():
    # A convex pentagon around an interior point: finite and hull cells,
    # with every hull plane having points strictly on its inner side.
    coords = np.array([[0.0, 0.0], [4.0, 0.3], [5.1, 3.7], [1.9, 5.2], [-1.2, 2.9], [1.7, 2.1]])
    store = _bowyer_watson(coords)
    assert len(_verify_delaunay(coords, store)) == 5
    return coords, store


def _first_live(store, hull):
    return next(row for row in store.live() if (store.verts[row, 0] == -1) == hull)


def test_verifier_refuses_a_facet_shared_once():
    coords, store = _triangulated_store()
    store.kill([_first_live(store, hull=False)])
    with pytest.raises(AmbiguousTriangulation, match="exactly two"):
        _verify_delaunay(coords, store)


def test_verifier_refuses_a_flipped_hull_plane():
    coords, store = _triangulated_store()
    row = _first_live(store, hull=True)
    store.normals[row] *= -1.0
    store.offsets[row] *= -1.0
    with pytest.raises(AmbiguousTriangulation, match="outside hull cell"):
        _verify_delaunay(coords, store)


def test_verifier_refuses_a_point_inside_a_stored_sphere():
    coords, store = _triangulated_store()
    row = _first_live(store, hull=False)
    cell = store.verts[row]
    outsider = next(v for v in range(len(coords)) if v not in cell)
    # The centroid of a cell lies inside the hull and inside its circumsphere.
    coords[outsider] = coords[cell].mean(axis=0)
    with pytest.raises(AmbiguousTriangulation, match="strictly inside"):
        _verify_delaunay(coords, store)


def _quad_store(coords, diagonal):
    # Two triangles across one diagonal of a convex quadrilateral, and its
    # four hull edges as cells at infinity: the only interior facet is the
    # diagonal, so the sphere test there is the only one that can fail.
    a, b = diagonal
    c, d = (v for v in range(4) if v not in diagonal)
    store = _CellStore(coords, coords.mean(axis=0))
    cells = [sorted((a, b, c)), sorted((a, b, d))]
    cells += [[-1, *sorted((i, (i + 1) % 4))] for i in range(4)]
    store.add(np.array(cells))
    return store


def test_verifier_refuses_a_facet_that_is_not_locally_delaunay():
    coords = np.array([[0.0, 0.0], [3.0, 0.2], [3.4, 1.9], [0.3, 1.0]])
    assert _verify_delaunay(coords, _quad_store(coords, (1, 3))).tolist() == [[0, 1, 3], [1, 2, 3]]
    with pytest.raises(AmbiguousTriangulation, match=r"strictly inside .* cell \(0, 1, 2\)"):
        _verify_delaunay(coords, _quad_store(coords, (0, 2)))


def test_verifier_names_the_opposite_vertex_on_a_sphere():
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(AmbiguousTriangulation, match=r"point 3 lies on .* cell \(0, 1, 2\)"):
        _verify_delaunay(square, _quad_store(square, (0, 2)))
