"""Acceptance gate. One verdict line per graded check, at its stated tolerance.

Each test prints a single [PASS]/[FAIL] line directly to the terminal
(capture suspended) so the verdicts stay visible under any pytest options,
then asserts, so a failed check is also an ordinary test failure.
"""

import math
import time

import numpy as np
import pytest

from coupledalpha import (
    check_coupled_general_position,
    coupled_alpha_infty,
    coupled_filtration,
    diagram_discrepancy_vs_reference,
    jitter,
    persistence_diagram,
    relaxed_value,
    scaling_experiment,
)
from coupledalpha.cli import main as cli_main
from coupledalpha.harness import doubling_ratios
from coupledalpha.oracle import exact_filtration
from conftest import (
    alpha_filtration,
    at_radius,
    betti_at,
    max_value,
    minimize_relaxed,
    random_pair,
)


@pytest.fixture
def report(capsys):
    def _verdict(ok: bool, label: str) -> None:
        with capsys.disabled():
            print(f"[{'PASS' if ok else 'FAIL'}] {label}", flush=True)
        assert ok, label

    return _verdict


def test_acceptance_1_complex_equals_nerve(report):
    start = time.perf_counter()
    rng = np.random.default_rng(424242)
    ok = True
    for _ in range(50):
        pair = random_pair(rng, max_x=10, max_y=10)
        general, violations = check_coupled_general_position(pair)
        assert general, violations
        fast = set(coupled_alpha_infty(pair))
        if fast != set(exact_filtration(pair).values):
            ok = False
            break
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    report(
        ok,
        "acceptance 1: triangulation route equals the exact oracle's nerve "
        f"on 50 general-position instances ({elapsed:.1f}s < 60s)",
    )


def test_acceptance_2_diagrams_match_union_reference(report):
    start = time.perf_counter()
    rng = np.random.default_rng(77)
    worst = 0.0
    ok = True
    for _ in range(30):
        pair = random_pair(rng, max_x=7, max_y=7)
        verdict, diff = diagram_discrepancy_vs_reference(pair, tol=1e-6)
        worst = max(worst, diff)
        ok = ok and verdict
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120.0
    report(
        ok,
        "acceptance 2: coupled diagrams equal union reference in dims 0,1 "
        f"at 1e-6 with matching counts on 30 instances "
        f"(worst {worst:.1e}, {elapsed:.1f}s < 120s)",
    )


def test_acceptance_3_pure_side_values_and_inclusion(report):
    rng = np.random.default_rng(77)
    ok = True
    worst = 0.0
    for _ in range(30):
        pair = random_pair(rng, max_x=7, max_y=7)
        fc = coupled_filtration(coupled_alpha_infty(pair))
        fa = alpha_filtration(pair.x)
        for simplex, value in fa.values.items():
            coupled = fc.values.get(simplex)
            if coupled is None:
                ok = False
                continue
            worst = max(worst, abs(coupled - value))
        ok = ok and worst <= 1e-9
        for r in np.linspace(0.0, max_value(fa) * 1.05, 20):
            if not set(at_radius(fa, float(r))) <= set(at_radius(fc, float(r))):
                ok = False
    report(
        ok,
        "acceptance 3: pure-side values match the single-cloud filtration "
        f"within 1e-9 (worst {worst:.1e}) and its complex is included at "
        "20 radii on all 30 instances",
    )


def test_acceptance_4_exact_values_certify_filtration(report):
    rng = np.random.default_rng(1234)
    ok = True
    worst = 0.0
    checked = 0
    while checked < 100:
        pair = random_pair(rng)
        fc = coupled_filtration(coupled_alpha_infty(pair))
        exact = exact_filtration(pair).values
        candidates = sorted(s for s in fc.values if len(s) >= 2)
        take = min(10, len(candidates), 100 - checked)
        for idx in rng.permutation(len(candidates))[:take]:
            simplex = candidates[idx]
            value = fc.values[simplex]
            # Within 1e-12 relative, so feasibility flips inside value*(1 +/- 1e-4) too.
            error = abs(exact.get(simplex, math.inf) - value) / value
            worst = max(worst, error)
            ok = ok and error <= 1e-12
            checked += 1
    report(
        ok,
        "acceptance 4: exact oracle values match direct filtration values within "
        f"1e-12 relative on 100 simplexes (worst {worst:.1e})",
    )


def test_acceptance_5_relaxed_value_reference(report):
    rng = np.random.default_rng(5150)
    shapes = [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1)]
    ok = True
    worst = 0.0
    for i in range(200):
        n_x, n_y = shapes[i % len(shapes)]
        q_x = 2.0 * rng.random((n_x, 2))
        q_y = 2.0 * rng.random((n_y, 2))
        diff = abs(
            relaxed_value(q_x, q_y).relaxed_radius - minimize_relaxed(q_x, q_y)
        )
        worst = max(worst, diff)
        ok = ok and diff <= 1e-6
    fixtures = [
        ([[0.0, 0.0]], [[3.0, 0.0]], 1.5),
        ([[0.0, 0.0], [2.0, 0.0]], [[1.0, 1.0]], 1.0),
        ([[0.0, 0.0], [0.0, 2.0]], [[0.5, 1.0]], 1.0),
        ([[0.0, 0.0], [0.0, 2.0]], [[5.0, 1.0]], 2.6),
    ]
    fixture_worst = 0.0
    for q_x, q_y, expected in fixtures:
        fixture_worst = max(
            fixture_worst, abs(relaxed_value(q_x, q_y).relaxed_radius - expected)
        )
    ok = ok and fixture_worst <= 1e-9
    report(
        ok,
        "acceptance 5: relaxed values match nested golden-section reference "
        f"within 1e-6 on 200 mixed simplexes (worst {worst:.1e}); the four "
        f"worked fixtures reproduce to 1e-9 (worst {fixture_worst:.1e})",
    )


def test_acceptance_6_top_betti_numbers_vanish(report):
    # A solid simplex and its boundary facets can carry mathematically tied
    # values computed through independent arithmetic, so pairs one or two
    # ulp apart occur; radii inside such windows are not meaningful levels.
    # Probed radii skip gaps below 1e-9 and any leftover interval in dims
    # 2, 3 must be shorter than 1e-12, three decades under every graded
    # tolerance in this suite.
    rng = np.random.default_rng(77)
    ok = True
    three_simplexes = 0
    longest = 0.0
    for _ in range(30):
        pair = random_pair(rng, max_x=7, max_y=7)
        fc = coupled_filtration(coupled_alpha_infty(pair))
        three_simplexes += sum(1 for s in fc.values if len(s) == 4)
        dgm = persistence_diagram(fc)
        for iv in dgm.all_intervals:
            if iv.dim in (2, 3):
                longest = max(longest, iv.length)
                ok = ok and iv.length <= 1e-12
        values = sorted(set(fc.values.values()))
        probes = (
            [0.0]
            + [0.5 * (a + b) for a, b in zip(values, values[1:]) if b - a > 1e-9]
            + [max_value(fc) * 1.1]
        )
        for r in probes:
            ok = ok and betti_at(dgm, r, 2) == 0 and betti_at(dgm, r, 3) == 0
    ok = ok and three_simplexes > 0
    report(
        ok,
        "acceptance 6: betti numbers in dims 2 and 3 vanish at every tested "
        f"radius on 30 planar instances holding {three_simplexes} "
        f"3-simplexes (worst tie window {longest:.1e})",
    )


def test_acceptance_7_linear_size_scaling(report):
    start = time.perf_counter()
    records = scaling_experiment([100, 200, 400], trials=10, dim=2, seed=0)
    elapsed = time.perf_counter() - start
    ratios = doubling_ratios(records)
    seen = []
    ok = elapsed < 300.0
    for k in range(4):
        pairs = ratios[k]
        ok = ok and len(pairs) == 2
        for _, q in pairs:
            seen.append(q)
            ok = ok and 1.6 <= q <= 2.4
    report(
        ok,
        "acceptance 7: doubling ratios of mean k-simplex counts stay in "
        f"[1.6, 2.4] for k <= 3 at n in {{100, 200, 400}} x 10 trials "
        f"(range {min(seen):.3f}..{max(seen):.3f}, {elapsed:.0f}s < 300s)",
    )


def test_acceptance_8_octagon_interval(report):
    angles = 2.0 * np.pi * np.arange(8) / 8.0
    ring = np.column_stack([np.cos(angles), np.sin(angles)])
    fc = alpha_filtration(jitter(ring, magnitude=1e-7, seed=0))
    finite = [
        iv
        for iv in persistence_diagram(fc).intervals(1)
        if math.isfinite(iv.death) and iv.length > 1e-6
    ]
    ok = len(finite) == 1
    birth_err = death_err = math.inf
    if ok:
        birth_err = abs(finite[0].birth - math.sin(math.pi / 8.0))
        death_err = abs(finite[0].death - 1.0)
        ok = birth_err <= 1e-6 and death_err <= 1e-6
    report(
        ok,
        "acceptance 8: octagon gives one finite H1 interval, birth within "
        f"{birth_err:.1e} of sin(pi/8) and death within {death_err:.1e} of 1 "
        "(tol 1e-6)",
    )


def test_acceptance_9_cli_determinism(report, tmp_path, capsys):
    rng = np.random.default_rng(99)
    x_path = tmp_path / "x.csv"
    y_path = tmp_path / "y.csv"
    x_path.write_text(
        "".join(f"{float(a)!r},{float(b)!r}\n" for a, b in rng.random((6, 2)))
    )
    y_path.write_text(
        "".join(f"{float(a)!r},{float(b)!r}\n" for a, b in rng.random((5, 2)))
    )
    commands = [
        ["build", str(x_path), str(y_path)],
        ["diagram", str(x_path), str(y_path)],
        ["scaling", "--n-list", "20,40", "--trials", "3", "--seed", "11"],
    ]
    ok = True
    for argv in commands:
        runs = []
        for _ in range(2):
            code = cli_main(argv)
            runs.append(capsys.readouterr().out.encode())
            ok = ok and code == 0
        ok = ok and runs[0] == runs[1] and len(runs[0]) > 0
    report(
        ok,
        "acceptance 9: repeated fixed-seed CLI runs (build, diagram, "
        "scaling) are byte-identical",
    )
