"""Self-test of the benchmark's correctness gate.

Shows that the gate accepts true results and rejects corrupted ones (a
corrupted complex, a perturbed value, a dropped interval, a wrong scaled
diagram), checks the pipeline against the package's Cech oracle on pairs
small enough for it, and checks that ``BENCHMARK.json`` names exactly the
workloads and metrics the benchmark runs and reports. Prints one line per
check; exits 1 if any fails.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import sys

from setup_probe import ROOT, MissingProgram, import_package


def main() -> int:
    try:
        ca = import_package()
    except MissingProgram as exc:
        print(f"selftest: {exc}", file=sys.stderr)
        return 2
    import numpy as np

    import gate
    from pipeline import run

    outcomes: list[bool] = []

    def expect(label: str, problems: list[str], rejected: bool) -> None:
        ok = bool(problems) == rejected
        outcomes.append(ok)
        verdict = ("rejected: " + problems[0]) if problems else "accepted"
        print(f"[{'PASS' if ok else 'FAIL'}] {label}: {verdict}")

    rng = np.random.default_rng(7)
    for dim, n in ((2, 40), (3, 20)):
        x, y = rng.random((n, dim)), rng.random((n, dim))
        r = run(ca, x, y)
        expect(f"d={dim} true result", gate.check_result(x, y, r.simplices, r.values, r.intervals), False)

        cells = [s for s in r.simplices if len(s) == dim + 2]
        bad = set(r.simplices) - {cells[0]}
        bad_values = {s: v for s, v in r.values.items() if s in bad}
        expect(f"d={dim} complex missing a cell",
               gate.check_result(x, y, tuple(bad), bad_values, r.intervals), True)

        points = np.vstack([x, y])
        far = int(np.argmax(np.linalg.norm(points - points[list(cells[0])].mean(axis=0), axis=1)))
        swapped = tuple(sorted(set(cells[0][:-1]) | {far}))
        extra = set(r.simplices) | {swapped}
        expect(f"d={dim} complex with a foreign cell",
               gate.check_complex(x, y, tuple(extra)), True)

        top = cells[0]
        lowered = dict(r.values)
        lowered[top] = min(r.values[top[:-1]], r.values[top[1:]]) * 0.5
        expect(f"d={dim} cell value below its facet",
               gate.check_filtration(x, y, r.simplices, lowered), True)

        edge = min((s for s in r.simplices if len(s) == 2), key=r.values.get)
        shrunk = dict(r.values)
        shrunk[edge] = 0.25 * r.values[edge]
        expect(f"d={dim} edge value below half its length",
               gate.check_filtration(x, y, r.simplices, shrunk), True)

        h0 = next(i for i, iv in enumerate(r.intervals) if iv[0] == 0 and iv[2] != float("inf"))
        moved = list(r.intervals)
        dim0, birth, death = moved[h0]
        moved[h0] = (dim0, birth, death * (1 + 1e-6))
        expect(f"d={dim} H0 death off by 1e-6 relative",
               gate.check_diagram(x, y, len(r.simplices), moved), True)
        expect(f"d={dim} digest sees the moved death",
               [] if gate.diagram_digest(moved) == gate.diagram_digest(r.intervals) else ["digest changed"],
               True)

        longest = max((iv for iv in r.intervals if iv[0] == 1), key=lambda iv: iv[2] - iv[1])
        dropped = [iv for iv in r.intervals if iv != longest]
        expect(f"d={dim} longest H1 interval dropped",
               gate.check_diagram(x, y, len(r.simplices), dropped), True)

        a, b = 100.0, 1e3
        s = run(ca, a * x + b, a * y + b)
        expect(f"d={dim} image under x -> {a:g}x + {b:g}",
               gate.check_similar(r.simplices, r.intervals, s.simplices, s.intervals, a), False)
        wrong_scale = [(k, 1.01 * u, 1.01 * v) for k, u, v in s.intervals]
        expect(f"d={dim} image diagram off by 1%",
               gate.check_similar(r.simplices, r.intervals, s.simplices, wrong_scale, a), True)

    import run as bench
    from workloads import WORKLOADS, Op

    op = Op(0, 2, x[:, :2], y[:, :2])
    r = run(ca, op.x, op.y)
    recorded = dict(gate.counts(r.simplices, r.intervals), digest=gate.diagram_digest(r.intervals))
    expect("default-seed reference matches",
           bench.gate_group(gate, [op], {0: r}, {"0": recorded}).get(0, []), False)
    expect("default-seed reference with another digest",
           bench.gate_group(gate, [op], {0: r}, {"0": dict(recorded, digest="0" * 16)}).get(0, []), True)

    for dim, n in ((2, 8), (2, 7), (3, 6), (3, 5)):
        pair = ca.PointCloudPair(rng.random((n, dim)), rng.random((n, dim)), check=False)
        agree, worst = ca.diagram_discrepancy_vs_reference(pair)
        expect(f"d={dim} {n}+{n} points vs the Cech oracle (worst {worst:.2e})",
               [] if agree else [f"discrepancy {worst}"], False)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [(w["name"], w["why"]) for w in spec["workloads"]]
    expect("BENCHMARK.json workloads match workloads.py",
           [] if listed == [(w.name, w.why) for w in WORKLOADS.values()] else ["workloads differ"], False)
    for key, ours in (("end_to_end", bench.END_TO_END), ("per_layer", bench.PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        expect(f"BENCHMARK.json {key} matches run.py",
               [] if listed == list(ours) else [f"{key} lists differ"], False)

    print(f"{sum(outcomes)}/{len(outcomes)} checks passed")
    return 0 if all(outcomes) else 1


if __name__ == "__main__":
    sys.exit(main())
