"""Record the default-seed reference that the correctness gate compares with.

For the unit-scale pair of each group in the first cycle of every workload
at the default seed, writes simplex counts and positive-interval counts per
dimension and a digest of the diagram to ``reference.json``. Run it only on code whose
results are trusted; the committed file was written by the first version
of the benchmark, on the code it was written for.

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import sys

from setup_probe import import_package


def main() -> int:
    ca = import_package()
    import gate
    from pipeline import run
    from run import DEFAULT_SEED, REFERENCE
    from workloads import WORKLOADS

    recorded = {}
    for name, workload in WORKLOADS.items():
        entries = {}
        for g in range(workload.cycle):
            op = workload.group(DEFAULT_SEED, g)[0]
            r = run(ca, op.x, op.y)
            problems = gate.check_result(op.x, op.y, r.simplices, r.values, r.intervals)
            if problems:
                print(f"{name} operation {op.index}: {problems[0]}", file=sys.stderr)
                return 1
            entries[str(op.index)] = dict(gate.counts(r.simplices, r.intervals),
                                          digest=gate.diagram_digest(r.intervals))
            print(f"{name} operation {op.index}: {entries[str(op.index)]}")
        recorded[name] = entries
    REFERENCE.write_text(json.dumps({"seed": DEFAULT_SEED, "workloads": recorded}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
