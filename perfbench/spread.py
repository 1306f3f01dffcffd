"""Run-to-run spread of the end-to-end metrics.

Runs ``run.py`` once per seed on one workload, one run at a time, and prints
for each end-to-end metric the median, the quartiles and the spread: the
distance between the quartiles as a share of the median, set against the
metric's bound in ``BENCHMARK.json`` (the benchmark is steady when every
spread stays below a third of its bound). Each run lasts ``run_seconds``,
the default of ``run.py``. With
``--out`` the runs and their statistics are also written as JSON.

    python3 perfbench/spread.py --workload spatial-200 --runs 10 --first-seed 1
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
               "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode or not result["correct"]:
            print(f"seed {seed}: exit {proc.returncode}, correct {result['correct']}\n{proc.stderr}")
            return 1
        values = {k: v["value"] for k, v in result["metrics"].items()}
        runs.append({"seed": seed, "attempted": result["attempted"], "failed": result["failed"], **values})
        print(f"seed {seed}: " + ", ".join(f"{k} {v:.6g}" for k, v in values.items()), flush=True)

    stats = {}
    steady = True
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [r[name] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        ok = spread < metric["bound"] / 3
        steady &= ok
        stats[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": metric["bound"]}
        print(f"{name:<18} median {median:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
              f"spread {spread:.4f} bound {metric['bound']} {'ok' if ok else 'TOO WIDE'}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"workload": args.workload, "stats": stats, "runs": runs}, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
