"""One benchmark set-up, timed in a fresh interpreter.

Set-up is the import of ``coupledalpha``, generation of the first group's
inputs and one warm-up pipeline call per dimension of the workload. Run as
a script it prints the seconds that took; ``run.py`` runs it several times
and reports the median as ``setup_s``.

    python3 perfbench/setup_probe.py --workload spatial-200 --seed 1
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class MissingProgram(RuntimeError):
    """The checkout holds no ``src/coupledalpha`` package to measure."""


def import_package():
    """Import ``coupledalpha`` from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "coupledalpha" / "__init__.py").is_file():
        raise MissingProgram(f"no package at {SRC / 'coupledalpha'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import coupledalpha

    if Path(coupledalpha.__file__).resolve().parent != (SRC / "coupledalpha").resolve():
        raise MissingProgram(f"imported coupledalpha from {coupledalpha.__file__}")
    return coupledalpha


def set_up(workload_name: str, seed: int):
    """Import, generate and warm up; returns (package, ops of group 0, seconds)."""
    start = time.perf_counter()
    ca = import_package()
    from pipeline import run
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    ops = workload.group(seed, 0)
    for x, y in workload.warmup_pairs(seed):
        run(ca, x, y)
    return ca, ops, time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    try:
        _, _, seconds = set_up(args.workload, args.seed)
    except MissingProgram as exc:
        print(f"setup_probe: {exc}", file=sys.stderr)
        return 2
    print(repr(seconds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
