"""Benchmark of the coupledalpha pipeline: points -> complex -> filtration -> diagram.

    python3 perfbench/run.py                       # every workload, end-to-end metrics
    python3 perfbench/run.py --workload spatial-200 --seed 3 --seconds 5 --trace 0
    python3 perfbench/run.py --workload spatial-200 --trace 1    # per-layer metrics

With ``--trace 0`` a run sets up (timed in fresh interpreters, see
``setup_probe.py``), then runs groups of operations in a closed loop, one at
a time in this process, in whole cycles of groups until ``--seconds`` of
operation time have passed (by default ``run_seconds`` in
``BENCHMARK.json``), and reports the end-to-end metrics. With ``--trace 1``
it runs one cycle of groups (one group per pair shape) once untraced, once
traced and once more under tracemalloc, and reports the per-layer metrics. Every result goes
through the correctness gate outside the timed regions. The last line of
standard output is one JSON object; the exit code is 1 if the gate failed
and 2 if there is nothing to measure.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from pipeline import Tracer, peak_alloc, run, run_traced
from setup_probe import ROOT, SRC, MissingProgram, set_up
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 0
SETUP_SAMPLES = 9  # fresh-interpreter set-ups timed per run
MEMORY_POINTS = 100  # per cloud, in the tracemalloc pass
MODULES = ("cli", "complexes", "delaunay", "filtration", "geometry", "harness", "homology", "oracle")
CASES = ("X_DOMINANT", "Y_DOMINANT", "CIRCUMSPHERE")
MAX_DIM = 3  # largest ambient dimension of any workload
# The package's documented refusals of inputs it deems degenerate.
REFUSALS = ("AmbiguousTriangulation", "DegenerateInput")

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("pipeline_s", "s", "lower"),
    ("pipeline_s_tail", "s", "lower"),
    ("simplices_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("completed_frac", "fraction", "higher"),
)


def _per_layer():
    out = [
        ("delaunay.triangulate_s", "s"),
        ("delaunay.cells", "count"),
        ("delaunay.refused", "count"),
        ("complexes.build_s", "s"),
        ("complexes.refused", "count"),
        ("complexes.self_s", "s"),
    ]
    out += [(f"complexes.simplices.{k}", "count") for k in range(MAX_DIM + 2)]
    out += [
        (f"complexes.type.{i}x{size - i}", "count")
        for size in range(1, MAX_DIM + 3)
        for i in range(size + 1)
        if max(i, size - i) <= MAX_DIM + 1
    ]
    out += [("filtration.filtrate_s", "s")]
    out += [(f"filtration.case.{c}", "count") for c in CASES]
    out += [(f"filtration.inherited.{k}", "count") for k in range(1, MAX_DIM + 2)]
    out += [
        ("homology.boundary_s", "s"),
        ("homology.reduce_s", "s"),
        ("homology.diagram_s", "s"),
        ("homology.extract_s", "s"),
        ("homology.columns", "count"),
        ("homology.pairs", "count"),
        ("homology.zero_length_pairs", "count"),
    ]
    out += [(f"homology.intervals.{k}", "count") for k in range(MAX_DIM + 1)]
    out += [(f"{layer}.peak_alloc_mb", "MB") for layer in ("delaunay", "complexes", "filtration", "homology")]
    out += [(f"{m}.loc", "lines") for m in MODULES] + [("src.loc", "lines")]
    out += [("trace.overhead_s", "s"), ("trace.spans", "count")]
    return tuple((name, unit, "lower") for name, unit in out)


PER_LAYER = _per_layer()


def run_seconds() -> float:
    """The run length ``BENCHMARK.json`` fixes, the default of ``--seconds``."""
    return float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])


def tail(samples: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten samples beyond it.

    With ten samples or fewer no percentile has ten beyond it, and the
    largest sample is reported instead.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], f"max of {n} samples"
    k = n - 10  # 1-based rank of the value with ten samples above it
    return ordered[k - 1], f"p{100 * k // n} of {n} samples, 10 beyond"


def measure_setup(workload: str, seed: int) -> float:
    """Seconds of one set-up, in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def load_reference(workload: str, seed: int) -> dict[str, dict]:
    """Recorded counts and digests by operation index, at the default seed only."""
    if seed != DEFAULT_SEED or not REFERENCE.is_file():
        return {}
    return json.loads(REFERENCE.read_text())["workloads"].get(workload, {})


def gate_group(gate, ops, results, reference) -> dict[int, list[str]]:
    """Problems per operation index; refused operations are not gated."""
    problems: dict[int, list[str]] = {}
    for op in ops:
        result = results.get(op.index)
        if result is None:
            continue
        found = gate.check_result(op.x, op.y, result.simplices, result.values, result.intervals)
        if op.base is not None:
            base = results.get(op.base)
            if base is None:
                found.append("unit-scale operation was refused; nothing to compare with")
            else:
                found += gate.check_similar(
                    base.simplices, base.intervals, result.simplices, result.intervals, op.scale
                )
        elif str(op.index) in reference:
            want = reference[str(op.index)]
            got = dict(gate.counts(result.simplices, result.intervals),
                       digest=gate.diagram_digest(result.intervals))
            for key in ("simplices", "intervals", "digest"):
                if got[key] != want[key]:
                    found.append(f"default-seed {key} {got[key]} differ from recorded {want[key]}")
        if found:
            problems[op.index] = found
    return problems


def run_group(ops, fn):
    """Run each operation once; returns results, refusals, errors and seconds."""
    results, refused, errors, seconds = {}, set(), {}, {}
    for op in ops:
        gc.collect()
        start = time.perf_counter()
        try:
            results[op.index] = fn(op)
        except Exception as exc:  # a crash is a failed operation, not a crashed run
            if type(exc).__name__ in REFUSALS:
                refused.add(op.index)
            else:
                errors[op.index] = [f"{type(exc).__name__}: {exc}"]
        seconds[op.index] = time.perf_counter() - start
    return results, refused, errors, seconds


def report_problems(problems: dict[int, list[str]]) -> None:
    for index, found in sorted(problems.items()):
        for line in found[:5]:
            print(f"gate: operation {index}: {line}", file=sys.stderr)


def end_to_end(args) -> dict:
    # Set-ups are timed between groups too, in step with the operation time
    # spent, so that their median covers the same stretch of time as the
    # operations and a slow spell of a shared machine weighs on both alike.
    setup_samples = [measure_setup(args.workload, args.seed)]
    ca, ops, _ = set_up(args.workload, args.seed)
    import gate  # scipy; loaded after set-up, before any timed operation

    workload = WORKLOADS[args.workload]
    reference = load_reference(args.workload, args.seed)
    times, attempted, refusals = [], 0, 0
    completed: dict[int, list[tuple[float, int]]] = {}  # dim -> (seconds, simplices)
    problems: dict[int, list[str]] = {}
    g = 0
    while True:
        if g:
            ops = workload.group(args.seed, g)
        results, refused, errors, seconds = run_group(ops, lambda op: run(ca, op.x, op.y))
        attempted += len(ops)
        refusals += len(refused)
        times += seconds.values()
        for op in ops:
            if op.index in results:
                completed.setdefault(op.dim, []).append((seconds[op.index], len(results[op.index].simplices)))
        problems.update(errors)
        problems.update(gate_group(gate, ops, results, reference))
        del results
        if g == workload.cycle - 1:
            # Later groups can only add allocator fragmentation; reading the peak
            # here keeps it independent of how many groups fit in the run.
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        g += 1
        while len(setup_samples) < SETUP_SAMPLES * min(1.0, sum(times) / args.seconds):
            setup_samples.append(measure_setup(args.workload, args.seed))
        # Whole cycles only, so every run has the same mix of pair shapes.
        if sum(times) >= args.seconds and g % workload.cycle == 0:
            break
    report_problems(problems)
    failed = len(problems)
    samples = [t for per_dim in completed.values() for t, _ in per_dim]
    busy = sum(times)
    simplices = sum(k for per_dim in completed.values() for _, k in per_dim)
    if samples:
        # Each dimension weighs the same, whatever share of its calls were refused.
        median = statistics.mean(statistics.median(t for t, _ in c) for c in completed.values())
        tail_value, tail_label = tail(samples)
    else:
        median, tail_value, tail_label = 0.0, 0.0, "no samples"
    per_dim = ", ".join(f"{len(c)} at d={d}" for d, c in sorted(completed.items()))
    metrics = {
        "setup_s": (statistics.median(setup_samples), f"median of {len(setup_samples)} fresh set-ups"),
        "pipeline_s": (median, f"mean over dimensions of the median; {per_dim}"),
        "pipeline_s_tail": (tail_value, tail_label),
        "simplices_per_s": (simplices / busy, f"{simplices} simplices in {busy:.3f} s of all {attempted} calls"),
        "peak_rss_mb": (rss_mb, "ru_maxrss of this process after the first cycle"),
        "completed_frac": ((attempted - refusals - failed) / attempted,
                           f"1 - fail_frac: of {attempted} calls, {refusals} refused, {failed} failed the gate"),
    }
    print(f"{args.workload} seed {args.seed}: {attempted} operations in {g} groups, "
          f"{len(samples)} completed, {refusals} refused, {failed} failed the gate")
    for name, unit, _ in END_TO_END:
        value, note = metrics[name]
        print(f"  {name:<18} {value:>14.6g} {unit:<9} {note}")
    return {
        "correct": not problems and bool(samples),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": unit} for name, unit, _ in END_TO_END},
    }


def fingerprint(result) -> int:
    return hash((result.simplices, tuple(result.values.items()), tuple(result.intervals)))


def layer_counts(ca, op, result) -> dict[str, int]:
    """Deterministic per-layer counters of one completed operation."""
    import numpy as np

    from gate import SLIVER

    points = np.vstack([op.x, op.y])
    n_x = len(op.x)
    out: dict[str, int] = {"delaunay.cells": result.cells}

    def bump(key, by=1):
        out[key] = out.get(key, 0) + by

    for s in result.simplices:
        qx = [v for v in s if v < n_x]
        qy = [v for v in s if v >= n_x]
        bump(f"complexes.simplices.{len(s) - 1}")
        bump(f"complexes.type.{len(qx)}x{len(qy)}")
        if len(s) == 1:
            continue
        solution = ca.relaxed_value(points[qx], points[qy])
        bump(f"filtration.case.{solution.case}")
        if result.values[s] != solution.relaxed_radius:
            bump(f"filtration.inherited.{len(s) - 1}")
    finite = [iv for iv in result.intervals if iv[2] != float("inf")]
    bump("homology.columns", len(result.simplices))
    bump("homology.pairs", len(finite))
    bump("homology.zero_length_pairs", sum(1 for iv in finite if iv[2] == iv[1]))
    for dim, birth, death in result.intervals:
        if death - birth > SLIVER * op.scale:
            bump(f"homology.intervals.{dim}")
    return out


def loc_counts() -> dict[str, int]:
    package = SRC / "coupledalpha"
    out = {}
    for m in MODULES:
        path = package / f"{m}.py"
        out[f"{m}.loc"] = len(path.read_text().splitlines()) if path.is_file() else 0
    out["src.loc"] = sum(len(p.read_text().splitlines()) for p in package.rglob("*.py"))
    return out


def per_layer(args) -> dict:
    ca, _, _ = set_up(args.workload, args.seed)
    import gate

    workload = WORKLOADS[args.workload]
    ops = [op for g in range(workload.cycle) for op in workload.group(args.seed, g)]
    plain, _, errors, plain_s = run_group(ops, lambda op: run(ca, op.x, op.y))
    # Keep fingerprints only: live results would slow the traced pass's garbage collection.
    plain = {i: fingerprint(r) for i, r in plain.items()}
    tracer = Tracer()
    traced, refused, traced_errors, _ = run_group(
        ops, lambda op: run_traced(ca, op.x, op.y, op.index, tracer)
    )
    problems = dict(errors)
    problems.update(traced_errors)
    for op in ops:
        b = traced.get(op.index)
        if plain.get(op.index) != (b and fingerprint(b)):
            problems.setdefault(op.index, []).append("traced and untraced results differ")
    problems.update(gate_group(gate, ops, traced, load_reference(args.workload, args.seed)))

    counts: dict[str, int] = {}
    for op in ops:
        if op.index in traced:
            for key, value in layer_counts(ca, op, traced[op.index]).items():
                counts[key] = counts.get(key, 0) + value
    del traced

    spans: dict[int, dict[str, float]] = {}
    for span in tracer.spans:
        if span.error is None:
            spans.setdefault(span.op, {})[span.name] = span.seconds
        elif span.error in REFUSALS and span.name != "pipeline":
            # no span starts after a failed one, so this is the layer that refused
            layer = span.name.split(".")[0]
            counts[f"{layer}.refused"] = counts.get(f"{layer}.refused", 0) + 1
    done = [s for s in spans.values() if "pipeline" in s]
    probes = ("delaunay.triangulate", "homology.boundary", "homology.reduce")

    def med(fn):
        return statistics.median(fn(s) for s in done) if done else 0.0

    timings = {
        "delaunay.triangulate_s": med(lambda s: s["delaunay.triangulate"]),
        "complexes.build_s": med(lambda s: s["complexes.build"]),
        "complexes.self_s": med(lambda s: s["complexes.build"] - s["delaunay.triangulate"]),
        "filtration.filtrate_s": med(lambda s: s["filtration.filtrate"]),
        "homology.boundary_s": med(lambda s: s["homology.boundary"]),
        "homology.reduce_s": med(lambda s: s["homology.reduce"]),
        "homology.diagram_s": med(lambda s: s["homology.diagram"]),
        "homology.extract_s": med(
            lambda s: s["homology.diagram"] - s["homology.boundary"] - s["homology.reduce"]
        ),
    }
    overhead = [
        spans[i]["pipeline"] - sum(spans[i][p] for p in probes) - plain_s[i]
        for i in spans if "pipeline" in spans[i]
    ]
    timings["trace.overhead_s"] = statistics.median(overhead) if overhead else 0.0

    peaks: dict[str, float] = {}
    for op in ops:
        if op.base is not None:
            continue
        # tracemalloc slows the pipeline about 5x; a cap on the points keeps
        # this pass, and so a traced run, well inside the time a run may take.
        keep = min(len(op.x), MEMORY_POINTS)
        for layer, mb in peak_alloc(ca, op.x[:keep], op.y[:keep]).items():
            peaks[f"{layer}.peak_alloc_mb"] = max(peaks.get(f"{layer}.peak_alloc_mb", 0.0), mb)

    values = {**counts, **timings, **peaks, **loc_counts(), "trace.spans": len(tracer.spans)}
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    trace_file.write_text(json.dumps(tracer.as_json()))
    report_problems(problems)
    print(f"{args.workload} seed {args.seed}: traced {len(ops)} operations, "
          f"{len(done)} completed, {len(refused)} refused; spans in {trace_file.relative_to(ROOT)}")
    for name, unit, _ in PER_LAYER:
        print(f"  {name:<30} {values.get(name, 0):>14.6g} {unit}")
    return {
        "correct": not problems and bool(done),
        "attempted": len(ops),
        "failed": len(problems),
        "metrics": {name: {"value": values.get(name, 0), "unit": unit} for name, unit, _ in PER_LAYER},
    }


def run_all(args) -> int:
    """Every workload, each in its own process so each has its own peak RSS."""
    status = 0
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--trace", str(args.trace)]
        if args.seconds is not None:
            cmd += ["--seconds", str(args.seconds)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):  # no result line: nothing was measured
            status = 2
            continue
        status = max(status, proc.returncode)
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    if status != 2:
        print(json.dumps(merged))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: every workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="default: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    try:
        if args.seconds is None:
            args.seconds = run_seconds()
        result = per_layer(args) if args.trace else end_to_end(args)
    except MissingProgram as exc:
        print(f"run: {exc}", file=sys.stderr)
        return 2
    except subprocess.CalledProcessError as exc:
        print(f"run: set-up failed: {exc.stderr.strip()}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
