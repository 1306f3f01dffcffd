"""File-based front end.

Subcommands:

* ``build``     emit the complex at r = infinity as one simplex per row
* ``filtrate``  emit sorted (value, dim, vertices) rows
* ``diagram``   emit persistence intervals per dimension
* ``compare``   coupled diagram vs brute-force reference on the union
* ``scaling``   Poisson scaling table with linear fits
* ``check``     general-position report

Point cloud files are CSV, one point per row, columns = coordinates.
Blank lines and lines starting with '#' are skipped. The two clouds of a
pair are two files, and vertex indices in outputs refer to X rows first,
then Y rows. All floats are serialized with repr, so identical inputs
produce byte-identical outputs. Exit codes: 0 success, 1 validation
failure (including a FAIL verdict from compare), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .complexes import CoupledComplex, PointCloudPair, coupled_alpha_infty
from .filtration import coupled_filtration
from .geometry import GeometryError, check_coupled_general_position
from .harness import doubling_ratios, fit_linear, scaling_experiment
from .homology import persistence_diagram
from .oracle import (
    IterationLimit,
    diagram_discrepancy_vs_reference,
    diagram_tolerance_default,
)


def load_points(path: str, dim: int | None = None) -> np.ndarray:
    rows: list[list[float]] = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            try:
                row = [float(tok) for tok in text.split(",")]
            except ValueError:
                raise ValueError(f"{path}:{lineno}: not a numeric row: {text!r}") from None
            rows.append(row)
    if rows:
        widths = {len(r) for r in rows}
        if len(widths) != 1:
            raise ValueError(f"{path}: inconsistent column counts {sorted(widths)}")
    pts = np.array(rows, dtype=float) if rows else np.zeros((0, dim or 0))
    if dim is not None and pts.shape[0] and pts.shape[1] != dim:
        raise ValueError(f"{path}: expected dimension {dim}, found {pts.shape[1]}")
    return pts


def load_simplices(path: str) -> list[tuple[int, ...]]:
    """Parse ``build`` output rows: dim followed by dim+1 vertex indices."""
    out = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            try:
                parts = [int(tok) for tok in text.split(",")]
            except ValueError:
                raise ValueError(f"{path}:{lineno}: not an integer row: {text!r}") from None
            if parts[0] < 0 or len(parts) != parts[0] + 2:
                raise ValueError(f"{path}:{lineno}: dim {parts[0]} with {len(parts) - 1} vertices")
            out.append(tuple(parts[1:]))
    return out


def _emit(args, text: str) -> None:
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fmt_death(death: float) -> str:
    return "inf" if math.isinf(death) else repr(death)


def _load_pair(args) -> PointCloudPair:
    x = load_points(args.x, args.dim)
    y = load_points(args.y, args.dim) if args.y else None
    # The exhaustive checker is exponential; the `check` subcommand runs
    # it explicitly, construction relies on the triangulation guards.
    return PointCloudPair(x, y, check=False)


def cmd_build(args) -> int:
    pair = _load_pair(args)
    cplx = coupled_alpha_infty(pair)
    simplices = cplx.simplices
    if args.format == "json":
        payload = {"dim": pair.dim, "simplices": [list(s) for s in simplices]}
        _emit(args, json.dumps(payload, sort_keys=True) + "\n")
    else:
        lines = [",".join(str(t) for t in (len(s) - 1,) + s) for s in simplices]
        _emit(args, "".join(line + "\n" for line in lines))
    return 0


def cmd_filtrate(args) -> int:
    pair = _load_pair(args)
    if args.complex:
        simplices = load_simplices(args.complex)
        try:
            cplx = CoupledComplex(pair, simplices)
        except ValueError as exc:
            raise ValueError(f"{args.complex}: {exc}") from None
    else:
        cplx = coupled_alpha_infty(pair)
    fc = coupled_filtration(cplx)
    items = fc.sorted_items()
    if args.max_radius is not None:
        items = [(s, v) for s, v in items if v <= args.max_radius]
    if args.format == "json":
        payload = {
            "rows": [
                {"value": v, "dim": len(s) - 1, "vertices": list(s)} for s, v in items
            ]
        }
        _emit(args, json.dumps(payload, sort_keys=True) + "\n")
    else:
        lines = [
            ",".join([repr(v), str(len(s) - 1)] + [str(t) for t in s]) for s, v in items
        ]
        _emit(args, "".join(line + "\n" for line in lines))
    return 0


def cmd_diagram(args) -> int:
    pair = _load_pair(args)
    fc = coupled_filtration(coupled_alpha_infty(pair))
    intervals = persistence_diagram(fc).intervals()
    if args.format == "json":
        payload = {
            "intervals": [
                {
                    "dim": iv.dim,
                    "birth": iv.birth,
                    "death": None if math.isinf(iv.death) else iv.death,
                }
                for iv in intervals
            ]
        }
        _emit(args, json.dumps(payload, sort_keys=True) + "\n")
    else:
        lines = [
            ",".join([str(iv.dim), repr(iv.birth), _fmt_death(iv.death)])
            for iv in intervals
        ]
        _emit(args, "".join(line + "\n" for line in lines))
    return 0


def cmd_compare(args) -> int:
    pair = _load_pair(args)
    verdict, worst = diagram_discrepancy_vs_reference(pair, tol=args.tolerance)
    if args.format == "json":
        payload = {"pass": verdict, "max_discrepancy": None if math.isinf(worst) else worst}
        _emit(args, json.dumps(payload, sort_keys=True) + "\n")
    else:
        word = "PASS" if verdict else "FAIL"
        _emit(args, f"{word},{_fmt_death(worst)}\n")
    return 0 if verdict else 1


def cmd_scaling(args) -> int:
    n_list = [int(tok) for tok in args.n_list.split(",")]
    records = scaling_experiment(n_list, trials=args.trials, dim=args.dim, seed=args.seed)
    fits = fit_linear(records)
    ratios = doubling_ratios(records)
    width = max(len(r.counts) for r in records)
    if args.format == "json":
        payload = {
            "records": [
                {
                    "n": r.n,
                    "trial": r.trial,
                    "seed": r.seed,
                    "counts": list(r.counts),
                    **({"wall_time": r.wall_time} if args.with_timing else {}),
                }
                for r in records
            ],
            "fits": {str(k): {"slope": a, "rel_residual": res} for k, (a, res) in fits.items()},
            "ratios": {
                str(k): [{"n": n, "ratio": q} for n, q in pairs]
                for k, pairs in ratios.items()
            },
        }
        _emit(args, json.dumps(payload, sort_keys=True) + "\n")
        return 0
    header = ["n", "trial", "seed"] + [f"f{k}" for k in range(width)]
    if args.with_timing:
        header.append("wall_time")
    lines = [",".join(header)]
    for r in records:
        row = [str(r.n), str(r.trial), str(r.seed)] + [str(c) for c in r.counts]
        if args.with_timing:
            row.append(repr(r.wall_time))
        lines.append(",".join(row))
    for k, (a, res) in sorted(fits.items()):
        terms = ";".join(f"{n}:{repr(q)}" for n, q in ratios.get(k, []))
        lines.append(f"# k={k} slope={repr(a)} rel_residual={repr(res)} ratios={terms}")
    _emit(args, "".join(line + "\n" for line in lines))
    return 0


def cmd_check(args) -> int:
    x = load_points(args.x, args.dim)
    y = load_points(args.y, args.dim) if args.y else np.zeros((0, x.shape[1] if x.size else 0))
    ok, violations = check_coupled_general_position(x, y)
    if args.format == "json":
        payload = {
            "ok": ok,
            "violations": [
                {"kind": v.kind, "indices": list(v.indices)} for v in violations
            ],
        }
        _emit(args, json.dumps(payload, sort_keys=True) + "\n")
    elif ok:
        _emit(args, "ok\n")
    else:
        lines = [",".join([v.kind] + [str(i) for i in v.indices]) for v in violations]
        _emit(args, "".join(line + "\n" for line in lines))
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coupledalpha",
        description="Coupled alpha complexes, filtrations, and persistence.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, y_required=False):
        p.add_argument("x", help="CSV file with the X cloud, one point per row")
        if y_required:
            p.add_argument("y", help="CSV file with the Y cloud")
        else:
            p.add_argument("y", nargs="?", default=None, help="CSV file with the Y cloud")
        p.add_argument("--dim", type=int, default=None, help="expected ambient dimension")
        p.add_argument("--format", choices=["csv", "json"], default="csv")
        p.add_argument("--output", default=None, help="write here instead of stdout")

    p = sub.add_parser("build", help="emit the complex at r = infinity")
    common(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("filtrate", help="emit simplex/value rows")
    common(p)
    p.add_argument("--complex", default=None, help="reuse a simplex list from `build`")
    p.add_argument("--max-radius", type=float, default=None, help="drop rows above this value")
    p.set_defaults(func=cmd_filtrate)

    p = sub.add_parser("diagram", help="emit persistence intervals")
    common(p)
    p.set_defaults(func=cmd_diagram)

    p = sub.add_parser("compare", help="coupled vs brute-force reference diagrams")
    common(p, y_required=True)
    p.add_argument(
        "--tolerance", type=float, default=diagram_tolerance_default,
        help="max allowed endpoint discrepancy",
    )
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("scaling", help="Poisson scaling table")
    p.add_argument("--n-list", default="100,200,400", help="comma-separated intensities")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--with-timing", action="store_true",
        help="include wall times (breaks byte-identical reruns)",
    )
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_scaling)

    p = sub.add_parser("check", help="coupled general-position report")
    common(p)
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (GeometryError, IterationLimit, ValueError, OSError) as exc:
        if getattr(args, "format", "csv") == "json":
            payload = {"error": type(exc).__name__, "message": str(exc)}
            violations = getattr(exc, "violations", None)
            if violations:
                payload["violations"] = [
                    {"kind": v.kind, "indices": list(v.indices)} for v in violations
                ]
            sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")
        else:
            sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
