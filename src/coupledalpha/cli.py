"""File-based front end.

Subcommands:

* ``build``     emit the complex at r = infinity as one simplex per row
* ``filtrate``  emit sorted (value, dim, vertices) rows
* ``diagram``   emit persistence intervals per dimension
* ``compare``   coupled diagram vs brute-force reference on the union,
  at most 16 points in all (``oracle._CECH_CAP``; more exit 1, ``TooLarge``)
* ``scaling``   Poisson scaling table with linear fits
* ``check``     general-position report

Every CSV file is read by one reader, ``_read_rows``, and every result is
written by one writer, ``_emit``: one JSON object under ``--format json``,
otherwise one CSV line per row. Point cloud files are CSV, one point per
row, columns = coordinates. Blank lines and lines starting with '#' are
skipped. The two clouds of a pair are two files, and vertex indices in
outputs refer to X rows first, then Y rows. Floats are written as their
shortest repr (``inf`` in CSV, ``null`` in JSON), so identical inputs
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
from .harness import doubling_ratios, fit_linear, scaling_experiment
from .homology import persistence_diagram
from .oracle import diagram_discrepancy_vs_reference, diagram_tolerance_default
from .reference import check_coupled_general_position


def _read_rows(path: str, parse, kind: str):
    """(line number, tokens by ``parse``) per row; skips blanks and '#' lines."""
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            try:
                row = [parse(tok) for tok in text.split(",")]
            except ValueError:
                raise ValueError(f"{path}:{lineno}: not {kind} row: {text!r}") from None
            yield lineno, row


def load_points(path: str, dim: int | None = None) -> np.ndarray:
    rows = [row for _, row in _read_rows(path, float, "a numeric")]
    widths = sorted({len(r) for r in rows})
    if len(widths) > 1:
        raise ValueError(f"{path}: inconsistent column counts {widths}")
    pts = np.array(rows, dtype=float) if rows else np.zeros((0, dim or 0))
    if dim is not None and pts.shape[0] and pts.shape[1] != dim:
        raise ValueError(f"{path}: expected dimension {dim}, found {pts.shape[1]}")
    return pts


def load_simplices(path: str) -> list[tuple[int, ...]]:
    """Parse ``build`` output rows: dim followed by dim+1 vertex indices."""
    out = []
    for lineno, parts in _read_rows(path, int, "an integer"):
        if parts[0] < 0 or len(parts) != parts[0] + 2:
            raise ValueError(f"{path}:{lineno}: dim {parts[0]} with {len(parts) - 1} vertices")
        out.append(tuple(parts[1:]))
    return out


def _emit(args, payload, rows) -> None:
    """``payload()`` as one JSON line, or each of ``rows`` as a CSV line of ``str``s."""
    if args.format == "json":
        text = json.dumps(payload(), sort_keys=True) + "\n"
    else:
        text = "".join(",".join(map(str, row)) + "\n" for row in rows)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_pair(args) -> PointCloudPair:
    if args.dim is not None and args.dim < 1:
        raise ValueError(f"dim must be at least 1, got {args.dim}")
    x = load_points(args.x, args.dim)
    y = load_points(args.y, args.dim) if args.y else None
    return PointCloudPair(x, y)


def cmd_build(args) -> int:
    pair = _load_pair(args)
    simplices = coupled_alpha_infty(pair).simplices
    _emit(
        args,
        lambda: {"dim": pair.dim, "simplices": [list(s) for s in simplices]},
        ((len(s) - 1, *s) for s in simplices),
    )
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
    items = coupled_filtration(cplx).sorted_items()
    if args.max_radius is not None:
        items = [(s, v) for s, v in items if v <= args.max_radius]
    _emit(
        args,
        lambda: {"rows": [{"value": v, "dim": len(s) - 1, "vertices": list(s)} for s, v in items]},
        ((v, len(s) - 1, *s) for s, v in items),
    )
    return 0


def cmd_diagram(args) -> int:
    fc = coupled_filtration(coupled_alpha_infty(_load_pair(args)))
    intervals = persistence_diagram(fc).intervals()
    _emit(
        args,
        lambda: {"intervals": [
            {"dim": iv.dim, "birth": iv.birth, "death": None if math.isinf(iv.death) else iv.death}
            for iv in intervals
        ]},
        ((iv.dim, iv.birth, iv.death) for iv in intervals),
    )
    return 0


def cmd_compare(args) -> int:
    verdict, worst = diagram_discrepancy_vs_reference(_load_pair(args), tol=args.tolerance)
    _emit(
        args,
        lambda: {"pass": verdict, "max_discrepancy": None if math.isinf(worst) else worst},
        [("PASS" if verdict else "FAIL", worst)],
    )
    return 0 if verdict else 1


def cmd_scaling(args) -> int:
    records = scaling_experiment(args.n_list, trials=args.trials, dim=args.dim, seed=args.seed)
    fits = fit_linear(records)
    ratios = doubling_ratios(records)
    timing = args.with_timing

    def rows():
        counts = [f"f{k}" for k in range(len(records[0].counts))]
        yield ["n", "trial", "seed", *counts] + (["wall_time"] if timing else [])
        for r in records:
            yield [r.n, r.trial, r.seed, *r.counts] + ([r.wall_time] if timing else [])
        for k, (a, res) in sorted(fits.items()):
            terms = ";".join(f"{n}:{q!r}" for n, q in ratios.get(k, []))
            yield [f"# k={k} slope={a!r} rel_residual={res!r} ratios={terms}"]

    _emit(
        args,
        lambda: {
            "records": [
                {"n": r.n, "trial": r.trial, "seed": r.seed, "counts": list(r.counts)}
                | ({"wall_time": r.wall_time} if timing else {})
                for r in records
            ],
            "fits": {str(k): {"slope": a, "rel_residual": res} for k, (a, res) in fits.items()},
            "ratios": {
                str(k): [{"n": n, "ratio": q} for n, q in pairs] for k, pairs in ratios.items()
            },
        },
        rows(),
    )
    return 0


def cmd_check(args) -> int:
    pair = _load_pair(args)
    ok, violations = check_coupled_general_position(pair)
    _emit(
        args,
        lambda: {
            "ok": ok,
            "violations": [{"kind": v.kind, "indices": list(v.indices)} for v in violations],
        },
        [["ok"]] if ok else ((v.kind, *v.indices) for v in violations),
    )
    return 0 if ok else 1


def _not_nan(text: str) -> float:
    """A float option value; NaN is a usage error, infinities are allowed."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if math.isnan(value):
        raise argparse.ArgumentTypeError(f"NaN is not allowed: {text!r}")
    return value


def _tolerance(text: str) -> float:
    """A ``--tolerance`` value: not NaN and not negative, so that a PASS is possible."""
    value = _not_nan(text)
    if value < 0.0:
        raise argparse.ArgumentTypeError(f"must not be negative: {text!r}")
    return value


def _int_list(text: str) -> list[int]:
    """Comma-separated integers, as ``--n-list`` takes them."""
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid comma-separated int list: {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coupledalpha",
        description="Coupled alpha complexes, filtrations, and persistence.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def on_clouds(name, func, summary, y_required=False):
        p = sub.add_parser(name, help=summary)
        p.add_argument("x", help="CSV file with the X cloud, one point per row")
        p.add_argument("y", nargs=None if y_required else "?", help="CSV file with the Y cloud")
        p.add_argument("--dim", type=int, default=None, help="expected ambient dimension")
        p.add_argument("--format", choices=["csv", "json"], default="csv")
        p.add_argument("--output", default=None, help="write here instead of stdout")
        p.set_defaults(func=func)
        return p

    on_clouds("build", cmd_build, "emit the complex at r = infinity")
    p = on_clouds("filtrate", cmd_filtrate, "emit simplex/value rows")
    p.add_argument("--complex", default=None, help="reuse a simplex list from `build`")
    p.add_argument("--max-radius", type=_not_nan, default=None, help="drop rows above this value")
    on_clouds("diagram", cmd_diagram, "emit persistence intervals")
    p = on_clouds(
        "compare", cmd_compare, "coupled vs brute-force reference diagrams", y_required=True
    )
    p.add_argument(
        "--tolerance", type=_tolerance, default=diagram_tolerance_default,
        help="max allowed endpoint discrepancy",
    )

    p = sub.add_parser("scaling", help="Poisson scaling table")
    p.add_argument(
        "--n-list", type=_int_list, default="100,200,400", help="comma-separated intensities"
    )
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

    on_clouds("check", cmd_check, "coupled general-position report")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        if args.format == "json":
            payload = {"error": type(exc).__name__, "message": str(exc)}
            sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")
        else:
            sys.stderr.write(f"error: {exc}\n")
        return 1
