"""Command line front end.

Subcommands: spectrum, bounds, sweep, closed-form, verify-turan, psd-threshold,
enumerate. Exit codes follow the sysexits convention: 0 success, 2 a check ran
and failed (bound violation, extremal counterexample), 64 bad usage or
parameter values, 65 unreadable or oversized input data, 66 missing input file,
70 an internal consistency check failed (SolverError, with its diagnostics).
"""

import argparse
import functools
import json
import math
import sys

from .bounds import bound_report
from .closed_forms import (ClosedFormSpectrum, spectrum_complete,
                           spectrum_complete_bipartite,
                           spectrum_complete_multipartite, spectrum_star)
from .combinatorics import _check_enumeration_order, enumerate_graphs
from .eigensolver import alpha_sweep, full_spectrum, psd_threshold
from .errors import (CapacityError, GraphFormatError, ParameterError,
                     SolverError)
from .extremal import class_member_masks, verify_turan
from .graphs import Graph, format_edge_list, parse_edge_list
from .matrices import MATRIX_KINDS, alpha_matrix, assemble

EX_OK = 0
EX_CHECK_FAILED = 2
EX_USAGE = 64
EX_DATAERR = 65
EX_NOINPUT = 66
EX_SOFTWARE = 70

GRID_MAX_POINTS = 100_000


def _fmt(v: float) -> str:
    f = float(v)
    if f == int(f) and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


def _read_graph(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise GraphFormatError(
                f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from exc
    return parse_edge_list(text)


def _parse_grid(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ParameterError("grid must look like start:stop:step")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError as exc:
        raise ParameterError(f"bad grid component: {exc}") from exc
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise ParameterError("grid components must be finite")
    if step <= 0:
        raise ParameterError("grid step must be positive")
    if stop < start:
        raise ParameterError("grid stop must be >= start")
    if (stop - start) / step >= GRID_MAX_POINTS:
        raise CapacityError(f"grid limited to {GRID_MAX_POINTS} points")
    out = []
    k = 0
    while True:
        a = start + k * step
        if a > stop + 1e-12:
            break
        out.append(min(a, stop))
        k += 1
    return out


def _parse_alpha_list(text: str) -> list[float]:
    try:
        vals = [float(p) for p in text.split(",") if p.strip()]
    except ValueError as exc:
        raise ParameterError(f"bad alpha list: {exc}") from exc
    if not vals:
        raise ParameterError("alpha list is empty")
    return vals


def cmd_spectrum(args) -> int:
    g = _read_graph(args.graph)
    mat = assemble(g, args.matrix, args.alpha)
    s = full_spectrum(mat)
    if args.json:
        print(json.dumps({
            "n": g.n,
            "m": g.m,
            "alpha": args.alpha,
            "matrix": args.matrix,
            "eigenvalues": s.tolist(),
            "residual_norm": s.residual_norm,
        }))
    else:
        print(f"n={g.n} m={g.m} alpha={_fmt(args.alpha)} matrix={args.matrix}")
        print("eigenvalues: " + ", ".join(_fmt(v) for v in s.values))
    return EX_OK


def cmd_bounds(args) -> int:
    g = _read_graph(args.graph)
    report = bound_report(g, args.alpha, graph_id=args.graph)
    if args.json:
        print(json.dumps(report.to_json_obj()))
    else:
        for rec in report.records:
            if rec.skipped:
                print(f"SKIP  {rec.name}: {rec.note}")
                continue
            tag = "info" if rec.informational else ("ok" if rec.holds else "VIOLATED")
            print(f"{tag:>5}  {rec.name} [{rec.side}] bound={_fmt(rec.bound_value)}"
                  f" spectral={_fmt(rec.spectral_value)} slack={rec.slack:.3e}")
        print(f"violations: {len(report.violations)}")
    return EX_OK if not report.violations else EX_CHECK_FAILED


def cmd_sweep(args) -> int:
    g = _read_graph(args.graph)
    grid = _parse_grid(args.grid)
    sweep = alpha_sweep(g, grid)
    text = sweep.to_csv()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {len(grid)} rows to {args.out}")
    else:
        sys.stdout.write(text)
    return EX_OK


def _closed_form(args) -> ClosedFormSpectrum:
    p = args.params
    if args.family == "complete":
        if len(p) != 1:
            raise ParameterError("complete takes one parameter: n")
        return spectrum_complete(p[0], args.alpha)
    if args.family == "bipartite":
        if len(p) != 2:
            raise ParameterError("bipartite takes two parameters: a b")
        return spectrum_complete_bipartite(p[0], p[1], args.alpha)
    if args.family == "star":
        if len(p) != 1:
            raise ParameterError("star takes one parameter: n")
        return spectrum_star(p[0], args.alpha)
    return spectrum_complete_multipartite(p, args.alpha)


def cmd_closed_form(args) -> int:
    cf = _closed_form(args)
    if args.json:
        print(json.dumps({
            "family": args.family,
            "params": args.params,
            "alpha": args.alpha,
            "eigenvalues": [{"value": v, "multiplicity": m}
                            for v, m in cf.values_with_multiplicity],
        }))
    else:
        pieces = [f"{_fmt(v)} (x{m})" for v, m in cf.values_with_multiplicity]
        print("eigenvalues: " + ", ".join(pieces))
    return EX_OK


def cmd_verify_turan(args) -> int:
    result = verify_turan(args.n, args.r, _parse_alpha_list(args.alphas),
                          workers=args.workers)
    if args.json:
        print(json.dumps(result.to_json_obj()))
    else:
        for c in result.checks:
            line = (f"alpha={_fmt(c.alpha)} regime={c.regime} "
                    f"max={_fmt(c.max_radius)} expected={_fmt(c.expected_radius)} "
                    f"examined={c.examined} [{c.status}]")
            print(line)
            if c.detail:
                print(f"  {c.detail}")
        print("result: " + ("all checks passed" if result.ok else "COUNTEREXAMPLE"))
    return EX_OK if result.ok else EX_CHECK_FAILED


def cmd_psd_threshold(args) -> int:
    g = _read_graph(args.graph)
    t = psd_threshold(g)
    if args.json:
        print(json.dumps({"n": g.n, "m": g.m, "threshold": t}))
    else:
        print(f"threshold: {repr(float(t))}")
    return EX_OK


def cmd_enumerate(args) -> int:
    if args.clique_free is None:
        graphs = enumerate_graphs(args.n)
    elif args.clique_free < 2:
        raise ParameterError("--clique-free needs a clique size >= 2")
    else:
        _check_enumeration_order(args.n)  # the unfiltered stream's range errors
        # the class table lists the members in the same ascending mask order
        masks = class_member_masks(args.n, args.clique_free - 1, "clique_free")
        graphs = (Graph.from_edge_mask(args.n, int(m)) for m in masks)
    count = 0
    for g in graphs:
        sys.stdout.write(format_edge_list(g))
        sys.stdout.write("\n")
        count += 1
    print(f"# {count} graphs", file=sys.stderr)
    return EX_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process: parsing keeps no
    state in it, so every main call reuses it."""
    ap = argparse.ArgumentParser(
        prog="alphaspec",
        description="Spectra, bounds, and extremal checks for the convex "
                    "degree/adjacency matrix family of a graph.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p, graph=True, alpha=True):
        if graph:
            p.add_argument("graph", help="path to an edge list file")
        if alpha:
            p.add_argument("--alpha", type=float, required=True,
                           help="convex weight in [0, 1]")
        p.add_argument("--json", action="store_true", help="emit JSON")

    p = sub.add_parser("spectrum", help="eigenvalues of one matrix")
    add_common(p)
    p.add_argument("--matrix", choices=MATRIX_KINDS, default="alpha")
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("bounds", help="evaluate every applicable bound")
    add_common(p)
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("sweep", help="eigenvalues across an alpha grid, CSV")
    add_common(p, alpha=False)
    p.add_argument("--grid", required=True, help="start:stop:step, inclusive")
    p.add_argument("--out", help="CSV path (default: stdout)")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("closed-form", help="closed-form spectra of named families")
    p.add_argument("--family", required=True,
                   choices=("complete", "bipartite", "star", "multipartite"))
    p.add_argument("--params", type=int, nargs="+", required=True,
                   metavar="N", help="family sizes (e.g. part sizes)")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_closed_form)

    p = sub.add_parser("verify-turan",
                       help="exhaustively check the clique-free maximizer prediction")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--alphas", required=True, help="comma separated, e.g. 0.2,0.5,0.9")
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_verify_turan)

    p = sub.add_parser("psd-threshold",
                       help="smallest alpha with a positive semidefinite matrix")
    add_common(p, alpha=False)
    p.set_defaults(fn=cmd_psd_threshold)

    p = sub.add_parser("enumerate", help="stream all graphs on n vertices")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--clique-free", type=int, default=None, metavar="S",
                   help="keep only graphs with no clique on S vertices")
    p.set_defaults(fn=cmd_enumerate)
    return ap


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code not in (0, None):
            return EX_USAGE
        return EX_OK
    try:
        return args.fn(args)
    except FileNotFoundError as exc:
        print(f"error: no such file: {exc.filename}", file=sys.stderr)
        return EX_NOINPUT
    except IsADirectoryError as exc:
        print(f"error: is a directory: {exc.filename}", file=sys.stderr)
        return EX_NOINPUT
    except GraphFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_DATAERR
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_DATAERR
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_USAGE
    except SolverError as exc:
        details = " ".join(f"{k}={v}" for k, v in exc.diagnostics.items())
        print(f"error: {exc}" + (f" ({details})" if details else ""), file=sys.stderr)
        return EX_SOFTWARE


def entry() -> None:
    sys.exit(main())
