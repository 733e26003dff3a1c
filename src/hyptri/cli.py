"""Command-line front end.

Subcommands: solve, bisect, verify, scan, figure. Output goes to stdout in
text, json, or csv; diagnostics go to stderr. Exit codes: 0 success,
1 verification failure, 2 usage/parse error, 3 domain rejection, 4 output
failure. Nothing is read from the environment; all behavior comes from
flags, so equal invocations produce byte-identical reports. Each subcommand
imports only the modules it runs: `solve` loads core alone and never
imports `dataclasses`, which with the `inspect` it pulls in would be about
a third of the CLI's import time.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys

from .core import (
    DEFAULT_TOL,
    DomainCap,
    HypTriError,
    InvalidInput,
    InvalidPoint,
    InvalidTriangle,
    NumericalFailure,
    ToleranceConfig,
    Triangle,
    TriangleAngles,
    TriangleSides,
    defect,
    law_of_sines_residual,
    solve_from_angles,
    solve_from_asa,
    solve_from_sas,
    solve_from_sss,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyptri",
        description="Hyperbolic triangle solvers, bisector geometry, and "
        "equal-bisector theorem verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--format", choices=("text", "json", "csv"), default="text",
            help="output format (default: text)",
        )
        p.add_argument(
            "--rtol", type=float, default=None,
            help="override the identity-residual tolerance",
        )

    def add_triangle_input(p: argparse.ArgumentParser) -> None:
        p.add_argument("case", choices=("aaa", "sss", "sas", "asa"),
                       help="which three elements determine the triangle")
        p.add_argument("values", type=float, nargs=3, metavar="VALUE",
                       help="aaa: A B C; sss: a b c; sas: b A c; asa: A c B")
        p.add_argument("--degrees", action="store_true",
                       help="interpret input angles in degrees")

    p_solve = sub.add_parser("solve", help="solve a triangle and report all six elements")
    add_triangle_input(p_solve)
    add_common(p_solve)

    p_bisect = sub.add_parser("bisect", help="bisector feet, lengths, and identity residuals")
    add_triangle_input(p_bisect)
    add_common(p_bisect)

    p_verify = sub.add_parser(
        "verify", help="recover C from equal bisector lengths; expects C = B"
    )
    p_verify.add_argument("A", type=float, help="apex angle A (radians)")
    p_verify.add_argument("B", type=float, help="base angle B (radians)")
    p_verify.add_argument("--degrees", action="store_true",
                          help="interpret input angles in degrees")
    add_common(p_verify)

    p_scan = sub.add_parser("scan", help="randomized ensemble scan of every identity and sign law")
    p_scan.add_argument("n", type=int, help="number of sampled triangles")
    p_scan.add_argument("--seed", type=int, default=0, help="generator seed (default 0)")
    add_common(p_scan)

    p_figure = sub.add_parser("figure", help="render the triangle with both bisectors as SVG")
    add_triangle_input(p_figure)
    p_figure.add_argument("--out", required=True, help="output SVG path")
    add_common(p_figure)

    return parser


def _tolerance(args: argparse.Namespace, base: ToleranceConfig) -> ToleranceConfig:
    if args.rtol is None:
        return base
    return ToleranceConfig(args.rtol, base.eps_angle)


def _triangle_from_args(args: argparse.Namespace, tol: ToleranceConfig) -> Triangle:
    values = list(args.values)
    if args.degrees:
        angle_slots = {"aaa": (0, 1, 2), "sss": (), "sas": (1,), "asa": (0, 2)}[args.case]
        for i in angle_slots:
            values[i] = math.radians(values[i])
    if args.case == "aaa":
        return solve_from_angles(TriangleAngles(*values, tol=tol), tol=tol)
    if args.case == "sss":
        return solve_from_sss(TriangleSides(*values, tol=tol), tol=tol)
    if args.case == "sas":
        return solve_from_sas(values[0], values[1], values[2], tol=tol)
    return solve_from_asa(values[0], values[1], values[2], tol=tol)


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload))
    elif fmt == "csv":
        import csv

        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(payload.keys())
        writer.writerow(payload.values())
        sys.stdout.write(buffer.getvalue())
    else:
        for key, value in payload.items():
            print(f"{key} = {value!r}")


def _verdict(study: str, failures: list[str]) -> int:
    """Exit 0, or name the failed criteria on stderr and exit 1."""
    if failures:
        print(f"{study} failed: {'; '.join(failures)}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_solve(args: argparse.Namespace) -> int:
    tol = _tolerance(args, DEFAULT_TOL)
    t = _triangle_from_args(args, tol)
    payload = {
        "a": t.a, "b": t.b, "c": t.c,
        "A": t.A, "B": t.B, "C": t.C,
        "defect": defect(t.angles),
        "residual": law_of_sines_residual(t),
    }
    _emit(payload, args.format)
    return 0


def _cmd_bisect(args: argparse.Namespace) -> int:
    from .cevian import bisector_lengths, subtriangle_residuals

    tol = _tolerance(args, DEFAULT_TOL)
    t = _triangle_from_args(args, tol)
    d = bisector_lengths(t, tol)
    res = subtriangle_residuals(t, d)
    payload = {
        "beta": d.beta, "gamma": d.gamma,
        "u": d.u, "U": d.U, "v": d.v, "V": d.V,
        "tB": d.tB, "tC": d.tC,
        "res_u": res.res_u, "res_U": res.res_U,
        "res_v": res.res_v, "res_V": res.res_V,
    }
    _emit(payload, args.format)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .steiner_lehmus import equal_bisector_report

    tol = _tolerance(args, DEFAULT_TOL)
    A, B = args.A, args.B
    if args.degrees:
        A, B = math.radians(A), math.radians(B)
    result = equal_bisector_report(A, B, tol)
    gap_to_b = abs(result.c - B)
    payload = {
        "c": result.c,
        "gap_to_b": gap_to_b,
        "sign_changes": result.sign_changes,
        "iterations": result.iterations,
    }
    _emit(payload, args.format)
    return _verdict("verification", result.failures(B))


def _cmd_scan(args: argparse.Namespace) -> int:
    from dataclasses import asdict

    from .steiner_lehmus import SCAN_TOL, scan_random

    tol = _tolerance(args, SCAN_TOL)
    report = scan_random(args.n, args.seed, tol)
    _emit(asdict(report), args.format)
    return _verdict("scan", report.failures())


def _cmd_figure(args: argparse.Namespace) -> int:
    from .cevian import bisector_lengths
    from .diskmodel import render_svg

    tol = _tolerance(args, DEFAULT_TOL)
    t = _triangle_from_args(args, tol)
    d = bisector_lengths(t, tol)
    render_svg(t, d, args.out)
    print(args.out)
    return 0


_DISPATCH = {
    "solve": _cmd_solve,
    "bisect": _cmd_bisect,
    "verify": _cmd_verify,
    "scan": _cmd_scan,
    "figure": _cmd_figure,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except (InvalidTriangle, DomainCap, NumericalFailure, InvalidInput, InvalidPoint) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 4
    except HypTriError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
