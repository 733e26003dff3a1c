"""Command-line front end.

Subcommands: solve, bisect, verify, scan, study, figure. Output goes to
stdout in text, json, or csv; diagnostics go to stderr. Exit codes:
0 success, 1 verification failure, 2 usage/parse error, 3 domain rejection,
4 output failure. Nothing is read from the environment; all behavior comes
from flags, so equal invocations produce byte-identical reports. The CPU
affinity picks how many processes `scan` runs in, never its bytes.

The command line is read against one grammar table, `_COMMANDS`, in the
forms argparse accepts: options anywhere after the subcommand, `--name
value` or `--name=value`, a unique prefix of an option name, the last value
of a repeated option, `--` to end the options, and `-h`/`--help`, which
prints help to stdout. An argument that starts with `-` is a value when
`float()` accepts it, so `-1e-5` and `-inf` reach the library's range
rules. A usage error prints a `usage: hyptri ...` line and a `hyptri <cmd>:
error: ...` line on stderr and exits 2. `--format json` and `--format csv`
write the flat payload of numbers themselves, byte for byte as `json.dumps`
and `csv.writer` would.

Each subcommand imports only the modules it runs. None imports `argparse`
(with `gettext` and `locale`), `json` or `csv`, whose imports and per-call
parser build would cost more than the rest of the CLI's start, and `solve`
never imports `dataclasses` (with `inspect`).

`main(argv)` runs one command and returns its exit code. It leaves the
garbage collector as it found it, so tests and long-lived callers run it
in-process. `python -m hyptri` and the `hyptri` script start at
`hyptri.__main__.run`, which calls `main` and then freezes the heap, so
that the interpreter's exit skips its last collection. They are the only
process entries: this module runs no command of its own when executed, so
`python -m hyptri.cli` does nothing.
"""

import math
import sys
from types import SimpleNamespace

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


def _tolerance(args: SimpleNamespace, base: ToleranceConfig) -> ToleranceConfig:
    if args.rtol is None:
        return base
    return ToleranceConfig(args.rtol, base.eps_angle)


def _triangle_from_args(args: SimpleNamespace, tol: ToleranceConfig) -> Triangle:
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


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_object(payload: dict) -> str:
    """payload as json.dumps writes it, for identifier keys and int or float
    values: each number as its repr, nan and +-inf as NaN and +-Infinity."""
    items = []
    for key, value in payload.items():
        text = repr(value)
        items.append(f'"{key}": {_NON_FINITE.get(text, text)}')
    return "{" + ", ".join(items) + "}"


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(_json_object(payload))
    elif fmt == "csv":
        print(",".join(payload))
        print(",".join(map(repr, payload.values())))
    else:
        for key, value in payload.items():
            print(f"{key} = {value!r}")


def _verdict(study: str, failures: list[str]) -> int:
    """Exit 0, or name the failed criteria on stderr and exit 1."""
    if failures:
        print(f"{study} failed: {'; '.join(failures)}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_solve(args: SimpleNamespace) -> int:
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


def _cmd_bisect(args: SimpleNamespace) -> int:
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


def _cmd_verify(args: SimpleNamespace) -> int:
    from .steiner_lehmus import equal_bisector_report

    A, B = args.A, args.B
    if args.degrees:
        A, B = math.radians(A), math.radians(B)
    result = equal_bisector_report(A, B, DEFAULT_TOL)
    gap_to_b = abs(result.c - B)
    payload = {
        "c": result.c,
        "gap_to_b": gap_to_b,
        "sign_changes": result.sign_changes,
        "iterations": result.iterations,
    }
    _emit(payload, args.format)
    return _verdict("verification", result.failures(B))


def _report(study: str, report, fmt: str) -> int:
    """A seeded study's report on stdout, then its verdict."""
    from dataclasses import asdict

    _emit(asdict(report), fmt)
    return _verdict(study, report.failures())


def _cmd_scan(args: SimpleNamespace) -> int:
    from .steiner_lehmus import SCAN_TOL, scan_random

    tol = _tolerance(args, SCAN_TOL)
    return _report("scan", scan_random(args.n, args.seed, tol), args.format)


def _cmd_study(args: SimpleNamespace) -> int:
    from .steiner_lehmus import equality_study

    return _report("study", equality_study(args.n, args.seed), args.format)


def _cmd_figure(args: SimpleNamespace) -> int:
    from .cevian import bisector_lengths
    from .diskmodel import render_svg

    tol = _tolerance(args, DEFAULT_TOL)
    t = _triangle_from_args(args, tol)
    d = bisector_lengths(t, tol)
    render_svg(t, d, args.out)
    print(args.out)
    return 0


_REQUIRED = object()  # the default of an option that must be given
# a positional: (name in messages, attribute, converter, count, help), where a
# converter is a type or a tuple of choices and a count of 1 stores no list
_TRIANGLE = (
    ("case", "case", ("aaa", "sss", "sas", "asa"), 1,
     "which three elements determine the triangle"),
    ("VALUE", "values", float, 3, "aaa: A B C; sss: a b c; sas: b A c; asa: A c B"),
)
# an option: (converter, or None for a flag, default, help); its attribute is
# its name without the leading "--"
_DEGREES = {"--degrees": (None, False, "interpret input angles in degrees")}
_FORMAT = {"--format": (("text", "json", "csv"), "text", "output format (default: text)")}
_RTOL = {"--rtol": (float, None, "override the identity-residual tolerance")}
_COMMON = {**_FORMAT, **_RTOL}
_SEED = {"--seed": (int, 0, "generator seed (default 0)")}
# a command: (handler, help, positionals, options)
_COMMANDS = {
    "solve": (_cmd_solve, "solve a triangle and report all six elements",
              _TRIANGLE, {**_DEGREES, **_COMMON}),
    "bisect": (_cmd_bisect, "bisector feet, lengths, and identity residuals",
               _TRIANGLE, {**_DEGREES, **_COMMON}),
    "verify": (_cmd_verify, "recover C from equal bisector lengths; expects C = B", (
        ("A", "A", float, 1, "apex angle A (radians)"),
        ("B", "B", float, 1, "base angle B (radians)"),
    ), {**_DEGREES, **_FORMAT}),
    "scan": (_cmd_scan, "randomized ensemble scan of every identity and sign law",
             (("n", "n", int, 1, "number of sampled triangles"),), {**_SEED, **_COMMON}),
    "study": (_cmd_study, "equality-case study: verify on seeded random (A, B) pairs",
              (("n", "n", int, 1, "number of (A, B) pairs"),), {**_SEED, **_FORMAT}),
    "figure": (_cmd_figure, "render the triangle with both bisectors as SVG", _TRIANGLE,
               {**_DEGREES, "--out": (str, _REQUIRED, "output SVG path"), **_RTOL}),
}


class _UsageError(Exception):
    """A command line the grammar rejects: exit 2, with the usage on stderr."""


def _is_option(arg: str) -> bool:
    """Whether arg names an option rather than a value: it starts with '-',
    is not '-' alone, and float() rejects it (so -1e-5 and -inf are values)."""
    try:
        float(arg)
    except ValueError:
        return arg[:1] == "-" and arg != "-"
    return False


def _convert(name: str, convert, word: str):
    """word through a converter: a type, or a tuple of the allowed choices."""
    if type(convert) is tuple:
        if word in convert:
            return word
        choices = ", ".join(map(repr, convert))
        raise _UsageError(f"argument {name}: invalid choice: {word!r} (choose from {choices})")
    try:
        return convert(word)
    except ValueError:
        kind = convert.__name__
        raise _UsageError(f"argument {name}: invalid {kind} value: {word!r}") from None


def _spell(name: str, convert) -> str:
    """An argument as usage and help write it: a positional as its choices or
    name, an option as its name and, unless it is a flag, its value's."""
    if name[:2] == "--":
        return name if convert is None else f"{name} {_spell(name[2:].upper(), convert)}"
    return "{" + ",".join(convert) + "}" if type(convert) is tuple else name


def _help(command: str | None, full: bool = True) -> str:
    """The usage line and, when full, a summary and a line per argument."""
    if command is None:
        summary = ("Hyperbolic triangle solvers, bisector geometry, and equal-bisector "
                   "theorem verification.")
        words = ["[-h]", _spell("", tuple(_COMMANDS)), "..."]
        rows = [(name, spec[1]) for name, spec in _COMMANDS.items()]
    else:
        _, summary, positionals, options = _COMMANDS[command]
        rows, words = [], [command, "[-h]"]
        for name, _, convert, count, text in positionals:
            rows.append((_spell(name, convert), text))
            words += [rows[-1][0]] * count
        for name, (convert, default, text) in options.items():
            rows.append((_spell(name, convert), text))
            words.append(rows[-1][0] if default is _REQUIRED else f"[{rows[-1][0]}]")
    lines = [f"usage: hyptri {' '.join(words)}", "", summary, ""]
    for name, text in [*rows, ("-h, --help", "show this help message and exit")]:
        lines.append(f"  {name:<26}{text}")
    return "\n".join(lines if full else lines[:1])


def _parse(argv: list[str]) -> SimpleNamespace | None:
    """The namespace the `_cmd_*` functions read, or None once help is
    printed; a command line the grammar rejects raises _UsageError."""
    if argv[:1] in (["-h"], ["--help"]):
        print(_help(None))
        return None
    if not argv:
        raise _UsageError("the following arguments are required: command")
    command = _convert("command", tuple(_COMMANDS), argv[0])
    _, _, positionals, options = _COMMANDS[command]
    given = {}
    words = []
    args = iter(argv[1:])
    for arg in args:
        if arg == "--":
            words += args
        elif not _is_option(arg):
            words.append(arg)
        else:
            name, eq, value = arg.partition("=")
            # -h, or a unique prefix of an option; no option name is a prefix of another
            matches = ["--help"] if name == "-h" else [
                option for option in (*options, "--help") if option.startswith(name)
            ]
            if len(matches) != 1 or name == "--":
                raise _UsageError(f"unrecognized arguments: {arg}")
            name = matches[0]
            if name == "--help":
                print(_help(command))
                return None
            flag = options[name][0] is None
            if flag and eq:
                raise _UsageError(f"argument {name}: ignored explicit argument {value!r}")
            if not (flag or eq):
                value = next(args, "--")  # no value left reads as an option
                if _is_option(value):
                    raise _UsageError(f"argument {name}: expected one argument")
            given[name] = value

    namespace = SimpleNamespace(command=command)
    missing = []
    for name, attr, convert, count, _ in positionals:
        chunk, words = words[:count], words[count:]
        if len(chunk) < count:
            missing.append(name)
        else:
            values = [_convert(name, convert, word) for word in chunk]
            setattr(namespace, attr, values[0] if count == 1 else values)
    for name, (convert, default, _) in options.items():
        value = given.get(name, default)
        if value is _REQUIRED:
            missing.append(name)
        elif name in given:
            value = True if convert is None else _convert(name, convert, value)
        setattr(namespace, name[2:], value)
    if missing:
        raise _UsageError(f"the following arguments are required: {', '.join(missing)}")
    if words:
        raise _UsageError(f"unrecognized arguments: {' '.join(words)}")
    return namespace


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse(argv)
        return 0 if args is None else _COMMANDS[args.command][0](args)
    except _UsageError as exc:
        command = argv[0] if argv and argv[0] in _COMMANDS else None
        prog = "hyptri" if command is None else f"hyptri {command}"
        print(f"{_help(command, full=False)}\n{prog}: error: {exc}", file=sys.stderr)
        return 2
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
