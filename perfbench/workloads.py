"""The three benchmark workloads: their inputs, one operation each, and its check.

Each workload turns the workload seed into an endless, deterministic stream
of inputs (Python's ``random.Random``, not hyptri's own generator), runs one
top-level operation per input and checks the operation's output. hyptri
receives only the generated inputs.

* ``Scan``: one ``scan_random(SCAN_N, seed_i)`` call per input.
* ``Equality``: one ``equal_bisector_report(A, B, SCAN_TOL)`` call per
  admissible pair, drawn from the region of acceptance criterion 4.
* ``Oneshot``: one fresh ``python -m hyptri`` process per input, from a
  seeded mix of solve, bisect, verify and figure, run one at a time.
"""

from __future__ import annotations

import json
import math
import os
import random
import resource
import subprocess
import sys
from dataclasses import dataclass
from itertools import count
from pathlib import Path

from hyptri import (
    DEFAULT_TOL,
    SCAN_TOL,
    TriangleAngles,
    TriangleSides,
    bisector_lengths,
    defect,
    equal_bisector_report,
    law_of_sines_residual,
    scan_random,
    solve_from_angles,
    solve_from_asa,
    solve_from_sas,
    solve_from_sss,
    subtriangle_residuals,
    svg_document,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN_SVG = ROOT / "tests" / "golden" / "equilateral.svg"

# Triangles per scan_random call: thousands, so one call is a real scan and
# a run still holds enough calls for a p90 with ten samples above it
# (printed for reading) and for a steady fastest call.
SCAN_N = 2000

# Thresholds of acceptance criteria 1-3 and 5 (scan) and 4 (equality case).
IDENTITY_LIMIT = 1e-9
RATIO_LIMIT = 1e-10
ROOT_LIMIT = 1e-10

# Every GOLDEN_EVERY-th oneshot operation, the first (warm-up) included,
# renders `figure sss 1 1 1` and compares it with the golden SVG.
GOLDEN_EVERY = 25
ONESHOT_KINDS = ("solve-aaa", "solve-sss", "solve-sas", "solve-asa", "bisect", "verify", "figure")
CASES = ("aaa", "sss", "sas", "asa")


def peak_rss_mib() -> float:
    """Peak resident memory of this process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Scan:
    def __init__(self, n: int = SCAN_N):
        self.n = n

    def inputs(self, seed: int):
        rnd = random.Random(seed)
        while True:
            yield rnd.getrandbits(64)

    def items(self, scan_seed: int) -> int:
        return self.n

    def run(self, scan_seed: int):
        return scan_random(self.n, scan_seed)

    def check(self, scan_seed: int, report) -> str | None:
        problems = []
        if report.samples != self.n or report.seed != scan_seed:
            problems.append(f"report is for n={report.samples} seed={report.seed}")
        if report.monotonicity_failures:
            problems.append(f"{report.monotonicity_failures} monotonicity failures")
        if report.inequality_failures:
            problems.append(f"{report.inequality_failures} proof-step inequality failures")
        if not report.max_identity_residual < IDENTITY_LIMIT:
            problems.append(f"identity residual {report.max_identity_residual!r}")
        if not report.max_ratio_residual < RATIO_LIMIT:
            problems.append(f"foot-ratio residual {report.max_ratio_residual!r}")
        return "; ".join(problems) or None

    peak_rss_mib = staticmethod(peak_rss_mib)


def equality_pair(rnd: random.Random) -> tuple[float, float]:
    """An admissible (A, B) from the region of acceptance criterion 4."""
    while True:
        A = 0.05 + rnd.random() * 2.55
        b_max = (math.pi - A - 0.1) / 2.0
        if b_max > 0.06:
            return A, 0.05 + rnd.random() * (b_max - 0.05)


def check_equality(pair: tuple[float, float], result) -> str | None:
    """The root must be C = B, and the sweep must see exactly one sign change."""
    problems = []
    if not abs(result.c - pair[1]) < ROOT_LIMIT:
        problems.append(f"|c - B| = {abs(result.c - pair[1])!r}")
    if result.sign_changes != 1:
        problems.append(f"{result.sign_changes} sign changes")
    return "; ".join(problems) or None


class Equality:
    def inputs(self, seed: int):
        rnd = random.Random(seed)
        while True:
            yield equality_pair(rnd)

    def items(self, pair) -> int:
        return 1

    def run(self, pair):
        return equal_bisector_report(pair[0], pair[1], SCAN_TOL)

    check = staticmethod(check_equality)
    peak_rss_mib = staticmethod(peak_rss_mib)


def triangle_values(case: str, rnd: random.Random) -> tuple[float, float, float]:
    """Well-conditioned CLI inputs for one solve case (radians)."""
    u = rnd.random
    if case == "aaa":
        r1, r2, r3 = sorted((u(), u(), u()))
        span = math.pi - 0.4
        return 0.1 + span * r1, 0.1 + span * (r2 - r1), 0.1 + span * (r3 - r2)
    if case == "sss":
        a, b = 0.2 + 2.8 * u(), 0.2 + 2.8 * u()
        lo, hi = abs(a - b), a + b
        return a, b, lo + (hi - lo) * (0.05 + 0.9 * u())
    if case == "sas":
        return 0.2 + 2.8 * u(), 0.1 + (math.pi - 0.2) * u(), 0.2 + 2.8 * u()
    A = 0.1 + (math.pi - 0.4) * u()
    B = 0.1 + (math.pi - 0.3 - A) * u()
    while True:
        # the rays at A and B meet only while the dual law of cosines gives cos C < 1
        c = 0.1 + 1.9 * u()
        if math.sin(A) * math.sin(B) * math.cosh(c) - math.cos(A) * math.cos(B) < 0.99:
            return A, c, B


def solve_case(case: str, values):
    """The library call behind `hyptri solve <case> <values>`."""
    if case == "aaa":
        return solve_from_angles(TriangleAngles(*values, tol=DEFAULT_TOL), tol=DEFAULT_TOL)
    if case == "sss":
        return solve_from_sss(TriangleSides(*values, tol=DEFAULT_TOL), tol=DEFAULT_TOL)
    if case == "sas":
        return solve_from_sas(*values, tol=DEFAULT_TOL)
    return solve_from_asa(*values, tol=DEFAULT_TOL)


@dataclass(frozen=True)
class CliOp:
    """One CLI invocation: its subcommand, inputs and argv after `hyptri`."""

    command: str
    case: str | None
    values: tuple
    argv: tuple[str, ...]
    out: str | None = None
    golden: bool = False


@dataclass(frozen=True)
class CliResult:
    returncode: int
    stdout: str
    stderr: str


def golden_op(out: Path) -> CliOp:
    return CliOp("figure", "sss", (1.0, 1.0, 1.0),
                 ("figure", "sss", "1", "1", "1", "--out", str(out)), str(out), True)


def make_op(kind: str, rnd: random.Random, out: Path) -> CliOp:
    """A CLI operation of ``kind`` (one of ONESHOT_KINDS) on seeded inputs."""
    if kind == "verify":
        values = equality_pair(rnd)
        return CliOp("verify", None, values,
                     ("verify", *map(repr, values), "--format", "json"))
    command, _, case = kind.partition("-")
    case = case or rnd.choice(CASES)
    values = triangle_values(case, rnd)
    argv = (command, case, *map(repr, values))
    if command == "figure":
        return CliOp(command, case, values, (*argv, "--out", str(out)), str(out))
    return CliOp(command, case, values, (*argv, "--format", "json"))


def expected_payload(op: CliOp) -> dict:
    """What `--format json` must print, computed with the library in-process."""
    if op.command == "verify":
        A, B = op.values
        r = equal_bisector_report(A, B, DEFAULT_TOL)
        return {"c": r.c, "gap_to_b": abs(r.c - B),
                "sign_changes": r.sign_changes, "iterations": r.iterations}
    t = solve_case(op.case, op.values)
    if op.command == "solve":
        return {"a": t.a, "b": t.b, "c": t.c, "A": t.A, "B": t.B, "C": t.C,
                "defect": defect(t.angles), "residual": law_of_sines_residual(t)}
    d = bisector_lengths(t, DEFAULT_TOL)
    res = subtriangle_residuals(t, d)
    return {"beta": d.beta, "gamma": d.gamma, "u": d.u, "U": d.U, "v": d.v, "V": d.V,
            "tB": d.tB, "tC": d.tC, "res_u": res.res_u, "res_U": res.res_U,
            "res_v": res.res_v, "res_V": res.res_V}


def expected_svg(op: CliOp) -> bytes:
    if op.golden:
        return GOLDEN_SVG.read_bytes()
    t = solve_case(op.case, op.values)
    return svg_document(t, bisector_lengths(t, DEFAULT_TOL)).encode("utf-8")


def check_cli(op: CliOp, result: CliResult) -> str | None:
    """Exit code 0, and output equal to the in-process library result."""
    figure = Path(op.out) if op.out else None
    try:
        if result.returncode != 0:
            return f"{' '.join(op.argv)}: exit {result.returncode}: {result.stderr.strip()}"
        if figure is not None:
            if result.stdout.strip() != op.out:
                return f"{' '.join(op.argv)}: printed {result.stdout.strip()!r}"
            if figure.read_bytes() != expected_svg(op):
                return f"{' '.join(op.argv)}: SVG bytes differ from the expected figure"
            return None
        try:
            got = json.loads(result.stdout)
        except ValueError:
            got = None
        if not isinstance(got, dict):
            return f"{' '.join(op.argv)}: stdout is not a JSON object"
        wrong = [key for key, value in expected_payload(op).items() if got.get(key) != value]
        if wrong:
            return f"{' '.join(op.argv)}: {', '.join(wrong)} differ from the library"
        return None
    finally:
        if figure is not None:
            figure.unlink(missing_ok=True)


def spawn(argv: list[str], env: dict) -> tuple[CliResult, int]:
    """Run one process to completion; returns its result and peak RSS (KiB)."""
    with subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as proc:
        out = proc.stdout.read()
        err = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return CliResult(proc.returncode, out.decode(), err.decode()), usage.ru_maxrss


def child_env() -> dict:
    """The environment for child interpreters: hyptri from this checkout's src."""
    return dict(os.environ, PYTHONPATH=str(SRC))


class Oneshot:
    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.env = child_env()
        self.child_peak_kib = 0

    def inputs(self, seed: int):
        rnd = random.Random(seed)
        for i in count():
            out = self.workdir / f"figure-{i}.svg"
            if i % GOLDEN_EVERY == 0:
                yield golden_op(out)
            else:
                yield make_op(rnd.choice(ONESHOT_KINDS), rnd, out)

    def items(self, op: CliOp) -> int:
        return 1

    def run(self, op: CliOp) -> CliResult:
        result, peak_kib = spawn([sys.executable, "-m", "hyptri", *op.argv], self.env)
        self.child_peak_kib = max(self.child_peak_kib, peak_kib)
        return result

    check = staticmethod(check_cli)

    def peak_rss_mib(self) -> float:
        """Peak resident memory of the largest CLI process run so far."""
        return self.child_peak_kib / 1024.0
