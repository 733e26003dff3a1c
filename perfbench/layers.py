"""The traced run: per-layer self times, counts and tracing overhead.

Spans are recorded only here, around the benchmark's own calls into the
public functions of each hyptri module (the layers), never inside hyptri.
A span holds its name, start, end, parent span and operation id; spans stay
in memory and are written out once, at the end of the run. A layer's self
time is its span's duration minus the durations of its direct children.

The scan layers come from a replay of ``scan_random``'s loop made of public
calls. The replay must reproduce ``scan_random``'s report field for field,
or its layer split would describe a different program, so a mismatch stops
the traced run.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import random
import statistics
import sys
from array import array
from dataclasses import dataclass, field, fields
from pathlib import Path
from time import perf_counter_ns

import hyptri.cli
from hyptri import (
    SCAN_TOL,
    ScanReport,
    SplitMix64,
    Triangle,
    TriangleAngles,
    bisector_lengths,
    check_monotonicity,
    equal_bisector_report,
    law_of_sines_residual,
    proof_trace,
    render_svg,
    sample_angles,
    scan_random,
    solve_from_angles,
    subtriangle_residuals,
    svg_document,
)

import workloads

# name -> (unit, the end-to-end metrics it should move)
PER_LAYER = {
    "rng.sample_angles.us": ("us", "scan.op_ms_min"),
    "core.TriangleAngles.us": ("us", "scan.op_ms_min"),
    "core.solve_from_angles.us": ("us", "scan.op_ms_min"),
    "cevian.bisector_lengths.us": ("us", "scan.op_ms_min"),
    "cevian.subtriangle_residuals.us": ("us", "scan.op_ms_min"),
    "core.law_of_sines_residual.us": ("us", "scan.op_ms_min"),
    "steiner_lehmus.proof_trace.us": ("us", "scan.op_ms_min"),
    "steiner_lehmus.check_monotonicity.us": ("us", "scan.op_ms_min"),
    "core.Triangle.validate_us": ("us", "scan.op_ms_min"),
    "steiner_lehmus.scan_random.unattributed_us": ("us", "scan.op_ms_min"),
    "scan.triangles": ("count", "none: the traced scan's size"),
    "scan.trace_overhead": ("ratio", "none: traced over untraced time"),
    "steiner_lehmus.equal_bisector_report.ms": ("ms", "equality.op_ms_min"),
    "steiner_lehmus.root.ms": ("ms", "equality.op_ms_min"),
    "steiner_lehmus.sweep.ms": ("ms", "equality.op_ms_min"),
    "steiner_lehmus.root.evals": ("count", "equality.op_ms_min"),
    "steiner_lehmus.sweep.evals": ("count", "equality.op_ms_min"),
    "equality.trace_overhead": ("ratio", "none: traced over untraced time"),
    "python.startup_ms": ("ms", "none: the interpreter's floor"),
    "cli.import_ms": ("ms", "oneshot.op_ms_min, setup_s everywhere"),
    "cli.main.solve.ms": ("ms", "oneshot.op_ms_min"),
    "cli.main.bisect.ms": ("ms", "oneshot.op_ms_min"),
    "cli.main.verify.ms": ("ms", "oneshot.op_ms_min"),
    "cli.main.figure.ms": ("ms", "oneshot.op_ms_min"),
    "diskmodel.svg_document.us": ("us", "oneshot.op_ms_min"),
    "diskmodel.render_svg.us": ("us", "oneshot.op_ms_min"),
    "diskmodel.svg.bytes": ("count", "oneshot.op_ms_min"),
    "oneshot.trace_overhead": ("ratio", "none: traced over untraced time"),
}

# The layer calls of one replayed scan triangle; their self times are the
# traced sum that steiner_lehmus.scan_random.unattributed_us subtracts.
SCAN_CALLS = (
    "rng.sample_angles",
    "core.TriangleAngles",
    "core.solve_from_angles",
    "cevian.bisector_lengths",
    "steiner_lehmus.proof_trace",
    "steiner_lehmus.check_monotonicity",
    "core.law_of_sines_residual",
    "cevian.subtriangle_residuals",
)

SPAN_FIELDS = 5  # name id, start ns, end ns, parent span (-1: none), operation id


class ReplayMismatch(RuntimeError):
    """The traced replay of scan_random disagrees with scan_random itself."""


class Tracer:
    """Spans kept in one flat in-memory array, written out at the end."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._rows = array("q")

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name: str, parent: int, op: int) -> int:
        span = len(self._rows) // SPAN_FIELDS
        self._rows.extend((self._name_id(name), perf_counter_ns(), -1, parent, op))
        return span

    def end(self, span: int) -> None:
        self._rows[span * SPAN_FIELDS + 2] = perf_counter_ns()

    def call(self, name: str, parent: int, op: int, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` recorded as one span."""
        start = perf_counter_ns()
        result = fn(*args, **kwargs)
        end = perf_counter_ns()
        self._rows.extend((self._name_id(name), start, end, parent, op))
        return result

    def spans(self):
        rows = self._rows
        for i in range(0, len(rows), SPAN_FIELDS):
            yield rows[i:i + SPAN_FIELDS]

    def self_ns(self) -> dict[str, int]:
        """Total self time per span name."""
        duration = [end - start for _, start, end, _, _ in self.spans()]
        own = list(duration)
        for span, (_, _, _, parent, _) in enumerate(self.spans()):
            if parent >= 0:
                own[parent] -= duration[span]
        totals = dict.fromkeys(self.names, 0)
        for span, (name, *_rest) in enumerate(self.spans()):
            totals[self.names[name]] += own[span]
        return totals

    def durations_ns(self, name: str) -> list[int]:
        """Duration of every span called ``name``, in recording order."""
        wanted = self._ids[name]
        return [end - start for n, start, end, _, _ in self.spans() if n == wanted]

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("span,name,start_ns,end_ns,parent,op\n")
            for span, (name, start, end, parent, op) in enumerate(self.spans()):
                handle.write(f"{span},{self.names[name]},{start},{end},{parent},{op}\n")


@dataclass
class Profile:
    """Metrics and spans of one traced pass, with its checked operations."""

    tracer: Tracer = field(default_factory=Tracer)
    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def checked(self, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failures.append(reason)


def replay_scan(tracer: Tracer, op: int, n: int, seed: int, kept: list) -> ScanReport:
    """scan_random(n, seed) rebuilt from traced public calls; the reduction
    mirrors scan_random line for line. Solved triangles are appended to
    ``kept``."""
    t = SCAN_TOL
    top = tracer.begin("steiner_lehmus.scan_random", -1, op)
    call = tracer.call
    rng = call("rng.SplitMix64", top, op, SplitMix64, seed)
    max_sine = 0.0
    max_cevian = 0.0
    max_ratio = 0.0
    mono_failures = 0
    ineq_failures = 0
    ties = 0
    max_side = 0.0
    for _ in range(n):
        A, B, C = call("rng.sample_angles", top, op, sample_angles, rng, t.eps_angle)
        angles = call("core.TriangleAngles", top, op, TriangleAngles, A, B, C, tol=t)
        tri = call("core.solve_from_angles", top, op, solve_from_angles, angles, tol=t)
        d = call("cevian.bisector_lengths", top, op, bisector_lengths, tri, tol=t)
        trace = call("steiner_lehmus.proof_trace", top, op, proof_trace, tri, d=d)
        mono = call("steiner_lehmus.check_monotonicity", top, op, check_monotonicity, tri, tol=t, d=d)
        sine = call("core.law_of_sines_residual", top, op, law_of_sines_residual, tri)
        cevian = call("cevian.subtriangle_residuals", top, op, subtriangle_residuals, tri, d)
        kept.append(tri)

        max_sine = max(max_sine, sine)
        max_cevian = max(max_cevian, cevian.max())
        max_ratio = max(max_ratio, trace.idU, trace.idV)
        max_side = max(max_side, tri.a, tri.b, tri.c)

        if mono.in_tie_band:
            ties += 1
        if not mono.passed:
            mono_failures += 1
        if not mono.in_tie_band:
            if B < C:
                ok = trace.R1 < 1.0 and trace.R2 < 1.0 and trace.R3 > 1.0 and tri.b < tri.c
            else:
                ok = trace.R1 > 1.0 and trace.R2 > 1.0 and trace.R3 < 1.0 and tri.b > tri.c
            if not ok:
                ineq_failures += 1
    tracer.end(top)
    return ScanReport(
        samples=n,
        seed=seed,
        eps_angle=t.eps_angle,
        max_identity_residual=max(max_sine, max_cevian),
        max_sine_residual=max_sine,
        max_cevian_residual=max_cevian,
        max_ratio_residual=max_ratio,
        monotonicity_failures=mono_failures,
        inequality_failures=ineq_failures,
        tie_band_samples=ties,
        max_side=max_side,
    )


def assert_same_report(replayed: ScanReport, reference: ScanReport) -> None:
    differ = [
        f"{f.name}: replay {getattr(replayed, f.name)!r} != scan_random {getattr(reference, f.name)!r}"
        for f in fields(ScanReport)
        if getattr(replayed, f.name) != getattr(reference, f.name)
    ]
    if differ:
        raise ReplayMismatch("; ".join(differ))


def scan_layers(seed: int, calls: int, n: int = workloads.SCAN_N) -> Profile:
    """µs per triangle of each scan layer, on the scan workload's first inputs."""
    profile = Profile()
    tracer = profile.tracer
    scan = workloads.Scan(n)
    stream = scan.inputs(seed)
    seeds = [next(stream) for _ in range(calls)]
    untraced_ns = 0
    kept: list = []
    for op, s in enumerate(seeds):
        start = perf_counter_ns()
        reference = scan_random(n, s)
        untraced_ns += perf_counter_ns() - start
        profile.checked(scan.check(s, reference))
        assert_same_report(replay_scan(tracer, op, n, s, kept), reference)
    for i, tri in enumerate(kept):
        tracer.call("core.Triangle", -1, i // n, Triangle, tri.sides, tri.angles, tol=SCAN_TOL)

    triangles = calls * n
    own = tracer.self_ns()
    per_tri = {name: own[name] / triangles / 1e3 for name in SCAN_CALLS}
    m = profile.metrics
    for name in SCAN_CALLS:
        m[f"{name}.us"] = per_tri[name]
    m["core.Triangle.validate_us"] = own["core.Triangle"] / triangles / 1e3
    # The reduction's cost plus tracing overhead; it goes negative when the
    # spans' own timer calls cost more than the reduction they leave out.
    m["steiner_lehmus.scan_random.unattributed_us"] = (
        untraced_ns / triangles / 1e3 - sum(per_tri.values())
    )
    m["scan.triangles"] = triangles
    m["scan.trace_overhead"] = sum(tracer.durations_ns("steiner_lehmus.scan_random")) / untraced_ns
    return profile


def equality_layers(seed: int, pairs: int) -> Profile:
    """Root solve and sign sweep of equal_bisector_report, per pair."""
    profile = Profile()
    tracer = profile.tracer
    stream = workloads.Equality().inputs(seed)
    inputs = [next(stream) for _ in range(pairs)]
    untraced_ns = 0
    root_evals = 0
    for op, (A, B) in enumerate(inputs):
        start = perf_counter_ns()
        equal_bisector_report(A, B, SCAN_TOL)
        untraced_ns += perf_counter_ns() - start
        full = tracer.call("steiner_lehmus.equal_bisector_report", -1, op,
                           equal_bisector_report, A, B, SCAN_TOL)
        root = tracer.call("steiner_lehmus.root", -1, op,
                           equal_bisector_report, A, B, SCAN_TOL, sweep_points=1)
        reason = workloads.check_equality((A, B), full)
        if reason is None and (root.c, root.iterations) != (full.c, full.iterations):
            reason = "the root-only call found another root"
        profile.checked(reason)
        root_evals += full.iterations
    sweep_points = inspect.signature(equal_bisector_report).parameters["sweep_points"].default
    own = tracer.self_ns()
    report_ms = own["steiner_lehmus.equal_bisector_report"] / pairs / 1e6
    root_ms = own["steiner_lehmus.root"] / pairs / 1e6
    profile.metrics.update({
        "steiner_lehmus.equal_bisector_report.ms": report_ms,
        "steiner_lehmus.root.ms": root_ms,
        "steiner_lehmus.sweep.ms": report_ms - root_ms,
        "steiner_lehmus.root.evals": root_evals,
        "steiner_lehmus.sweep.evals": pairs * sweep_points,
        "equality.trace_overhead": own["steiner_lehmus.equal_bisector_report"] / untraced_ns,
    })
    return profile


def cli_main(argv) -> workloads.CliResult:
    """hyptri.cli.main(argv) in-process, stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = hyptri.cli.main(list(argv))
    return workloads.CliResult(code, out.getvalue(), err.getvalue())


def oneshot_layers(seed: int, spawns: int, calls: int, workdir: Path) -> Profile:
    """Interpreter floor, import cost, in-process cli.main per subcommand,
    and the SVG writer."""
    profile = Profile()
    tracer = profile.tracer
    env = workloads.child_env()
    m = profile.metrics
    floor = {}
    for label, code in (("python.startup", "pass"), ("cli.import", "import hyptri.cli")):
        for op in range(spawns):
            result, _ = tracer.call(label, -1, op, workloads.spawn, [sys.executable, "-c", code], env)
            profile.checked(None if result.returncode == 0 else f"{code}: {result.stderr.strip()}")
        floor[label] = statistics.median(tracer.durations_ns(label)) / 1e6
    m["python.startup_ms"] = floor["python.startup"]
    m["cli.import_ms"] = floor["cli.import"] - floor["python.startup"]

    rnd = random.Random(seed)
    ops = [workloads.golden_op(workdir / "golden.svg")]
    for command in ("solve", "bisect", "verify", "figure"):
        for i in range(calls):
            kind = f"solve-{workloads.CASES[i % 4]}" if command == "solve" else command
            ops.append(workloads.make_op(kind, rnd, workdir / f"figure-{len(ops)}.svg"))
    profile.checked(workloads.check_cli(ops[0], cli_main(ops[0].argv)))  # warm-up
    untraced_ns = 0
    for i, op in enumerate(ops):
        start = perf_counter_ns()
        result = cli_main(op.argv)
        untraced_ns += perf_counter_ns() - start
        profile.checked(workloads.check_cli(op, result))
        result = tracer.call(f"cli.main.{op.command}", -1, i, cli_main, op.argv)
        profile.checked(workloads.check_cli(op, result))
    own = tracer.self_ns()
    for command in ("solve", "bisect", "verify", "figure"):
        runs = sum(op.command == command for op in ops)
        m[f"cli.main.{command}.ms"] = own[f"cli.main.{command}"] / runs / 1e6
    m["oneshot.trace_overhead"] = sum(own[f"cli.main.{c}"] for c in
                                      ("solve", "bisect", "verify", "figure")) / untraced_ns

    figures = [op for op in ops if op.command == "figure"]
    svg_bytes = 0
    for i, op in enumerate(figures):
        t = workloads.solve_case(op.case, op.values)
        d = bisector_lengths(t)
        text = tracer.call("diskmodel.svg_document", -1, i, svg_document, t, d)
        path = Path(op.out)
        tracer.call("diskmodel.render_svg", -1, i, render_svg, t, d, path)
        data = path.read_bytes()
        path.unlink()
        svg_bytes += len(data)
        want = workloads.GOLDEN_SVG.read_bytes() if op.golden else text.encode("utf-8")
        profile.checked(None if data == want else f"render_svg {op.values}: bytes differ")
    own = tracer.self_ns()
    m["diskmodel.svg_document.us"] = own["diskmodel.svg_document"] / len(figures) / 1e3
    m["diskmodel.render_svg.us"] = own["diskmodel.render_svg"] / len(figures) / 1e3
    m["diskmodel.svg.bytes"] = svg_bytes
    return profile
