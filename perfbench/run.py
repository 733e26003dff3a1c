"""hyptri benchmark: end-to-end metrics per workload, and a traced run for the layers.

Run from the repository root:

    python3 perfbench/run.py --workload {scan,equality,oneshot} --seed N --seconds S --trace {0,1}

Workloads, each run by one single-threaded process (oneshot: one client in
a closed loop, so each CLI process starts after the previous one exits):

* scan      repeated scan_random(2000, seed_i): sampling, AAA solve,
            validation, bisectors, residuals, proof trace, monotonicity.
            The headline use; diskmodel, cli and the root solver stay idle.
* equality  equal_bisector_report(A, B, SCAN_TOL) on admissible pairs: a
            root solve plus a 1000-point sign sweep over the raw kernels.
            Builds no validated Triangle, so validation stays idle.
* oneshot   a fresh `python -m hyptri` process per operation (solve, bisect,
            verify, figure): interpreter start, import and argparse dominate.

--trace 0 measures the end-to-end metrics with tracing off over --seconds of
operations: op_ms_min, the fastest operation's wall time; peak_rss_mb; and
setup_s, the median over SETUP_PROBES fresh processes, spread evenly over
the run, of the time from spawn until the first operation could be timed.
The host is shared, and its neighbours' load moves a run's median operation
time by up to a half between runs of the same code, while its fastest
operation moves by a few percent; so op_ms_min is the gated latency and
items_per_s, op_ms_p50 and op_ms_p90 are printed for reading, with their
sample counts, but are not metrics of the result line. Every operation's
output is checked; a failed check counts in `failed`.

--trace 1 runs the traced pass of every workload's layers (see layers.py),
so each traced run reports every per-layer metric. It does a fixed amount of
work derived from --seconds, so its counts repeat exactly for one seed.

Human-readable lines (with the environment block) come first; the last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics. The spans of the latest traced run go to .perfbench/ in the checkout.
The benchmark exits non-zero without a result when hyptri's sources are
missing from the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

WORKLOADS = ("scan", "equality", "oneshot")
SETUP_PROBES = 9

# name -> unit
END_TO_END = {
    "op_ms_min": "ms",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}
ITEM = {"scan": "triangles", "equality": "pairs", "oneshot": "CLI invocations"}


def ensure_hyptri():
    """Import hyptri from this checkout's src, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import hyptri
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import hyptri from {SRC}: {exc}")
    if not Path(hyptri.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: hyptri was imported from {hyptri.__file__}, not {SRC}")
    return hyptri


def make_workload(name: str, workdir: Path):
    import workloads

    if name == "scan":
        return workloads.Scan()
    if name == "equality":
        return workloads.Equality()
    return workloads.Oneshot(workdir)


def attempt(workload, item) -> tuple[float, str | None]:
    """Run and check one operation: (seconds taken, failure reason or None)."""
    start = time.perf_counter()
    try:
        output = workload.run(item)
    except Exception as exc:  # an operation that raises is a failed operation
        return time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    try:
        return elapsed, workload.check(item, output)
    except Exception as exc:
        return elapsed, f"check raised {type(exc).__name__}: {exc}"


def setup(name: str, seed: int, workdir: Path):
    """Everything before the first timed operation: import, inputs, warm-up."""
    workload = make_workload(name, workdir)
    stream = workload.inputs(seed)
    _, reason = attempt(workload, next(stream))
    return workload, stream, reason


def probe_setup(name: str, seed: int) -> float:
    """Seconds from spawning a fresh benchmark process until it is set up."""
    argv = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
            "--seconds", "1", "--trace", "0", "--setup-probe"]
    start = time.perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise SystemExit(f"perfbench: set-up probe failed: {line.strip()!r}")
    return elapsed


def measure(name: str, seed: int, seconds: float, workdir: Path) -> dict:
    """The end-to-end metrics of one workload, tracing off."""
    start = time.perf_counter()
    workload, stream, warm_reason = setup(name, seed, workdir)
    in_process_setup = time.perf_counter() - start
    durations: list[float] = []
    failures = [] if warm_reason is None else [f"warm-up: {warm_reason}"]
    items = 0
    setups: list[float] = []
    probing = 0.0  # seconds spent in set-up probes, which the run does not count
    begin = time.perf_counter()
    while True:
        item = next(stream)
        elapsed, reason = attempt(workload, item)
        durations.append(elapsed)
        items += workload.items(item)
        if reason is not None:
            failures.append(reason)
        spent = time.perf_counter() - begin - probing
        if spent >= seconds:
            break
        if len(setups) < SETUP_PROBES and spent >= seconds * (len(setups) + 0.5) / SETUP_PROBES:
            probe_start = time.perf_counter()
            setups.append(probe_setup(name, seed))
            probing += time.perf_counter() - probe_start
    setups += [probe_setup(name, seed) for _ in range(SETUP_PROBES - len(setups))]
    peak = workload.peak_rss_mib()
    ops = len(durations)
    p90 = statistics.quantiles(durations, n=10)[8] if ops > 1 else durations[0]
    return {
        "metrics": {
            "op_ms_min": min(durations) * 1e3,
            "peak_rss_mb": peak,
            "setup_s": statistics.median(setups),
        },
        "notes": {
            "op_ms_min": f"fastest of {ops} ops",
            "peak_rss_mb": ("largest CLI process" if name == "oneshot" else "this process"),
            "setup_s": f"median of {SETUP_PROBES} fresh processes; "
                       f"this one took {in_process_setup:.3f} s after interpreter start",
        },
        "readings": {
            "items_per_s": (items / sum(durations), "1/s",
                            f"{ITEM[name]} per second over {ops} ops ({items} {ITEM[name]})"),
            "op_ms_p50": (statistics.median(durations) * 1e3, "ms", f"median of {ops} ops"),
            "op_ms_p90": (p90 * 1e3, "ms",
                          f"p90 of {ops} ops, {sum(d > p90 for d in durations)} above it"),
        },
        "attempted": ops + 1,
        "failures": failures,
    }


def traced(seed: int, seconds: float, workdir: Path) -> dict:
    """Every per-layer metric, from one traced pass per workload."""
    import layers

    size = max(1, int(seconds))
    profiles = {
        "scan": layers.scan_layers(seed, calls=max(1, size // 2)),
        "equality": layers.equality_layers(seed, pairs=5 * size),
        "oneshot": layers.oneshot_layers(seed, spawns=max(3, size // 2), calls=size,
                                         workdir=workdir),
    }
    metrics, failures, attempted = {}, [], 0
    for profile_name, profile in profiles.items():
        profile.tracer.write(OUT / f"spans-{profile_name}.csv")
        metrics.update(profile.metrics)
        failures += profile.failures
        attempted += profile.attempted
    notes = {metric: f"moves {layers.PER_LAYER[metric][1]}" for metric in metrics}
    return {"metrics": metrics, "notes": notes, "attempted": attempted, "failures": failures}


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    if importlib.util.find_spec("numpy") is None:
        numpy = "absent"
    else:
        try:
            numpy = importlib.metadata.version("numpy") + " (installed, not imported)"
        except importlib.metadata.PackageNotFoundError:
            numpy = "importable, version unknown"
    commit = "n/a (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        commit = done.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted((SRC / "hyptri").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "numpy": numpy,
        "hyptri_commit": commit,
        "hyptri_src_sha256": digest.hexdigest()[:16],
    }


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    ensure_hyptri()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        if args.setup_probe:
            _, _, reason = setup(args.workload, args.seed, workdir)
            print("ready" if reason is None else f"warm-up failed: {reason}", flush=True)
            return 0
        if args.trace:
            import layers

            result = traced(args.seed, args.seconds, workdir)
            units = {name: unit for name, (unit, _) in layers.PER_LAYER.items()}
        else:
            result = measure(args.workload, args.seed, args.seconds, workdir)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment()
    failed = len(result["failures"])
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"tracing {'on' if args.trace else 'off'}")
    print("  " + " | ".join(f"{key} {value}" for key, value in env.items()))
    for metric, value in result["metrics"].items():
        print(f"  {metric:<44} {value:>14.6g} {units[metric]:<6} {result['notes'][metric]}")
    for metric, (value, unit, note) in result.get("readings", {}).items():
        print(f"  {metric:<44} {value:>14.6g} {unit:<6} {note} (read, not gated)")
    print(f"  {'failure_ratio':<44} {failed / result['attempted']:>14.6g} {'':<6} "
          f"{failed} of {result['attempted']} operations failed their check")
    for reason in result["failures"][:10]:
        print(f"  FAILED {reason}")
    line = {
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
