"""Self-tests of the benchmark: every workload at a tiny size, the output
checks (each must reject a broken output), the replay check, the span
arithmetic and the result format promised by BENCHMARK.json.

Run from the repository root:  python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run

run.ensure_hyptri()

import layers  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def setUpModule():
    run.OUT.mkdir(exist_ok=True)


def last_json_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(Path(run.__file__)), *args], cwd=run.ROOT,
                          capture_output=True, text=True, timeout=180)


class ScanTests(unittest.TestCase):
    def setUp(self):
        self.scan = workloads.Scan(n=40)
        self.seed = next(self.scan.inputs(5))
        self.report = self.scan.run(self.seed)

    def test_tiny_scan_passes_its_check(self):
        self.assertIsNone(self.scan.check(self.seed, self.report))

    def test_check_rejects_broken_reports(self):
        for broken in (
            {"monotonicity_failures": 1},
            {"inequality_failures": 2},
            {"max_identity_residual": workloads.IDENTITY_LIMIT},
            {"max_ratio_residual": float("nan")},
            {"samples": 39},
            {"seed": self.seed + 1},
        ):
            with self.subTest(**broken):
                bad = dataclasses.replace(self.report, **broken)
                self.assertIsNotNone(self.scan.check(self.seed, bad))

    def test_replay_reproduces_scan_random(self):
        profile = layers.scan_layers(seed=5, calls=2, n=40)
        self.assertEqual(profile.failures, [])
        self.assertEqual(profile.metrics["scan.triangles"], 80)

    def test_replay_mismatch_fails_loudly(self):
        kept: list = []
        replayed = layers.replay_scan(layers.Tracer(), 0, 40, self.seed, kept)
        layers.assert_same_report(replayed, self.report)
        with self.assertRaises(layers.ReplayMismatch):
            layers.assert_same_report(replayed, dataclasses.replace(self.report, tie_band_samples=1))


class EqualityTests(unittest.TestCase):
    def test_tiny_equality_passes_and_broken_results_fail(self):
        equality = workloads.Equality()
        pair = next(equality.inputs(9))
        result = equality.run(pair)
        self.assertIsNone(equality.check(pair, result))
        for broken in ({"c": result.c + 1e-9}, {"sign_changes": 0}, {"sign_changes": 2}):
            with self.subTest(**broken):
                self.assertIsNotNone(equality.check(pair, dataclasses.replace(result, **broken)))

    def test_profile_counts_root_and_sweep_evaluations(self):
        profile = layers.equality_layers(seed=9, pairs=2)
        self.assertEqual(profile.failures, [])
        self.assertEqual(profile.metrics["steiner_lehmus.sweep.evals"], 2000)
        self.assertGreater(profile.metrics["steiner_lehmus.root.evals"], 2)


class OneshotTests(unittest.TestCase):
    def setUp(self):
        self.workdir = Path(tempfile.mkdtemp(dir=run.OUT))
        self.oneshot = workloads.Oneshot(self.workdir)

    def tearDown(self):
        shutil.rmtree(self.workdir)

    def test_every_kind_and_the_golden_figure_pass(self):
        rnd = random.Random(3)
        ops = [workloads.golden_op(self.workdir / "golden.svg")]
        ops += [workloads.make_op(kind, rnd, self.workdir / f"{i}.svg")
                for i, kind in enumerate(workloads.ONESHOT_KINDS)]
        for op in ops:
            with self.subTest(argv=op.argv):
                self.assertIsNone(self.oneshot.check(op, self.oneshot.run(op)))
        self.assertGreater(self.oneshot.peak_rss_mib(), 1.0)

    def test_check_rejects_broken_outputs(self):
        rnd = random.Random(4)
        solve = workloads.make_op("solve-sas", rnd, self.workdir / "unused.svg")
        good = self.oneshot.run(solve)
        payload = json.loads(good.stdout)
        payload["a"] += 1e-9
        for broken in (
            dataclasses.replace(good, returncode=3),
            dataclasses.replace(good, stdout=json.dumps(payload)),
            dataclasses.replace(good, stdout="not json"),
        ):
            with self.subTest(stdout=broken.stdout, code=broken.returncode):
                self.assertIsNotNone(workloads.check_cli(solve, broken))

        golden = workloads.golden_op(self.workdir / "golden.svg")
        result = self.oneshot.run(golden)
        Path(golden.out).write_bytes(workloads.GOLDEN_SVG.read_bytes().replace(b"A", b"X"))
        self.assertIsNotNone(workloads.check_cli(golden, result))
        self.assertFalse(Path(golden.out).exists())


class TracerTests(unittest.TestCase):
    def test_self_time_subtracts_direct_children(self):
        tracer = layers.Tracer()
        top = tracer.begin("outer", -1, 0)
        tracer.call("inner", top, 0, sum, range(1000))
        tracer.call("inner", top, 0, sum, range(1000))
        tracer.end(top)
        own = tracer.self_ns()
        (outer,) = tracer.durations_ns("outer")
        self.assertEqual(own["inner"], sum(tracer.durations_ns("inner")))
        self.assertEqual(own["outer"] + own["inner"], outer)


class ResultFormatTests(unittest.TestCase):
    def assert_metrics(self, result: dict, declared: list[dict]):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual({m["name"]: m["unit"] for m in declared},
                         {name: m["unit"] for name, m in result["metrics"].items()})

    def test_declared_metrics_match_the_code(self):
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["per_layer"]},
                         {name: unit for name, (unit, _) in layers.PER_LAYER.items()})
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(run.WORKLOADS))

    def test_every_workload_prints_every_end_to_end_metric(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                done = bench("--workload", workload, "--seed", "7", "--seconds", "0.2", "--trace", "0")
                self.assertEqual(done.returncode, 0, done.stderr)
                self.assert_metrics(last_json_line(done.stdout), SPEC["end_to_end"])

    def test_traced_run_prints_every_per_layer_metric(self):
        done = bench("--workload", "scan", "--seed", "7", "--seconds", "1", "--trace", "1")
        self.assertEqual(done.returncode, 0, done.stderr)
        self.assert_metrics(last_json_line(done.stdout), SPEC["per_layer"])

    def test_fails_without_the_program(self):
        bare = Path(tempfile.mkdtemp(dir=run.OUT))
        try:
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = subprocess.run(SPEC["command"] + ["--workload", "scan", "--seed", "1",
                                                     "--seconds", "1", "--trace", "0"],
                                  cwd=bare, capture_output=True, text=True, timeout=180)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn("{", done.stdout)


if __name__ == "__main__":
    unittest.main()
