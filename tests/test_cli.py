import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden" / "equilateral.svg"
SRC = str(Path(__file__).parent.parent / "src")


def run_cli(*args):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-m", "hyptri", *args],
        capture_output=True,
        env=env,
    )


def test_solve_aaa_equilateral():
    result = run_cli("solve", "aaa", "0.5235987756", "0.5235987756", "0.5235987756")
    assert result.returncode == 0
    text = result.stdout.decode()
    assert "a = 2.55337" in text


def test_solve_json_contract():
    result = run_cli("solve", "sss", "1", "1", "1", "--format", "json")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert list(payload) == ["a", "b", "c", "A", "B", "C", "defect", "residual"]
    assert payload["a"] == 1.0
    # full binary64 round trip through the json text
    assert payload["A"] == math.acos(math.cosh(1.0) / (math.cosh(1.0) + 1.0))


def test_solve_rejects_bad_triangle():
    result = run_cli("solve", "sss", "1", "1", "2.5")
    assert result.returncode == 3
    assert b"triangle inequality" in result.stderr


def test_solve_rejects_unparseable():
    result = run_cli("solve", "sss", "1", "1", "zzz")
    assert result.returncode == 2


def test_solve_degrees_flag():
    radians = run_cli("solve", "aaa", "0.5235987755982988", "0.5235987755982988",
                      "0.5235987755982988", "--format", "json")
    degrees = run_cli("solve", "aaa", "30", "30", "30", "--degrees", "--format", "json")
    a_rad = json.loads(radians.stdout)["a"]
    a_deg = json.loads(degrees.stdout)["a"]
    assert a_deg == pytest.approx(a_rad, rel=1e-12)


def test_solve_csv_shape():
    result = run_cli("solve", "sss", "1", "1", "1", "--format", "csv")
    lines = result.stdout.decode().strip().splitlines()
    assert lines[0] == "a,b,c,A,B,C,defect,residual"
    assert len(lines) == 2


def test_bisect_equilateral():
    result = run_cli("bisect", "sss", "1", "1", "1", "--format", "json")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["u"] == 0.5
    assert payload["V"] == 0.5
    assert payload["tB"] == pytest.approx(0.8340252289813307, rel=1e-13)
    assert abs(payload["tB"] - payload["tC"]) < 1e-12
    for key in ("res_u", "res_U", "res_v", "res_V"):
        assert payload[key] < 1e-10


def test_verify_recovers_angle():
    result = run_cli("verify", "0.9", "0.7", "--format", "json")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert set(payload) >= {"c", "gap_to_b", "sign_changes"}
    assert payload["c"] == pytest.approx(0.7, abs=1e-10)
    assert payload["sign_changes"] == 1
    assert result.stdout == (
        b'{"c": 0.7000000000000086, "gap_to_b": 8.659739592076221e-15, '
        b'"sign_changes": 1, "iterations": 26}\n'
    )


def test_verify_rejects_wide_pair():
    result = run_cli("verify", "2.0", "0.7")
    assert result.returncode == 3


def test_scan_deterministic_and_passing():
    first = run_cli("scan", "3000", "--seed", "42")
    second = run_cli("scan", "3000", "--seed", "42")
    assert first.returncode == 0
    assert first.stdout == second.stdout


def test_scan_rejects_zero():
    result = run_cli("scan", "0")
    assert result.returncode == 2


def test_figure_matches_golden(tmp_path):
    out = tmp_path / "fig.svg"
    result = run_cli("figure", "sss", "1", "1", "1", "--out", str(out))
    assert result.returncode == 0
    assert result.stdout.decode().strip() == str(out)
    assert out.read_bytes() == GOLDEN.read_bytes()


def test_figure_unwritable_path(tmp_path):
    result = run_cli("figure", "sss", "1", "1", "1", "--out", str(tmp_path / "no" / "fig.svg"))
    assert result.returncode == 4


@pytest.mark.parametrize(
    "rtol, message",
    [
        ("1e-15", "law of cosines residual 1.0128080393272694e-15 exceeds 1e-15"),
        ("3e-15", "law of sines residual 5.290115606060029e-15 exceeds 3e-15"),
    ],
)
def test_scan_rtol_rejection_is_pinned(rtol, message):
    result = run_cli("scan", "2000", "--seed", "42", "--rtol", rtol)
    assert result.returncode == 3
    assert result.stdout == b""
    assert result.stderr == f"error: {message}\n".encode()
