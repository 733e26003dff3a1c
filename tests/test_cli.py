import csv
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import pytest

from hyptri import EqualBisectorSolve, equality_study, scan_random
from hyptri.cli import _emit, _json_object, main

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
    assert result.stdout == b""
    assert result.stderr.startswith(b"usage: hyptri solve ")


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


VERIFY_JSON = (
    '{"c": 0.7000000000000086, "gap_to_b": 8.659739592076221e-15, '
    '"sign_changes": 1, "iterations": 26}\n'
)


def test_verify_recovers_angle():
    result = run_cli("verify", "0.9", "0.7", "--format", "json")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert set(payload) >= {"c", "gap_to_b", "sign_changes"}
    assert payload["c"] == pytest.approx(0.7, abs=1e-10)
    assert payload["sign_changes"] == 1
    assert result.stdout == VERIFY_JSON.encode()


def test_verify_rejects_wide_pair():
    result = run_cli("verify", "2.0", "0.7")
    assert result.returncode == 3


def test_verify_sees_a_root_near_the_bracket_end():
    # pi - A - 2B = 5e-4: the root C = B lies within half a sweep step of hi
    result = run_cli("verify", "1.0", "1.0705463267948966", "--format", "json")
    assert result.returncode == 0
    assert json.loads(result.stdout)["sign_changes"] == 1


SINH_UNDERFLOW = (
    "sides too small for float angles: a product of two sinh values "
    "is below the smallest normal float"
)


# each range rule has one message, whichever entry point applies it
@pytest.mark.parametrize(
    "argv, message",
    [
        ("solve sas 1 4 1", "angle A must lie in (0, pi), got 4.0"),
        # a value that starts with "-" is a value when float() reads it
        ("solve sas 1 -1e-5 1", "angle A must lie in (0, pi), got -1e-05"),
        ("solve sas 1 -inf 1", "angle A must lie in (0, pi), got -inf"),
        ("solve sas 49 3 49", "side a = 97.99498368761681 exceeds the cap 50.0"),
        ("solve asa 0.5 0 0.5", "side c must be finite and positive, got 0.0"),
        ("solve aaa 1e-155 1e-155 1e-155", "side a = inf exceeds the cap 50.0"),
        # the isosceles triangle (1, B, B) has defect 5e-10, below eps_angle
        ("verify 1.0 1.0707963265448965",
         "angle sum must stay below pi by at least 1e-09 (defect 5.000000413701855e-10)"),
        # sides whose hyperbolic sines multiply to an underflow leave no float angles
        ("solve sss 1e-200 1e-200 1e-200", SINH_UNDERFLOW),
        ("solve sss 5e-324 5e-324 5e-324", SINH_UNDERFLOW),
        ("solve sas 1e-200 1.0 1e-200", SINH_UNDERFLOW),
        # nor do products that are subnormal, not 0: they have lost most of their bits
        ("solve sss 4e-162 4e-162 4e-162", SINH_UNDERFLOW),
        ("solve sas 1e-160 1.0 1e-160", SINH_UNDERFLOW),
    ],
)
def test_range_rejection_messages(argv, message):
    result = run_cli(*argv.split())
    assert result.returncode == 3
    assert result.stdout == b""
    assert result.stderr == f"error: {message}\n".encode()


def test_verify_nan_bracket_end_is_a_domain_rejection():
    result = run_cli("verify", "1e-200", "0.7")
    assert result.returncode == 3
    assert result.stdout == b""
    assert result.stderr == b"error: g is nan at the bracket end lo = 1e-09\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "aaa", "1e-300", "1e-300", "1e-300"],
        ["bisect", "aaa", "1e-200", "1e-200", "0.5"],
        ["figure", "aaa", "1e-300", "1e-300", "1", "--out", "fig.svg"],
        ["verify", "1e-320", "0.7"],
        ["verify", "5e-324", "1.0000001e-9"],
    ],
)
def test_sine_underflow_is_a_domain_rejection(argv, tmp_path):
    # two angle sines whose product underflows to 0 leave no float sides
    out = tmp_path / "fig.svg"
    result = run_cli(*(str(out) if arg == "fig.svg" else arg for arg in argv))
    assert result.returncode == 3
    assert result.stdout == b""
    assert result.stderr == (
        b"error: angles too small for float sides: a product of two sines underflows to 0\n"
    )
    assert not out.exists()


def test_scan_deterministic_and_passing():
    first = run_cli("scan", "3000", "--seed", "42")
    second = run_cli("scan", "3000", "--seed", "42")
    assert first.returncode == 0
    assert first.stdout == second.stdout


def test_scan_rejects_zero():
    result = run_cli("scan", "0")
    assert result.returncode == 2
    assert result.stdout == b""
    assert result.stderr == b"error: sample count must be >= 1, got 0\n"


def test_study_passes_and_prints_its_report():
    result = run_cli("study", "20", "--seed", "42")
    assert result.returncode == 0
    assert result.stderr == b""
    assert result.stdout.decode() == (
        "pairs = 20\nseed = 42\neps_angle = 0.001\nmax_root_gap = 3.8191672047105385e-14\n"
        "worst_A = 1.359160096621481\nworst_B = 0.4614429876743421\n"
        "root_iterations = 480\nfailing_pairs = 0\n"
    )


def test_study_rejects_zero():
    result = run_cli("study", "0")
    assert result.returncode == 2
    assert result.stdout == b""
    assert result.stderr == b"error: pair count must be >= 1, got 0\n"


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_study_emits_its_report(fmt, capsys):
    assert main(["study", "3", "--seed", "5", "--format", fmt]) == 0
    out = capsys.readouterr().out
    _emit(asdict(equality_study(3, 5)), fmt)
    assert out == capsys.readouterr().out


def test_study_names_its_failed_criterion(monkeypatch, capsys):
    report = replace(equality_study(3, 0), failing_pairs=1)
    monkeypatch.setattr("hyptri.steiner_lehmus.equality_study", lambda n, seed: report)
    assert main(["study", "3"]) == 1
    assert capsys.readouterr().err == (
        "study failed: 1 of 3 pairs fail the equality-case criteria\n"
    )


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


def test_scan_accepts_top_seed():
    seed = 2**64 - 1
    result = run_cli("scan", "5", "--seed", str(seed), "--format", "json")
    assert result.returncode == 0
    expected = json.dumps(asdict(scan_random(5, seed))) + "\n"
    assert result.stdout.decode() == expected
    assert json.loads(result.stdout)["seed"] == seed


def test_scan_fails_on_inequality_failures(monkeypatch, capsys):
    report = replace(scan_random(5, 0), inequality_failures=1)
    monkeypatch.setattr("hyptri.steiner_lehmus.scan_random", lambda n, seed, tol: report)
    assert main(["scan", "5"]) == 1
    assert "inequality" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value, criterion",
    [
        ("max_ratio_residual", 1e-9, "foot-ratio residual not below 1e-10"),
        ("max_identity_residual", 1e-9, "identity residual not below 1e-9"),
    ],
)
def test_scan_names_the_failed_criterion(field, value, criterion, monkeypatch, capsys):
    report = replace(scan_random(5, 0), **{field: value})
    monkeypatch.setattr("hyptri.steiner_lehmus.scan_random", lambda n, seed, tol: report)
    assert main(["scan", "5"]) == 1
    assert capsys.readouterr().err == f"scan failed: {criterion}\n"


def test_verify_names_the_sweep_criterion(monkeypatch, capsys):
    # c = B, so only the sweep's sign-change count fails
    stub = EqualBisectorSolve(c=0.7, iterations=20, sign_changes=2)
    monkeypatch.setattr("hyptri.steiner_lehmus.equal_bisector_report", lambda A, B, tol: stub)
    assert main(["verify", "0.9", "0.7"]) == 1
    assert capsys.readouterr().err == (
        "verification failed: sign changes in the sweep not exactly 1\n"
    )


@pytest.mark.parametrize("seed", [str(2**64), "-1"])
def test_scan_rejects_out_of_range_seed(seed):
    result = run_cli("scan", "5", f"--seed={seed}")
    assert result.returncode == 2
    assert result.stdout == b""
    message = f"seed must be an integer in [0, 2**64 - 1], got {seed}"
    assert result.stderr == f"error: {message}\n".encode()


LOADED = """
import contextlib, io, sys
from hyptri.cli import main
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = main(sys.argv[1:])
loaded = set(sys.modules)
import json
print(json.dumps({
    "code": code,
    "stdout": out.getvalue(),
    "hyptri": sorted(m for m in loaded if m.split(".")[0] == "hyptri"),
    **{name: name in loaded for name in ("csv", "dataclasses", "argparse", "json")},
}))
"""

CORE = ["hyptri", "hyptri.cli", "hyptri.core"]
SCAN_PATH = CORE + ["hyptri.cevian", "hyptri.rng", "hyptri.steiner_lehmus"]
CSV = ["--format", "csv"]


# dataclasses loads with every subcommand but solve; argparse, json and csv
# never load, not even for the rows that write a csv payload (writes_csv)
@pytest.mark.parametrize(
    "argv, modules, code, writes_csv",
    [
        (["solve", "sss", "1", "1", "1"], CORE, 0, False),
        (["solve", "sss", "1", "1", "1", *CSV], CORE, 0, True),
        (["solve", "sss", "1", "1", "2.5", *CSV], CORE, 3, False),
        (["bisect", "sss", "1", "1", "1", "--format", "json"], CORE + ["hyptri.cevian"], 0, False),
        (["bisect", "sss", "1", "1", "1", *CSV], CORE + ["hyptri.cevian"], 0, True),
        (["figure", "sss", "1", "1", "1", "--out", "{tmp}"],
         CORE + ["hyptri.cevian", "hyptri.diskmodel"], 0, False),
        (["verify", "0.9", "0.7"], SCAN_PATH, 0, False),
        (["verify", "0.9", "0.7", *CSV], SCAN_PATH, 0, True),
        (["scan", "5"], SCAN_PATH, 0, False),
        (["scan", "5", *CSV], SCAN_PATH, 0, True),
        (["study", "3"], SCAN_PATH, 0, False),
        (["study", "3", *CSV], SCAN_PATH, 0, True),
    ],
)
def test_subcommand_loads_only_its_modules(argv, modules, code, writes_csv, tmp_path):
    argv = [a.format(tmp=tmp_path / "fig.svg") for a in argv]
    env = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run(
        [sys.executable, "-c", LOADED, *argv], capture_output=True, env=env, check=True
    )
    seen = json.loads(result.stdout)
    lines = seen.pop("stdout").splitlines()
    # a csv payload is a header of identifiers and one row
    assert writes_csv == (len(lines) == 2 and lines[0].replace(",", "").isidentifier())
    assert seen == {
        "code": code, "hyptri": sorted(modules), "csv": False, "dataclasses": argv[0] != "solve",
        "argparse": False, "json": False,
    }


# every float of these reports, so a kernel change that moves one bit shows;
# the sas rows run core._cevian_length for the third side
PINNED_JSON = [
    ("solve aaa 0.6 0.5 0.9", (
        '{"a": 1.9686361612886003, "b": 1.8123564987479055, '
        '"c": 2.2866764859714035, "A": 0.6, "B": 0.5, "C": 0.9, '
        '"defect": 1.1415926535897931, "residual": 1.4285285609045115e-16}\n'
    )),
    ("solve sss 1 1.2 1.5", (
        '{"a": 1.0, "b": 1.2, "c": 1.5, "A": 0.5639762974158662, '
        '"B": 0.7567914029036406, "C": 1.3192234352002792, '
        '"defect": 0.5016015180700073, "residual": 2.019980072857119e-16}\n'
    )),
    ("solve sas 1 1.2 1.5", (
        '{"a": 1.6594054303508725, "b": 1.0, "c": 1.5, "A": 1.1999999999999997, '
        '"B": 0.447187278472703, "C": 0.9002737697108738, '
        '"defect": 0.5941316054062167, "residual": 1.6340860692861745e-16}\n'
    )),
    ("solve sas 2 0.001 2.0001", (
        '{"a": 0.003628424649793571, "b": 2.0, "c": 2.0001, '
        '"A": 0.0009999999999999998, "B": 1.5413514988083867, '
        '"C": 1.5964787818719508, "defect": 0.0027623729094554683, '
        '"residual": 2.4478290401975496e-16}\n'
    )),
    ("solve asa 0.6 1.1 0.5", (
        '{"a": 0.7200118629065693, "b": 0.6242195458891936, '
        '"c": 1.0999999999999996, "A": 0.6, "B": 0.5, "C": 1.8469171349429723, '
        '"defect": 0.19467551864682076, "residual": 0.0}\n'
    )),
    ("bisect aaa 0.6 0.5 0.9", (
        '{"beta": 0.25, "gamma": 0.45, "u": 1.0234049723495697, '
        '"U": 0.7889515263983358, "v": 1.07667561264952, '
        '"V": 1.2100008733218832, "tB": 1.7414913190527046, '
        '"tC": 1.2925742190915082, "res_u": 1.8135623442752637e-16, '
        '"res_U": 3.7739248821015285e-16, "res_v": 2.9784129955335177e-16, '
        '"res_V": 2.528905142370342e-16}\n'
    )),
    ("bisect aaa 0.01 0.02 3.0", (
        '{"beta": 0.01, "gamma": 1.5, "u": 2.291521903658081, '
        '"U": 0.34022040747141247, "v": 2.6292606119122706, '
        '"V": 1.9513411036703747, "tB": 2.2915219036580794, '
        '"tC": 0.06907399778277262, "res_u": 1.742054957920577e-15, '
        '"res_U": 5.12172723049542e-15, "res_v": 1.9271891767805374e-15, '
        '"res_V": 1.2847285454164611e-15}\n'
    )),
    ("bisect sas 1 1.2 1.5", (
        '{"beta": 0.2235936392363515, "gamma": 0.4501368848554369, '
        '"u": 0.45996558337809534, "U": 0.5400344166219045, '
        '"v": 0.5131025302920125, "V": 0.9868974697079874, '
        '"tB": 1.4446695107749514, "tC": 0.9822712562658082, '
        '"res_u": 2.0671515936622786e-16, "res_U": 1.7377030823912308e-16, '
        '"res_v": 3.605388157267153e-16, "res_V": 1.6727646146757237e-16}\n'
    )),
    ("bisect sas 0.3 2.5 4", (
        '{"beta": 0.002589488219222375, "gamma": 0.24131904015219785, '
        '"u": 0.13117264336924808, "U": 0.16882735663075193, '
        '"v": 0.19339203314300094, "V": 3.806607966856999, '
        '"tB": 4.107963504439914, "tC": 0.469845718523882, '
        '"res_u": 9.790699252766825e-16, "res_U": 4.3387007083019847e-16, '
        '"res_v": 4.090320424407505e-16, "res_V": 0.0}\n'
    )),
]


@pytest.mark.parametrize("argv, stdout", PINNED_JSON)
def test_solve_bisect_json_is_pinned(argv, stdout, capsys):
    assert main([*argv.split(), "--format", "json"]) == 0
    assert capsys.readouterr().out == stdout


def _payloads():
    """Every payload kind the CLI writes, and one with the floats and ints at
    the edges of what a payload can hold."""
    payloads = [json.loads(stdout) for _, stdout in PINNED_JSON]
    payloads.append(json.loads(VERIFY_JSON))
    payloads.append(asdict(scan_random(5, 2**64 - 1)))
    payloads.append(asdict(equality_study(3, 2**64 - 1)))
    payloads.append({
        "nan": math.nan, "neg_nan": -math.nan, "inf": math.inf, "neg_inf": -math.inf,
        "neg_zero": -0.0, "subnormal": 5e-324, "max": 1.7976931348623157e308,
        "top_seed": 2**64 - 1, "zero": 0, "negative": -3,
    })
    return payloads


def test_json_writer_matches_json_dumps():
    for payload in _payloads():
        assert _json_object(payload) == json.dumps(payload)


def test_csv_writer_matches_csv_writer(capsys):
    for payload in _payloads():
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(payload.keys())
        writer.writerow(payload.values())
        _emit(payload, "csv")
        assert capsys.readouterr().out == expected.getvalue()


# each accepted spelling prints the bytes of the canonical form, and exits alike
@pytest.mark.parametrize(
    "argv, canonical, code",
    [
        ("solve sss 1 1 1 --format=json", "solve sss 1 1 1 --format json", 0),
        ("solve --format json sss 1 1 1", "solve sss 1 1 1 --format json", 0),
        ("solve sss 1 1 1 --form json", "solve sss 1 1 1 --format json", 0),
        ("solve sss 1 1 1 --format csv --format json", "solve sss 1 1 1 --format json", 0),
        ("solve sss 1 --degrees 1 1", "solve sss 1 1 1 --degrees", 0),
        ("scan 5 --seed=7 --format=csv", "scan 5 --seed 7 --format csv", 0),
        ("study 3 --form=json --s 7", "study 3 --seed 7 --format json", 0),
        ("verify -- -0.5 0.7", "verify -0.5 0.7", 3),
    ],
)
def test_option_spellings_match_the_canonical_form(argv, canonical, code, capsys):
    assert main(canonical.split()) == code
    expected = capsys.readouterr()
    assert main(argv.split()) == code
    assert capsys.readouterr() == expected


@pytest.mark.parametrize("argv", [["-h"], ["--help"]])
def test_help_names_every_subcommand(argv, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: hyptri [-h] {solve,bisect,verify,scan,study,figure} ...\n")
    for command in ("solve", "bisect", "verify", "scan", "study", "figure"):
        assert f"\n  {command} " in out


def test_subcommand_help_names_its_arguments(capsys):
    assert main(["solve", "sss", "--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: hyptri solve [-h] {aaa,sss,sas,asa} VALUE VALUE VALUE "
                          "[--degrees] [--format {text,json,csv}] [--rtol RTOL]\n")
    for text in ("VALUE", "--degrees", "--format {text,json,csv}", "--rtol RTOL",
                 "-h, --help", "aaa: A B C; sss: a b c; sas: b A c; asa: A c B"):
        assert text in out


def test_help_exits_0_from_the_command_line():
    result = run_cli("--help")
    assert result.returncode == 0
    assert result.stdout.startswith(b"usage: hyptri ")
    assert result.stderr == b""


# a usage error prints nothing on stdout, and on stderr the usage line of the
# subcommand (or of hyptri) and one error line
@pytest.mark.parametrize(
    "argv, error",
    [
        ("", "hyptri: error: the following arguments are required: command"),
        ("frobnicate 1", "hyptri: error: argument command: invalid choice: 'frobnicate' "
         "(choose from 'solve', 'bisect', 'verify', 'scan', 'study', 'figure')"),
        ("--format json solve sss 1 1 1", "hyptri: error: argument command: invalid choice: "
         "'--format' (choose from 'solve', 'bisect', 'verify', 'scan', 'study', 'figure')"),
        ("solve xyz 1 1 1", "hyptri solve: error: argument case: invalid choice: 'xyz' "
         "(choose from 'aaa', 'sss', 'sas', 'asa')"),
        ("solve sss 1 1 1 --format xml", "hyptri solve: error: argument --format: "
         "invalid choice: 'xml' (choose from 'text', 'json', 'csv')"),
        ("solve sss 1 1", "hyptri solve: error: the following arguments are required: VALUE"),
        ("solve sss 1 1 1 1", "hyptri solve: error: unrecognized arguments: 1"),
        ("solve sss 1 1 zzz", "hyptri solve: error: argument VALUE: invalid float value: 'zzz'"),
        ("scan 5 --seed 1.5", "hyptri scan: error: argument --seed: invalid int value: '1.5'"),
        ("study 1.5", "hyptri study: error: argument n: invalid int value: '1.5'"),
        ("study 3 --rtol 1e-9", "hyptri study: error: unrecognized arguments: --rtol"),
        ("verify 0.9 0.7 --rtol 1e-9", "hyptri verify: error: unrecognized arguments: --rtol"),
        ("figure sss 1 1 1", "hyptri figure: error: the following arguments are required: --out"),
        # figure writes an SVG file and prints its path, so it takes no --format
        ("figure sss 1 1 1 --out t.svg --format json",
         "hyptri figure: error: unrecognized arguments: --format"),
        ("solve sss 1 1 1 -x", "hyptri solve: error: unrecognized arguments: -x"),
        ("solve sss 1 1 1 --rtol", "hyptri solve: error: argument --rtol: expected one argument"),
        ("solve sss 1 1 1 --rtol --degrees",
         "hyptri solve: error: argument --rtol: expected one argument"),
        ("solve sss 1 1 1 --degrees=yes",
         "hyptri solve: error: argument --degrees: ignored explicit argument 'yes'"),
        ("solve sss 1 1 1 --bogus=1", "hyptri solve: error: unrecognized arguments: --bogus=1"),
        ("solve -- sss 1 1 1 --format json",
         "hyptri solve: error: unrecognized arguments: --format json"),
    ],
)
def test_usage_errors_exit_2(argv, error, capsys):
    assert main(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    usage, message = captured.err.splitlines()
    assert usage.startswith(f"usage: {error.partition(':')[0]} ")
    assert message == error
