import hashlib
import re
from pathlib import Path

import pytest

from hyptri import cli

WORKFLOW = Path(__file__).parent.parent / ".github" / "workflows" / "ci.yml"
# a workflow line that pins a command's stdout by its sha256
SHA_PIN = re.compile(
    r'^\s*(?:taskset -c \d+ )?hyptri (.+?) \| sha256sum \| grep -q "\^([0-9a-f]{64}) "$'
)


def test_workflow_parses_and_every_step_runs_something():
    # a workflow that does not parse as YAML never runs, and says so nowhere
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load(WORKFLOW.read_text())
    jobs = workflow["jobs"]
    assert jobs
    for name, job in jobs.items():
        assert job["steps"], name
        for step in job["steps"]:
            assert "run" in step or "uses" in step, (name, step)


def test_workflow_sha256_pins_match_the_in_process_reports(capsys):
    # the workflow's byte pins of the seed-42 scan and study, each with and
    # without taskset, are the hashes of what cli.main prints here
    pins = {}
    for line in WORKFLOW.read_text().splitlines():
        match = SHA_PIN.match(line)
        if match:
            pins.setdefault(match[1], []).append(match[2])
    assert sorted(pins) == ["scan 100000 --seed 42", "study 1000 --seed 42"]
    for command, digests in pins.items():
        assert cli.main(command.split()) == 0, command
        captured = capsys.readouterr()
        assert captured.err == "", command
        assert digests == 2 * [hashlib.sha256(captured.out.encode()).hexdigest()], command
