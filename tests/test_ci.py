from pathlib import Path

import pytest

WORKFLOW = Path(__file__).parent.parent / ".github" / "workflows" / "ci.yml"


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
