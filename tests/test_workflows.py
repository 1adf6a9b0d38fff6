from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

WORKFLOWS = sorted((Path(__file__).parents[1] / ".github" / "workflows").glob("*.yml"))


@pytest.mark.parametrize("path", WORKFLOWS, ids=lambda p: p.name)
def test_workflow_is_valid_yaml(path):
    # GitHub runs no job of a workflow file that does not parse
    doc = yaml.safe_load(path.read_text())
    assert doc["jobs"]
    assert doc["concurrency"]["cancel-in-progress"] is True
