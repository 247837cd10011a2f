"""tools/outputs.py: the outcomes of the benchmark's operations in two trees."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("outputs", ROOT / "tools" / "outputs.py")
outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(outputs)


def test_head_against_head_has_no_difference():
    """The tree against a git archive of its own commit, one geometry seed:
    every one of the eight operations, its body and exit code, agrees."""
    done = subprocess.run([sys.executable, "tools/outputs.py", "HEAD", "--workloads",
                           "geometry", "--seeds", "1"], cwd=ROOT, stdout=subprocess.PIPE,
                          text=True)
    summary = json.loads(done.stdout)
    assert (done.returncode, summary["operations"], summary["differences"]) == (0, 8, [])


def test_a_changed_or_missing_outcome_is_a_difference():
    key = ("geometry", 1, 0, "audit")
    same = {key: {"exit": 0, "body": {"delta": 0}}}
    changed = {key: {"exit": 0, "body": {"delta": 1}}}
    assert outputs.differences(same, dict(same)) == []
    assert outputs.differences(same, changed) == [
        {"workload": "geometry", "seed": 1, "operation": "audit",
         "head": same[key], "other": changed[key]}]
    assert outputs.differences(same, {})[0]["other"] is None
