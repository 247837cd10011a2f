"""The mutant list of ``tools/mutants.py`` stays applicable.

Killing the mutants is too slow for this suite; ``python3 tools/mutants.py``
does it.  Here every listed snippet must still occur exactly once in its
file under ``src/``, so a refactor that moves a mutated site updates the
list, and every named test file must exist.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import mutants  # noqa: E402

MUTANTS = mutants.load()


def test_names_are_unique_and_every_pipeline_is_covered():
    names = [m["name"] for m in MUTANTS]
    assert len(names) == len(set(names))
    files = {Path(m["file"]).name for m in MUTANTS}
    assert {"theorems.py", "audits.py", "closure.py", "cli.py", "schreier.py",
            "buffering.py"} <= files


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m["name"] for m in MUTANTS])
def test_snippet_occurs_once_in_src(mutant):
    path = ROOT / mutant["file"]
    assert path.is_relative_to(ROOT / "src") and path.is_file()
    assert path.read_text().count(mutant["snippet"]) == 1
    assert mutant["replacement"] != mutant["snippet"]
    assert mutant["tests"]
    for test in mutant["tests"]:
        assert (ROOT / test.split("::")[0]).is_file(), test


def test_outcomes_are_read_from_the_failure_summary():
    mutant = {"tests": ["tests/test_a.py::test_x", "tests/test_a.py::test_y"]}
    both = "FAILED tests/test_a.py::test_x - boom\nFAILED tests/test_a.py::test_y[1-2] - boom\n"
    assert mutants.verdict(mutant, 1, both) == {"status": "killed"}
    one = "FAILED tests/test_a.py::test_x - boom\n"
    assert mutants.verdict(mutant, 1, one) == {"status": "survived",
                                               "passed": ["tests/test_a.py::test_y"]}
    assert mutants.verdict(mutant, 0, "")["status"] == "survived"
    assert mutants.verdict(mutant, 4, "")["status"] == "stale"
    assert mutants.verdict(mutant, None, "")["status"] == "killed"


def test_tests_failing_unmutated_make_their_mutants_stale(monkeypatch, tmp_path):
    x = {"name": "x", "tests": ["tests/test_a.py::test_x"]}
    y = {"name": "y", "tests": ["tests/test_a.py::test_y"]}
    runs = []

    def run_tests(tests, copy):
        runs.append(tests)
        return outcome

    monkeypatch.setattr(mutants, "run_tests", run_tests)
    outcome = (1, "FAILED tests/test_a.py::test_x[1] - boom\n")
    assert mutants.unmutated([x, y], tmp_path) == {
        "x": {"status": "stale", "reason": "fails unmutated",
              "failed": ["tests/test_a.py::test_x"]}}
    assert runs == [["tests/test_a.py::test_x", "tests/test_a.py::test_y"]]
    outcome = (0, "")
    assert mutants.unmutated([x, y], tmp_path) == {}
    for outcome in ((None, ""), (4, "")):
        stale = mutants.unmutated([x, y], tmp_path)
        assert sorted(stale) == ["x", "y"]
        assert all(v["status"] == "stale" for v in stale.values())
