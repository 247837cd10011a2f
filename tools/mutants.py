"""Rerun the listed mutation checks: does each named mutant fail its tests?

    python3 tools/mutants.py    # every mutant in tools/mutants.json

Each entry of ``tools/mutants.json`` names a mutant: a file under
``src/``, an exact source snippet that occurs there once, its replacement,
and the pytest node ids that the mutant must fail.  The repository is
copied once to a temporary directory, and the union of the named tests
runs there once unmutated.  Then each mutant is applied to the copy alone,
its named tests run there (and no others), and the file is put back.
Every run selects the ``mutants`` Hypothesis profile of
``tests/conftest.py``, with fixed draws and no shrinking, so a verdict
repeats on the same tree.  Standard library only.

Per mutant the JSON output on standard output says:
  - ``killed``: every named test id has a failing case (an id of a file or
    of a parametrized test counts when any test or case under it fails,
    and a run past ``TIMEOUT`` counts as failed);
  - ``survived``: some named id passed; ``passed`` lists them;
  - ``stale``: the snippet no longer occurs exactly once, pytest found
    none of the named ids, or the named tests already fail (or time out)
    on the unmutated copy, so the entry needs updating.
The exit code is 0 when every mutant is killed, else 1.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIST = Path(__file__).resolve().with_name("mutants.json")
TIMEOUT = 300.0  # seconds one pytest run may take; a mutant may loop forever
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                 "BENCH_*.json", "out")


def load(path: Path = LIST) -> list[dict]:
    """The mutant entries, each with name, file, snippet, replacement, tests."""
    return json.loads(path.read_text())


def failed_ids(output: str) -> set[str]:
    """The node ids that pytest's ``-rf`` summary reports as failed."""
    return {line.split()[1] for line in output.splitlines() if line.startswith("FAILED ")}


def failing(tests: list[str], failed: set[str]) -> list[str]:
    """The ids among ``tests`` with a failing test or case in ``failed``."""
    return [t for t in tests
            if any(f == t or f.startswith((t + "[", t + "::")) for f in failed)]


def verdict(mutant: dict, returncode: int | None, output: str) -> dict:
    """The outcome of one run of the mutant's tests (``None``: timed out)."""
    if returncode is None:
        return {"status": "killed", "timed_out": True}
    if returncode in (4, 5):  # usage error or no tests collected: ids not found
        return {"status": "stale", "reason": "pytest found none of the named tests"}
    failed = failed_ids(output)
    if returncode == 2 and not failed:  # the mutant broke collection, e.g. an import
        return {"status": "killed", "collection_error": True}
    killed = failing(mutant["tests"], failed)
    passed = [t for t in mutant["tests"] if t not in killed]
    return {"status": "survived", "passed": passed} if passed else {"status": "killed"}


def run_tests(tests: list[str], copy: Path) -> tuple[int | None, str]:
    """pytest's exit code and output for ``tests`` in the copy (``None``: timed out)."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
           "--hypothesis-profile=mutants", *tests]
    try:
        proc = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return None, ""
    return proc.returncode, proc.stdout


def unmutated(mutants: list[dict], copy: Path) -> dict[str, dict]:
    """Stale verdicts, by name, for the mutants whose tests do not pass on the
    clean copy: a test that fails there would count as a kill for any mutant."""
    returncode, output = run_tests(sorted({t for m in mutants for t in m["tests"]}), copy)
    if returncode not in (0, 1):
        reason = ("unmutated run timed out" if returncode is None
                  else f"unmutated run ended with pytest exit {returncode}")
        return {m["name"]: {"status": "stale", "reason": reason} for m in mutants}
    failed = failed_ids(output)
    return {m["name"]: {"status": "stale", "reason": "fails unmutated", "failed": bad}
            for m in mutants if (bad := failing(m["tests"], failed))}


def run(mutant: dict, copy: Path) -> dict:
    """Apply ``mutant`` to the copy, run its tests there, and restore the file."""
    target = copy / mutant["file"]
    original = target.read_text()
    if original.count(mutant["snippet"]) != 1:
        return {"status": "stale",
                "reason": f"snippet occurs {original.count(mutant['snippet'])} times"}
    target.write_text(original.replace(mutant["snippet"], mutant["replacement"]))
    try:
        return verdict(mutant, *run_tests(mutant["tests"], copy))
    finally:
        target.write_text(original)


def main() -> int:
    mutants = load()
    results = []
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=IGNORED)
        stale = unmutated(mutants, copy)
        for mutant in mutants:
            results.append({"name": mutant["name"],
                            **(stale.get(mutant["name"]) or run(mutant, copy))})
            print(json.dumps(results[-1]), file=sys.stderr, flush=True)
    counts = {s: sum(r["status"] == s for r in results) for s in ("killed", "survived", "stale")}
    print(json.dumps({"counts": counts, "mutants": results}, indent=1))
    return 0 if counts["killed"] == len(results) else 1


if __name__ == "__main__":
    sys.exit(main())
