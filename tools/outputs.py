"""Compare what every benchmark operation returns in two trees.

    python3 tools/outputs.py COMMIT [--workloads geometry amalgam] [--seeds 1 2 3]

runs every operation of ``perfbench/workloads.py``, for each workload and
seed (by default all three workloads at seeds 1 to 20), once in the tree
this script is in and once in a ``git archive`` of COMMIT, each tree in a
process of its own with its own ``src`` and ``perfbench``.  COMMIT may be
a directory instead, which is then run as it is.  Per operation it keeps
what the call gave: the exit code and the JSON body, without its
``timestamp``, of a CLI call; the ``repr`` of any other result; or the
class and message of the exception it raised.  The input files an
operation reads live in a temporary directory, whose path is written
``<workdir>`` in the bodies.

It prints one JSON object: the number of operations compared and every
difference, with both sides.  The exit status is 0 when the trees agree
on every operation, else 1.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("growth", "geometry", "amalgam")

# Run in a tree's own interpreter: argv is the tree, the seeds as JSON and
# the workloads; prints one [workload, seed, index, operation, outcome] per
# call.
CHILD = r"""
import json, sys, tempfile
from pathlib import Path

tree = Path(sys.argv[1])
sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
import workloads

def outcome(call, workdir):
    try:
        result = call()
    except Exception as exc:
        message = str(exc).replace(workdir, "<workdir>")
        return {"exception": type(exc).__name__, "message": message}
    if isinstance(result, tuple) and len(result) == 2 and isinstance(result[0], int):
        code, text = result
        text = text.replace(workdir, "<workdir>")
        try:
            body = json.loads(text)
        except ValueError:
            body = text
        if isinstance(body, dict):
            body.pop("timestamp", None)
        return {"exit": code, "body": body}
    return {"repr": repr(result).replace(workdir, "<workdir>")}

for workload in sys.argv[3:]:
    for seed in json.loads(sys.argv[2]):
        with tempfile.TemporaryDirectory() as workdir:
            for i, op in enumerate(workloads.build(workload, seed, Path(workdir))):
                print(json.dumps([workload, seed, i, op.name, outcome(op.call, workdir)]))
"""


def run_tree(tree: Path, workloads: list[str], seeds: list[int]) -> dict:
    """{(workload, seed, index, operation name): outcome} of every operation
    in ``tree``."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-c", CHILD, str(tree), json.dumps(seeds),
                           *workloads], cwd=tree, env=env, stdout=subprocess.PIPE,
                          text=True, check=True)
    outcomes = {}
    for line in done.stdout.splitlines():
        *key, got = json.loads(line)
        outcomes[tuple(key)] = got
    return outcomes


def differences(head: dict, other: dict) -> list[dict]:
    """Every operation whose outcome differs, or that only one tree ran."""
    return [{"workload": key[0], "seed": key[1], "operation": key[3],
             "head": head.get(key), "other": other.get(key)}
            for key in sorted(head.keys() | other.keys(), key=str)
            if head.get(key) != other.get(key)]


def archive(commit: str, into: Path) -> Path:
    """Unpack ``git archive COMMIT`` of this repository into ``into``."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", commit],
                         stdout=subprocess.PIPE, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=tar, check=True)
    return into


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other", help="a commit of this repository, or a directory")
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 21)))
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    head = run_tree(ROOT, args.workloads, args.seeds)
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(args.other) if Path(args.other).is_dir() else archive(args.other, Path(tmp))
        other = run_tree(tree.resolve(), args.workloads, args.seeds)
    found = differences(head, other)
    print(json.dumps({"other": args.other, "workloads": args.workloads, "seeds": args.seeds,
                      "operations": len(head.keys() | other.keys()),
                      "differences": found}, indent=1))
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
