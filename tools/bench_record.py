"""Record benchmark runs of growthlab checkouts in ``BENCH_<label>.json``.

    python3 tools/bench_record.py --workload amalgam --seeds 1 2 3 \
        --record baseline PATH_TO_PARENT --record change .

Each ``--record LABEL CHECKOUT`` names a tree to run and the record it
gets.  For each seed every checkout runs its own
``python3 perfbench/run.py --workload W --seed S --trace 0`` unmodified,
at the benchmark's default run length, and only the last line of its
standard output is read: the result object (``correct``, ``attempted``,
``failed``, ``metrics``).  The checkouts alternate within each seed, and
the order flips from one seed to the next, so drift of the machine falls
on every checkout alike.  Then each checkout makes one ``--trace 1`` run
at the first seed, whose per-layer metrics the record keeps.  Records
always go to the root of the repository this script is in.

A record holds the checkout's git revision, the tree hash of its ``src``
(which outlives a rebase of the commit), whether ``src`` or ``perfbench``
had uncommitted edits, the workload, the seeds, the session (its start
time and the labels recorded in it), every run's result and, per
end-to-end metric, the median, the quartiles and the extremes over the
runs.  Only records of one session are alternated pairs; records of
different sessions must not be compared, since the machine's speed moves
between sessions by as much as a change under test.

    python3 tools/bench_record.py --compare BENCH_parent.json BENCH_change.json

reads two records of one session, parent first, and writes nothing.  It
pairs their runs by seed and prints, per end-to-end metric of
``BENCHMARK.json``, both medians and quartiles, the ratio of the medians,
the pairs the change wins (ties count for neither side), whether that is
a gain (at least nine pairs in ten, and the medians further apart than
the parent's quartiles) and whether the change stays within the metric's
bound (its median worse than the parent's by at most that share).
"""

from __future__ import annotations

import argparse
import datetime
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_result(line: str) -> dict:
    """The result object of one run, from the last line of its output."""
    result = json.loads(line)
    if not isinstance(result, dict) or not {"correct", "attempted", "failed",
                                            "metrics"} <= result.keys():
        raise ValueError(f"not a perfbench result line: {line[:200]!r}")
    return result


def summarise(lines: list[str]) -> dict:
    """Per-metric median, quartiles and extremes over the runs' result lines.

    Quartiles use the inclusive method, so with one run they equal the
    value itself.  ``correct`` holds only if every run was correct.
    """
    results = [parse_result(line) for line in lines]
    if not results:
        raise ValueError("no runs to summarise")
    names = list(results[0]["metrics"])
    summary = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                          if len(values) > 1 else values * 3)
        summary[name] = {"unit": results[0]["metrics"][name]["unit"], "median": median,
                         "q1": q1, "q3": q3, "min": min(values), "max": max(values)}
    return {"correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "runs": results, "summary": summary}


def run_order(n_checkouts: int, seed_index: int) -> list[int]:
    """The order in which the checkouts run at the seed_index-th seed:
    as given at even indices, reversed at odd ones."""
    order = list(range(n_checkouts))
    return order[::-1] if seed_index % 2 else order


def run_once(checkout: Path, workload: str, seed: int, trace: int) -> str:
    """One benchmark run in ``checkout``; returns the last line of its stdout."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, check=True)
    return done.stdout.splitlines()[-1]


def _git(checkout: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(checkout), *args], stdout=subprocess.PIPE,
                          text=True, check=True).stdout.strip()


def compare(parent: dict, change: dict, end_to_end: list[dict]) -> list[dict]:
    """One row per metric of ``end_to_end`` (the entries of BENCHMARK.json):
    the change's record against the parent's, paired by seed."""
    if parent["session"] != change["session"]:
        raise ValueError("records of different sessions are not alternated pairs")
    if parent["workload"] != change["workload"] or \
            sorted(parent["seeds"]) != sorted(change["seeds"]):
        raise ValueError("the records ran different workloads or seeds")
    by_seed = dict(zip(change["seeds"], change["runs"]))
    pairs = [(a["metrics"], by_seed[seed]["metrics"])
             for seed, a in zip(parent["seeds"], parent["runs"])]
    rows = []
    for metric in end_to_end:
        name = metric["name"]
        sign = 1 if metric["better"] == "lower" else -1
        a, b = parent["summary"][name], change["summary"][name]
        wins = sum(sign * (pa[name]["value"] - pb[name]["value"]) > 0 for pa, pb in pairs)
        better_by = sign * (a["median"] - b["median"])
        rows.append({"name": name, "unit": a["unit"],
                     "parent": (a["q1"], a["median"], a["q3"]),
                     "change": (b["q1"], b["median"], b["q3"]),
                     "ratio": b["median"] / a["median"], "wins": wins, "pairs": len(pairs),
                     "gain": 10 * wins >= 9 * len(pairs) and better_by > a["q3"] - a["q1"],
                     "within_bound": -better_by <= metric["bound"] * a["median"]})
    return rows


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                   help="compare two records of one session; runs and writes nothing")
    p.add_argument("--workload")
    p.add_argument("--seeds", type=int, nargs="+")
    p.add_argument("--record", nargs=2, action="append", metavar=("LABEL", "CHECKOUT"),
                   help="run CHECKOUT and write BENCH_<LABEL>.json; repeat to alternate")
    args = p.parse_args(argv)
    if not args.compare and not (args.workload and args.seeds and args.record):
        p.error("--workload, --seeds and --record are required unless --compare is given")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.compare:
        parent, change = (json.loads(Path(path).read_text()) for path in args.compare)
        end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
        try:
            rows = compare(parent, change, end_to_end)
        except ValueError as err:
            sys.exit(f"error: {err}")
        print(f"{parent['workload']}: {parent['label']} -> {change['label']}, "
              f"session {parent['session']['started']}")
        for row in rows:
            q1, med, q3 = row["parent"]
            c1, cmed, c3 = row["change"]
            print(f"{row['name']} ({row['unit']}): {med:.4g} [{q1:.4g}-{q3:.4g}] -> "
                  f"{cmed:.4g} [{c1:.4g}-{c3:.4g}], ratio {row['ratio']:.3f}, "
                  f"change better in {row['wins']} of {row['pairs']} pairs, "
                  f"gain {'yes' if row['gain'] else 'no'}, "
                  f"within bound {'yes' if row['within_bound'] else 'no'}")
        return 0
    labels = [label for label, _ in args.record]
    checkouts = [Path(path).resolve() for _, path in args.record]
    session = {"started": datetime.datetime.now(datetime.timezone.utc)
               .isoformat(timespec="seconds"), "labels": labels}
    lines: list[list[str]] = [[] for _ in labels]
    for s, seed in enumerate(args.seeds):
        for i in run_order(len(labels), s):
            lines[i].append(run_once(checkouts[i], args.workload, seed, 0))
            print(f"{labels[i]} seed {seed}: {lines[i][-1]}", file=sys.stderr)
    ok = True
    for label, checkout, runs in zip(labels, checkouts, lines):
        record = {"label": label, "revision": _git(checkout, "rev-parse", "HEAD"),
                  "src_tree": _git(checkout, "rev-parse", "HEAD:src"),
                  "dirty": bool(_git(checkout, "status", "--porcelain", "--",
                                     "src", "perfbench")),
                  "workload": args.workload, "seeds": args.seeds, "session": session,
                  **summarise(runs)}
        traced = parse_result(run_once(checkout, args.workload, args.seeds[0], 1))
        record["traced"] = {"seed": args.seeds[0], **traced}
        out = ROOT / f"BENCH_{label}.json"
        out.write_text(json.dumps(record, indent=2) + "\n")
        print(out)
        ok = ok and record["correct"] and traced["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
