"""The summary that tools/bench_record.py writes into BENCH_*.json files."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_SPEC = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)


def _line(pass_s, rss, correct=True, failed=0):
    return json.dumps({"correct": correct, "attempted": 30, "failed": failed, "metrics": {
        "setup_s": {"value": 0.2, "unit": "s"},
        "pass_s": {"value": pass_s, "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MiB"}}})


def test_summary_medians_and_quartiles():
    lines = [_line(p, r) for p, r in ((0.5, 64.0), (0.3, 50.0), (0.4, 52.0), (0.6, 51.0),
                                      (0.2, 49.0))]
    rec = bench_record.summarise(lines)
    assert rec["correct"] and rec["attempted"] == 150 and rec["failed"] == 0
    assert len(rec["runs"]) == 5
    p = rec["summary"]["pass_s"]
    assert p["unit"] == "s"
    assert (p["min"], p["q1"], p["median"], p["q3"], p["max"]) == pytest.approx(
        (0.2, 0.3, 0.4, 0.5, 0.6))
    r = rec["summary"]["peak_rss_mb"]
    assert (r["unit"], r["median"], r["q1"], r["q3"]) == ("MiB", 51.0, 50.0, 52.0)


def test_summary_of_one_run_and_of_a_failed_run():
    one = bench_record.summarise([_line(0.4, 50.0)])["summary"]["pass_s"]
    assert one["q1"] == one["median"] == one["q3"] == 0.4
    rec = bench_record.summarise([_line(0.4, 50.0), _line(0.5, 50.0, correct=False,
                                                          failed=3)])
    assert not rec["correct"] and rec["failed"] == 3


def test_summary_rejects_lines_that_are_not_results():
    with pytest.raises(ValueError):
        bench_record.summarise(['{"pass_s": 1.0}'])
    with pytest.raises(ValueError):
        bench_record.summarise([])
    with pytest.raises(json.JSONDecodeError):
        bench_record.summarise(["pass_s = 0.4 s"])


def test_run_order_flips_from_seed_to_seed():
    assert [bench_record.run_order(2, s) for s in range(4)] == [[0, 1], [1, 0]] * 2
    assert bench_record.run_order(1, 1) == [0]
    assert bench_record.run_order(3, 1) == [2, 1, 0]


def test_records_are_named_by_label_and_checkout():
    args = bench_record.parse_args(["--workload", "amalgam", "--seeds", "1", "2",
                                    "--record", "baseline", "../parent", "--record", "pr", "."])
    assert args.record == [["baseline", "../parent"], ["pr", "."]]
    with pytest.raises(SystemExit):
        bench_record.parse_args(["--workload", "amalgam", "--seeds", "1", "--seconds", "5",
                                 "--record", "pr", "."])
