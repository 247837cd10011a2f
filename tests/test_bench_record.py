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


END_TO_END = [{"name": "setup_s", "better": "lower", "bound": 0.25},
              {"name": "pass_s", "better": "lower", "bound": 0.25},
              {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]


def _record(label, pass_times, rss, seeds=tuple(range(11, 21)), started="2026-01-01T00:00:00"):
    lines = [_line(p, rss) for p in pass_times]
    return {"label": label, "workload": "geometry", "seeds": list(seeds),
            "session": {"started": started, "labels": ["parent", "change"]},
            **bench_record.summarise(lines)}


PARENT = [0.126, 0.125, 0.130, 0.127, 0.124, 0.128, 0.126, 0.129, 0.125, 0.127]
CHANGE = [0.107, 0.108, 0.106, 0.109, 0.107, 0.130, 0.105, 0.108, 0.107, 0.106]


def test_compare_pairs_runs_by_seed_and_counts_wins():
    parent = _record("parent", PARENT, 32.0)
    # the same runs listed in another seed order pair the same way
    change = _record("change", CHANGE[::-1], 32.5, seeds=tuple(range(20, 10, -1)))
    rows = {row["name"]: row for row in bench_record.compare(parent, change, END_TO_END)}
    p = rows["pass_s"]
    assert (p["wins"], p["pairs"], p["gain"], p["within_bound"]) == (9, 10, True, True)
    assert p["parent"][1] == pytest.approx(0.1265) and p["change"][1] == pytest.approx(0.107)
    assert p["ratio"] == pytest.approx(0.107 / 0.1265)
    # ties count for neither side; 32.5 MiB against 32.0 is within the 0.1 bound
    assert (rows["setup_s"]["wins"], rows["setup_s"]["gain"]) == (0, False)
    r = rows["peak_rss_mb"]
    assert (r["wins"], r["gain"], r["within_bound"]) == (0, False, True)


def test_compare_needs_nine_wins_in_ten_and_a_clear_median_gap():
    parent = _record("parent", PARENT, 32.0)
    eight = CHANGE[:4] + [0.131, 0.132] + CHANGE[6:]  # the change loses two pairs
    row = bench_record.compare(parent, _record("change", eight, 32.0), END_TO_END)[1]
    assert (row["wins"], row["gain"]) == (8, False)
    close = [p - 0.0005 for p in PARENT]  # wins all ten, inside the parent's quartiles
    row = bench_record.compare(parent, _record("change", close, 32.0), END_TO_END)[1]
    assert (row["wins"], row["gain"]) == (10, False)
    worse = bench_record.compare(parent, _record("change", PARENT, 36.0), END_TO_END)[2]
    assert not worse["within_bound"]


def test_compare_refuses_records_of_two_sessions_or_seed_sets():
    parent = _record("parent", PARENT, 32.0)
    with pytest.raises(ValueError, match="different sessions"):
        bench_record.compare(parent, _record("change", CHANGE, 32.0, started="later"),
                             END_TO_END)
    with pytest.raises(ValueError, match="different workloads or seeds"):
        bench_record.compare(parent, _record("change", CHANGE, 32.0,
                                             seeds=tuple(range(21, 31))), END_TO_END)


def test_compare_prints_and_writes_nothing(tmp_path, monkeypatch, capsys):
    paths = []
    for rec in (_record("parent", PARENT, 32.0), _record("change", CHANGE, 32.0)):
        paths.append(tmp_path / f"BENCH_{rec['label']}.json")
        paths[-1].write_text(json.dumps(rec))

    def refused(*args, **kwargs):
        raise AssertionError("compare ran or wrote something")

    monkeypatch.setattr(bench_record, "run_once", refused)
    monkeypatch.setattr(Path, "write_text", refused)
    assert bench_record.main(["--compare", *map(str, paths)]) == 0
    out = capsys.readouterr().out
    assert "pass_s (s): 0.1265 [0.1253-0.1278] -> 0.107 [0.1062-0.108]" in out
    assert "change better in 9 of 10 pairs, gain yes, within bound yes" in out
    with pytest.raises(SystemExit):
        bench_record.parse_args(["--workload", "geometry", "--seeds", "1"])
