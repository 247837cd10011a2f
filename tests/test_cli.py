"""CLI surface: subcommands, exit codes, file formats, config files."""

import json
import math

import pytest

from growthlab.cli import main


@pytest.fixture()
def sub_file(tmp_path):
    p = tmp_path / "sub.txt"
    p.write_text("a\n")
    return str(p)


@pytest.fixture()
def sub2_file(tmp_path):
    p = tmp_path / "sub2.txt"
    p.write_text("a\nbaB\n")
    return str(p)


def test_gap_command(sub_file, tmp_path):
    out = tmp_path / "gap.json"
    code = main(["gap", "--group", "free:2", "--subgroup", sub_file,
                 "--g0", "ab", "--rmax", "12", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["verdict"] == "PASS"
    assert "timestamp" in payload


def test_gap_finite_index_exit_code(tmp_path):
    sub = tmp_path / "rose.txt"
    sub.write_text("a\nb\n")
    code = main(["gap", "--group", "free:2", "--subgroup", str(sub),
                 "--g0", "ab", "--rmax", "8", "--out", str(tmp_path / "r.json")])
    assert code == 2
    payload = json.loads((tmp_path / "r.json").read_text())
    assert payload["verdict"] == "INAPPLICABLE"


def test_gap_torsion_g0_exit_code(sub_file, tmp_path):
    out = tmp_path / "g.json"
    code = main(["gap", "--group", "free:2", "--subgroup", sub_file,
                 "--g0", "1", "--out", str(out)])
    assert code == 2
    payload = json.loads(out.read_text())
    assert payload["verdict"] == "INAPPLICABLE"
    assert payload["hypotheses"]["constricting_element"] is False


def test_gap_rmax_is_not_clamped(sub_file, tmp_path):
    out = tmp_path / "g.json"
    code = main(["gap", "--group", "free:2", "--subgroup", sub_file,
                 "--g0", "ab", "--rmax", "20", "--out", str(out)])
    assert code == 0
    assert len(json.loads(out.read_text())["details"]["h_counts"]) == 21


@pytest.mark.parametrize("command", ["gap", "quotient"])
def test_rmax_below_three_is_an_error(command, sub_file, tmp_path, capsys):
    out = tmp_path / "r.json"
    code = main([command, "--group", "free:2", "--subgroup", sub_file,
                 "--rmax", "2", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: radii must be >= 3")
    assert not out.exists()


@pytest.mark.parametrize("args, message", [
    (["gap", "--g0", "ab", "--rmax", "0"], "error: radii must be >= 3"),
    (["quotient", "--rmax", "0"], "error: radii must be >= 3"),
    (["gap", "--g0", "ab", "--margin", "0"], "error: margins must be > 0"),
    (["gap", "--g0", "ab", "--margin", "-0.5"], "error: margins must be > 0"),
    (["audit", "--axis", "ab", "--rmax", "0"], "error: --rmax must be >= 1"),
    (["audit", "--axis", "ab", "--rmax", "-1"], "error: --rmax must be >= 1"),
    (["selector", "--g0", "b", "--rmax", "0"], "error: --rmax must be >= 1"),
    (["selector", "--g0", "b", "--rmax", "-2"], "error: --rmax must be >= 1"),
])
def test_zero_and_negative_values_are_errors(args, message, sub_file, tmp_path, capsys):
    out = tmp_path / "r.json"
    if args[0] != "audit":
        args = args + ["--subgroup", sub_file]
    code = main(args + ["--group", "free:2", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith(message)
    assert not out.exists()


def test_quotient_command_csv(sub_file, tmp_path):
    out = tmp_path / "q.csv"
    code = main(["quotient", "--group", "free:2", "--subgroup", sub_file,
                 "--rmax", "10", "--format", "csv", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "radius,count,rate_estimate"
    assert lines[1].startswith("0,1,")


def test_quotient_rate_exact_below_eta(tmp_path):
    """--rmax 3 stops short of eta + 2 = 6; the rate is still exactly log 3
    and the counts stop at radius 3."""
    sub = tmp_path / "deep.txt"
    sub.write_text("babbaaBa\nbabaBBAA\nbbaaabba\n")
    out = tmp_path / "q.json"
    code = main(["quotient", "--group", "free:2", "--subgroup", str(sub),
                 "--rmax", "3", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["details"]["eta"] == 4
    assert payload["omega_quotient"] == math.log(3)
    assert len(payload["details"]["coset_counts"]) == 4
    assert "quotient_fit_error" not in payload["details"]


def test_amalgam_counterexample_exit_code(sub2_file, tmp_path):
    out = tmp_path / "am.json"
    code = main(["amalgam", "--group", "free:2", "--subgroup", sub2_file,
                 "--g0", "b", "-M", "1", "--syllables", "4", "--out", str(out)])
    assert code == 3
    assert json.loads(out.read_text())["verdict"] == "COUNTEREXAMPLE"


def test_amalgam_pass(sub2_file, tmp_path):
    out = tmp_path / "am4.json"
    code = main(["amalgam", "--group", "free:2", "--subgroup", sub2_file,
                 "--g0", "b", "-M", "4", "--syllables", "4", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["verdict"] == "PASS"


def test_audit_command(tmp_path):
    out = tmp_path / "audit.json"
    code = main(["audit", "--group", "free:2", "--axis", "ab", "--rmax", "4",
                 "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["constriction"]["delta_cs1"] == 0
    assert payload["constriction"]["delta_cs2"] == 0
    rows = {r["property"]: r for r in payload["properties"]}
    assert rows["lipschitz"]["theta_empirical"] == 0
    assert set(rows["lipschitz"]) >= {"property", "theta_empirical", "samples", "worst_witness"}


def test_buffering_command(tmp_path):
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps({
        "group": "free:2", "subgroup": ["a"], "g": "b",
        "word": [["h", "a"], ["k", "bbb"]], "radius": 2,
        "epsilon": 2, "L": 3, "theta": 2,
    }))
    out = tmp_path / "buf.json"
    code = main(["buffering", "--chain", str(chain), "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["check"]["passed"] is True
    assert payload["separation"]["margins"] == [1]


def test_buffering_negative_parameter_is_an_error(tmp_path, capsys):
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps({
        "group": "free:2", "subgroup": ["a"], "g": "b",
        "word": [["h", "a"], ["k", "bbb"]], "radius": 2, "epsilon": -1,
    }))
    code = main(["buffering", "--chain", str(chain), "--out", str(tmp_path / "b.json")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "b.json").exists()


def test_closure_command(tmp_path):
    out = tmp_path / "cl.json"
    code = main(["closure", "--group", "free:2", "--g0", "aa", "--radius", "6",
                 "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["E_gens"] == ["a"]
    assert payload["index_over_cyclic"] == 2
    assert payload["certificates"]["conjugation_identities"] is True


def test_selector_command(sub_file, tmp_path):
    out = tmp_path / "sel.json"
    code = main(["selector", "--group", "free:2", "--subgroup", sub_file,
                 "--g0", "b", "--rmax", "5", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["coarse_quotient"]["verdict"] == "PASS"


def test_config_file(tmp_path, sub_file):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"group": "free:2", "subgroup": sub_file,
                               "g0": "ab", "rmax": 10}))
    out = tmp_path / "out.json"
    code = main(["gap", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["verdict"] == "PASS"


def test_json_determinism(sub_file, tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        main(["gap", "--group", "free:2", "--subgroup", sub_file,
              "--g0", "ab", "--rmax", "10", "--out", str(out)])
        payload = json.loads(out.read_text())
        payload.pop("timestamp")
        outs.append(json.dumps(payload, sort_keys=True))
    assert outs[0] == outs[1]


def test_quotient_budget_exit_code(sub_file, tmp_path):
    code = main(["quotient", "--group", "free:2", "--subgroup", sub_file,
                 "--rmax", "12", "--max-states", "100",
                 "--out", str(tmp_path / "q.json")])
    assert code == 4
