"""CLI surface: subcommands, exit codes, file formats, config files."""

import json
import math

import oracles
import pytest

from growthlab import cli
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


def test_gap_is_strict(tmp_path):
    """<a^20, a^i b a^-i : 0 < i < 20> has omega_G - omega_H = 0.00943 > 0."""
    sub = tmp_path / "slow.txt"
    sub.write_text("a" * 20 + "".join(f"\n{'a' * i}b{'A' * i}" for i in range(1, 20)))
    out = tmp_path / "gap.json"
    assert main(["gap", "--group", "free:2", "--subgroup", str(sub), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["verdict"] == "PASS"


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
    (["gap", "--g0", "ab", "--rmax", "-1"], "error: radii must be >= 3"),
    (["quotient", "--rmax", "-1"], "error: radii must be >= 3"),
    (["audit", "--axis", "ab", "--rmax", "0"], "error: --rmax must be >= 1"),
    (["audit", "--axis", "ab", "--rmax", "-1"], "error: --rmax must be >= 1"),
    (["selector", "--g0", "b", "--rmax", "0"], "error: --rmax must be >= 1"),
    (["selector", "--g0", "b", "--rmax", "-2"], "error: --rmax must be >= 1"),
    (["closure", "--g0", "ab", "--radius", "0"], "error: --radius must be >= 1"),
    (["amalgam", "--g0", "b", "--syllables", "0"], "error: --syllables must be >= 1"),
    (["selector", "--g0", "b", "--theta", "-1"], "error: --theta must be >= 0"),
    (["selector", "--g0", "b", "--epsilon", "-3"], "error: --epsilon must be >= 0"),
    (["closure", "--g0", "ab", "--radius", "-1"], "error: --radius must be >= 1"),
    (["amalgam", "--g0", "b", "--syllables", "-1"], "error: --syllables must be >= 1"),
    (["amalgam", "--g0", "b", "-M", "-1"], "error: -M must be >= 1"),
    (["amalgam", "--g0", "b", "-M", "0"], "error: -M must be >= 1"),
    (["amalgam", "--g0", "b", "--letter-cap", "0"], "error: --letter-cap must be >= 1"),
])
def test_zero_and_negative_values_are_errors(args, message, sub_file, tmp_path, capsys):
    out = tmp_path / "r.json"
    if args[0] not in ("audit", "closure"):
        args = args + ["--subgroup", sub_file]
    code = main(args + ["--group", "free:2", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith(message)
    assert not out.exists()


@pytest.mark.parametrize("args, message", [
    (["gap", "--group", "free:x", "--subgroup", "{sub}"], "error: bad group 'free:x'"),
    (["quotient", "--group", "free:0", "--subgroup", "{sub}"], "error: bad group 'free:0'"),
    (["amalgam", "--group", "product:1,3", "--subgroup", "{sub}", "--g0", "b"],
     "error: bad group 'product:1,3'"),
    (["gap", "--group", "free:2", "--subgroup", "{missing}"], "error: [Errno 2]"),
    (["buffering", "--chain", "{missing}"], "error: [Errno 2]"),
    (["gap", "--group", "free:2", "--subgroup", "{sub}", "--config"],
     "error: --config needs a path"),
    (["gap", "--group", "free:2", "--config", "{missing}"], "error: [Errno 2]"),
    (["gap", "--group", "free:2", "--config", "{bad_json}"], "error: Expecting"),
    (["gap", "--group", "free:2", "--config", "{list_json}"],
     "error: --config must hold a JSON object"),
])
def test_bad_outside_input_is_an_error(args, message, sub_file, tmp_path, capsys):
    """Malformed groups, missing files and a bad --config print one error
    line and exit 1 instead of raising."""
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{")
    list_json = tmp_path / "list.json"
    list_json.write_text("[1]")
    args = [a.format(sub=sub_file, missing=tmp_path / "missing", bad_json=bad_json,
                     list_json=list_json)
            for a in args]
    out = tmp_path / "r.json"
    code = main(args[:1] + ["--out", str(out)] + args[1:])
    assert code == 1
    assert capsys.readouterr().err.startswith(message)
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["gap", "--group", "free:2", "--subgroup", "{sub}", "--rmax", "x"],
     "error: argument --rmax: invalid int value: 'x'"),
    (["gap", "--group", "free:2", "--subgroup", "{sub}", "--bogus"],
     "error: unrecognized arguments: --bogus"),
    (["gap", "--group", "free:2", "--subgroup", "{sub}", "--config", "{cfg}"],
     "error: argument --rmax: invalid int value: 'x'"),
    (["nosuch"], "error: argument command: invalid choice: 'nosuch'"),
    ([], "error: the following arguments are required: command"),
    (["quotient", "--group", "free:2", "--subgroup", "{sub}", "--g0", "ab"],
     "error: unrecognized arguments: --g0 ab"),
    (["quotient", "--group", "free:2", "--subgroup", "{sub}", "--config", "{g0_cfg}"],
     "error: unrecognized arguments: --g0 ab"),
    (["amalgam", "--group", "free:2", "--subgroup", "{sub}", "--g0", "b", "--rmax", "3"],
     "error: unrecognized arguments: --rmax 3"),
    (["amalgam", "--group", "free:2", "--subgroup", "{sub}", "--g0", "b",
      "--config", "{rmax_cfg}"], "error: unrecognized arguments: --rmax 3"),
    (["amalgam", "--group", "free:2", "--subgroup", "{sub}"],
     "error: the following arguments are required: --g0"),
    (["selector", "--group", "free:2", "--subgroup", "{sub}"],
     "error: the following arguments are required: --g0"),
    (["gap", "--group", "free:2", "--subgroup", "{sub}", "--margin", "0.1"],
     "error: unrecognized arguments: --margin 0.1"),
    (["gap", "--group", "free:2", "--subgroup", "{sub}", "--config", "{margin_cfg}"],
     "error: unrecognized arguments: --margin 0.1"),
    (["quotient", "--group", "free:2", "--subgroup", "{sub}", "--max-states", "100"],
     "error: unrecognized arguments: --max-states 100"),
])
def test_argparse_rejections_are_errors(argv, message, sub_file, tmp_path, capsys):
    """Exit code 2 means a failed hypothesis, so a flag that argparse
    rejects prints one error line and exits 1 like other bad input.  That
    includes a flag the command does not read (``quotient --g0``,
    ``amalgam --rmax``) or no longer has (``gap --margin``: the gap is
    strict; ``quotient --max-states``: no coset count needs a budget),
    given directly or through --config, and a missing --g0 where the
    command needs one."""
    configs = {"cfg": {"rmax": "x"}, "g0_cfg": {"g0": "ab"}, "rmax_cfg": {"rmax": 3},
               "margin_cfg": {"margin": 0.1}}
    for name, data in configs.items():
        configs[name] = tmp_path / f"{name}.json"
        configs[name].write_text(json.dumps(data))
    assert main([a.format(sub=sub_file, **configs) for a in argv]) == 1
    assert capsys.readouterr().err.startswith(message)


@pytest.mark.parametrize("argv", [["--help"], ["audit", "--help"]])
def test_help_exits_zero(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: growthlab")


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


CHAIN = {"group": "free:2", "subgroup": ["a"], "g": "b",
         "word": [["h", "a"], ["k", "bbb"]], "radius": 2}


@pytest.mark.parametrize("change, message", [
    ({"subgroup": None}, "error: chain spec 'subgroup' must be a list of words, got None"),
    ({"g": None}, "error: chain spec 'g' must be a string, got None"),
    ({"word": None}, "error: chain spec 'word' must be a list of [label, word] pairs"),
    ({"word": [["h"]]}, "error: chain spec 'word' must be a list of [label, word] pairs"),
    ({"epsilon": "x"}, "error: chain spec 'epsilon' must be an integer >= 0, got 'x'"),
    ({"radius": -1}, "error: chain spec 'radius' must be an integer >= 0, got -1"),
    ({"epsilom": 0}, "error: chain spec has unknown key 'epsilom'"),
])
def test_bad_chain_spec_is_an_error(change, message, tmp_path, capsys):
    """A chain spec with a missing, malformed or unknown key names the key,
    prints one error line and exits 1 before any work.  ``None`` drops the
    key.  An unknown key is refused rather than ignored: a misspelt
    "epsilom" would otherwise leave epsilon at its default."""
    spec = {k: v for k, v in {**CHAIN, **change}.items() if v is not None}
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps(spec))
    out = tmp_path / "b.json"
    code = main(["buffering", "--chain", str(chain), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith(message)
    assert not out.exists()


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


def test_selector_with_one_class_runs_past_the_old_pair_cap(tmp_path):
    """H = <a, b> puts all 4,373 points of B(o, 7) in one coset class, of
    9,559,378 pairs; CQ1 reads the class diameter without the pairs."""
    sub = tmp_path / "rose.txt"
    sub.write_text("a\nb\n")
    out = tmp_path / "sel.json"
    code = main(["selector", "--group", "free:2", "--subgroup", str(sub),
                 "--g0", "b", "--rmax", "7", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["coarse_quotient"]["theta_cq1"] == 20


def test_selector_projects_each_point_once(tmp_path, projections):
    """The coarse-quotient check reads f(u) through the map the selector
    search filled: one projection per u^-1 of B(o, 6), plus pi(1) and
    pi(g^m) for m = 1..M, and none in the check."""
    sub = tmp_path / "rose.txt"
    sub.write_text("a\nb\n")
    out = tmp_path / "sel.json"
    code = main(["selector", "--group", "free:2", "--subgroup", str(sub),
                 "--g0", "b", "--rmax", "6", "--out", str(out)])
    assert code == 0
    ball = sum(oracles.free_ball(2, 6)[0])
    assert projections[0] <= ball + json.loads(out.read_text())["M"] + 1


def test_config_file(tmp_path, sub_file):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"group": "free:2", "subgroup": sub_file,
                               "g0": "ab", "rmax": 10}))
    out = tmp_path / "out.json"
    code = main(["gap", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["verdict"] == "PASS"


def test_explicit_flags_beat_the_config_in_any_spelling(sub_file, tmp_path, capsys):
    """--config FILE and --config=FILE load the file; an explicit flag wins
    wherever it stands and however argparse lets it be spelled."""
    r9, s2 = tmp_path / "r9.json", tmp_path / "s2.json"
    r9.write_text(json.dumps({"rmax": 9}))
    s2.write_text(json.dumps({"syllables": 2}))

    def radius(*flags):
        out = tmp_path / "g.json"
        assert main(["gap", "--group", "free:2", "--subgroup", sub_file, *flags,
                     "--out", str(out)]) == 0
        return len(json.loads(out.read_text())["details"]["h_counts"]) - 1

    assert radius("--config", str(r9)) == radius(f"--config={r9}") == 9
    assert radius("--rmax", "5", "--config", str(r9)) == 5
    assert radius("--rmax=5", "--config", str(r9)) == 5
    assert radius(f"--config={r9}", "--rm", "5") == 5
    capsys.readouterr()
    assert main(["amalgam", "--group", "free:2", "--subgroup", sub_file, "--g0", "b",
                 "--syll", "12", "--config", str(s2)]) == 4
    assert "alternating words of at most 12 letters" in capsys.readouterr().err


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


@pytest.mark.parametrize("argv, message", [
    (["amalgam", "--group", "free:2", "--subgroup", "{sub}", "--g0", "b", "--syllables", "12"],
     "budget exceeded: more than 1000000 alternating words of at most 12 letters"),
    (["closure", "--group", "free:2", "--g0", "a", "--radius", "20000"],
     "budget exceeded: 400060002 letters exceed cap 2000000"),
    (["audit", "--group", "free:2", "--axis", "ab", "--rmax", "11"],
     "budget exceeded: 125523529849 pairs exceed cap 2000000"),
    (["selector", "--group", "free:2", "--subgroup", "{sub}", "--g0", "b", "--rmax", "12"],
     "budget exceeded: over 1000000 elements in B(o, 12)"),
    (["amalgam", "--group", "free:3", "--subgroup", "{rose}", "--g0", "c",
      "--letter-cap", "10"], "budget exceeded: over 1000000 elements of H in B(o, 12)"),
    (["buffering", "--chain", "{chain}"],
     "budget exceeded: over 1000000 elements of H in B(o, 12)"),
])
def test_over_budget_searches_are_refused(argv, message, sub_file, tmp_path, capsys, products):
    """Every budget of the CLI is counted before the work it bounds starts
    and refuses past its cap with exit 4, after fewer than 1,000 products:
    the amalgam search's words, the closure's letters, the audit's pairs,
    and the listings of B(o, 12) (selector) and of H & B(o, 12) for
    H = <a, b> (amalgam, buffering), 1,062,881 elements each."""
    rose = tmp_path / "rose.txt"
    rose.write_text("a\nb\n")
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps({"group": "free:2", "subgroup": ["a", "b"], "g": "b",
                                 "word": [["h", "a"], ["k", "bbb"]], "radius": 12}))
    out = tmp_path / "r.json"
    code = main([a.format(sub=sub_file, rose=rose, chain=chain) for a in argv]
                + ["--out", str(out)])
    assert code == 4
    assert capsys.readouterr().err.startswith(message)
    assert not out.exists()
    assert products[0] < 1000


def test_amalgam_power_in_h_is_refused_before_listing(tmp_path, capsys, products):
    """g = ab lies in H = F2, so no <g>-letter is left: the 354,293
    elements of H in B(o, 11) are not listed."""
    rose = tmp_path / "rose.txt"
    rose.write_text("a\nb\n")
    out = tmp_path / "r.json"
    code = main(["amalgam", "--group", "free:2", "--subgroup", str(rose), "--g0", "ab",
                 "--syllables", "1", "--letter-cap", "9", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: empty letter pool")
    assert not out.exists()
    assert products[0] < 1000


def test_main_builds_the_parser_once(tmp_path):
    """Building the parsers takes longer than a small command's own work,
    so main() builds the parser and the --config pre-parser on the first
    call and reuses them."""
    cli.build_parser.cache_clear()
    cli._config_parser.cache_clear()
    for name in ("a.json", "b.json"):
        assert main(["closure", "--group", "free:2", "--g0", "ab",
                     "--out", str(tmp_path / name)]) == 0
    assert cli.build_parser.cache_info().misses == 1
    assert cli._config_parser.cache_info().misses == 1
