"""Theorem pipelines: growth gap, quotient growth, amalgam injectivity,
free subgroups, coarse quotients.  Includes report determinism."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from growthlab import MarkedGroup, Word, stallings_fold
from growthlab.closure import find_selector_power, geometric_separation_power, find_transversal_conjugate
from growthlab.errors import CounterexampleFound, HypothesisFailed, PreconditionFailed
from growthlab.orbits import FiniteSubgroup, FreeSubgroup
from growthlab.reports import render_json
from growthlab.series import divergence_diagnostic
from growthlab.theorems import (ExperimentConfig, amalgam_injectivity,
                                coarse_quotient_check, free_subgroup_witness,
                                verify_growth_gap, verify_quotient_growth)


def fold(group, words):
    return stallings_fold(group, [group.parse(w) for w in words])


# -- growth gap -----------------------------------------------------------------

def test_gap_cyclic_subgroup():
    cfg = ExperimentConfig(group="free:2", subgroup=("a",), g0="ab")
    rep = verify_growth_gap(cfg)
    assert rep.verdict == "PASS"
    assert rep.omega_h == pytest.approx(0.0, abs=1e-9)
    assert rep.omega_g == pytest.approx(math.log(3), abs=1e-3)
    assert all(rep.hypotheses.values())


def test_gap_rank_two_subgroup():
    cfg = ExperimentConfig(group="free:2", subgroup=("a", "baB"), g0="ab")
    rep = verify_growth_gap(cfg)
    assert rep.verdict == "PASS"
    # omega_H = log 2 for this subgroup (spectral radius 2 transfer matrix)
    assert rep.omega_h == pytest.approx(math.log(2), abs=1e-6)
    assert rep.omega_h < rep.omega_g - 0.1


def test_gap_finite_index_inapplicable():
    cfg = ExperimentConfig(group="free:2", subgroup=("a", "b"), g0="ab")
    with pytest.raises(HypothesisFailed) as exc:
        verify_growth_gap(cfg)
    assert exc.value.hypothesis == "infinite_index"
    assert exc.value.report.verdict == "INAPPLICABLE"
    rep = verify_growth_gap(cfg, raise_on_hypothesis=False)
    assert rep.verdict == "INAPPLICABLE"
    assert not rep.hypotheses["infinite_index"]


def test_gap_pass_requires_all_hypotheses():
    cfg = ExperimentConfig(group="free:2", subgroup=("a",), g0="ab")
    rep = verify_growth_gap(cfg)
    assert rep.verdict == "PASS"
    assert all(rep.hypotheses.values())


@pytest.mark.parametrize("subgroup, g0, failing", [
    (("a", "b"), "ab", "infinite_index"),
    ((), "ab", "divergent"),
    (("a",), "1", "constricting_element"),
])
def test_gap_each_checked_hypothesis_can_fail(subgroup, g0, failing):
    cfg = ExperimentConfig(group="free:2", subgroup=subgroup, g0=g0)
    rep = verify_growth_gap(cfg, raise_on_hypothesis=False)
    assert rep.verdict == "INAPPLICABLE"
    assert [k for k, ok in rep.hypotheses.items() if not ok] == [failing]
    with pytest.raises(HypothesisFailed) as exc:
        verify_growth_gap(cfg)
    assert exc.value.hypothesis == failing


def test_quasi_convexity_is_assumed_not_checked():
    cfg = ExperimentConfig(group="free:2", subgroup=("a", "baB"), g0="ab")
    gap, quotient = verify_growth_gap(cfg), verify_quotient_growth(cfg)
    assert set(gap.hypotheses) == {"infinite_index", "divergent", "constricting_element"}
    assert set(quotient.hypotheses) == {"infinite_index"}
    for rep in (gap, quotient):
        assert "quasi-convex" in rep.assumed["quasi_convex"]
        assert rep.details["eta"] == 1


def test_growth_pipelines_run_no_sampled_audit(monkeypatch):
    from growthlab import audits, balls, theorems

    def forbidden(*args, **kwargs):
        raise AssertionError("sampled audit or ball enumeration in a growth pipeline")
    for home, name in ((audits, "constriction_audit"), (audits, "quasiconvexity_audit"),
                       (balls, "ball")):
        monkeypatch.setattr(home, name, forbidden)
        monkeypatch.setattr(theorems, name, forbidden, raising=False)
    cfg = ExperimentConfig(group="free:3", subgroup=("a", "b"), g0="c", r_ball=8)
    assert verify_growth_gap(cfg).verdict == "PASS"
    assert verify_quotient_growth(cfg).verdict == "PASS"


@pytest.mark.parametrize("k, gens, eta", [
    (2, ("a", "baB"), 1),
    (2, ("aa", "bb"), 1),
    (2, ("babbaaBa", "babaBBAA", "bbaaabba"), 4),
    (2, ("ABBABA", "abABaB", "ABBBAb"), 3),
    (2, ("bbAbb", "AbaaBAA"), 3),
    (3, ("BBB", "aBCC"), 2),
])
def test_eta_is_exact_against_the_sampled_audit(k, gens, eta):
    """details["eta"] is the largest core depth: the sampled audit reaches it
    by r = 8 and never exceeds it at smaller radii."""
    from growthlab.audits import quasiconvexity_audit
    from growthlab.orbits import SubgroupOrbit

    cfg = ExperimentConfig(group=f"free:{k}", subgroup=gens, r_schreier=6)
    assert verify_quotient_growth(cfg).details["eta"] == eta
    orbit = SubgroupOrbit(cfg.free_subgroup())
    assert quasiconvexity_audit(orbit, 8) == eta
    for r in (3, 4):
        assert quasiconvexity_audit(orbit, r) <= eta


@given(st.one_of(oracles.SUBGROUPS, st.just([])), st.integers(3, 20))
@settings(max_examples=50, deadline=None)
def test_divergent_matches_poincare_verdict(gens, r):
    """``divergent`` (the core has an edge) agrees with the Poincare
    partial-sum verdict at omega_H on sparse, periodic, cyclic and
    trivial subgroups."""
    cfg = ExperimentConfig(group="free:2", subgroup=tuple(gens), g0="ab", r_ball=r)
    rep = verify_growth_gap(cfg, raise_on_hypothesis=False)
    oracle = divergence_diagnostic(cfg.free_subgroup().core, rep.omega_h, max(r, 15))
    assert rep.hypotheses["divergent"] == (oracle.verdict == "diverges")
    assert rep.hypotheses["divergent"] == bool(gens)
    assert "Coornaert" in rep.assumed["divergence_type"]


# -- quotient growth ---------------------------------------------------------------

def test_quotient_cyclic_subgroup():
    cfg = ExperimentConfig(group="free:2", subgroup=("a",), r_schreier=14)
    rep = verify_quotient_growth(cfg)
    assert rep.verdict == "PASS"
    assert abs(rep.omega_quotient - math.log(3)) <= 0.05


def test_quotient_rank_two():
    cfg = ExperimentConfig(group="free:2", subgroup=("a", "baB"), r_schreier=14)
    rep = verify_quotient_growth(cfg)
    assert rep.verdict == "PASS"


@pytest.mark.parametrize("k, gens, r, index", [
    (2, ("a",), 3, math.inf),
    (2, ("a", "baB"), 6, math.inf),
    (2, ("babbaaBa", "babaBBAA", "bbaaabba"), 3, math.inf),  # eta = 4 > r - 2
    (3, ("ab", "cA"), 5, math.inf),
    (2, ("a", "b"), 3, 1),
    (2, ("aa", "b", "abA"), 4, 2),
])
def test_quotient_rate_is_exact(k, gens, r, index):
    """omega_{G/H} is exactly log(2k - 1) at infinite index and 0 at finite
    index, also when r_schreier stops short of eta + 2; the counts keep
    r_schreier + 1 entries."""
    cfg = ExperimentConfig(group=f"free:{k}", subgroup=gens, r_schreier=r)
    rep = verify_quotient_growth(cfg, raise_on_hypothesis=False)
    assert len(rep.details["coset_counts"]) == r + 1
    if index == math.inf:
        assert rep.omega_quotient == math.log(2 * k - 1)
        assert rep.gap == 0.0
        assert rep.verdict == "PASS"
    else:
        assert rep.details["index"] == index
        assert rep.omega_quotient == 0.0
        assert rep.verdict == "INAPPLICABLE"


def test_quotient_finite_index_note():
    cfg = ExperimentConfig(group="free:2", subgroup=("a", "b"))
    rep = verify_quotient_growth(cfg, raise_on_hypothesis=False)
    assert rep.verdict == "INAPPLICABLE"
    assert rep.omega_quotient == 0.0
    assert "0 <= omega_G" in rep.details["note"]


# -- amalgams -----------------------------------------------------------------------

def test_amalgam_free_case(f2):
    sub = FreeSubgroup(fold(f2, ["a"]))
    rep = amalgam_injectivity(sub, f2.parse("b"), M=1, n_syllables=6, letter_cap=4)
    assert rep.verdict == "PASS"
    # pools a^{+-1..4} and b^{+-1..4}: 8^d alternating words of d letters per
    # starting kind, every one visited
    assert rep.words_checked == 2 * sum(8 ** d for d in range(1, 7))
    assert rep.h_cap_e == ("1",)


def test_amalgam_small_power_refuted(f2):
    # M = 1 genuinely fails for H = <a, bab^-1>:
    # (b a^-1 b^-1) . b . a . b^-1 = 1
    sub = FreeSubgroup(fold(f2, ["a", "baB"]))
    w = f2.parse("bAB") * f2.parse("b") * f2.parse("a") * f2.parse("B")
    assert w.is_identity
    with pytest.raises(CounterexampleFound):
        amalgam_injectivity(sub, f2.parse("b"), M=1, n_syllables=4, letter_cap=4)


def test_amalgam_with_searched_power(f2):
    sub = FreeSubgroup(fold(f2, ["a", "baB"]))
    m = geometric_separation_power(sub, f2.parse("b"), epsilon=1, theta=2)["M"]
    rep = amalgam_injectivity(sub, f2.parse("b"), M=m, n_syllables=4, letter_cap=4)
    assert rep.verdict == "PASS"


def test_amalgam_free_product_with_torsion(z23):
    # H = <x> finite; g a transversal conjugate of the constricting xy
    sub = FiniteSubgroup(z23, [z23.parse("x")])
    g0 = z23.parse("xy")
    rec = find_transversal_conjugate(sub, g0, 3, theta=1, orbit_radius=3)
    g = g0.conjugated_by(rec.k)
    rep = amalgam_injectivity(sub, g, M=2, n_syllables=4, letter_cap=6)
    assert rep.verdict == "PASS"


@pytest.mark.parametrize("gens, n", [
    (("a", "baB"), 3), (("a", "baB"), 4), (("a", "bab"), 4), (("aB", "ba"), 4),
    (("a",), 5), (("ab",), 4), (("a", "bbaBB"), 4)])
def test_amalgam_search_matches_string_oracle(f2, gens, n):
    # H & E(b) is trivial for each H, so the pools are H - 1 within radius 4
    # (in the order the package lists them) and b^{+-1..4}; the string model
    # walks the same order and must stop at the same word with the same
    # witness, or visit as many words
    sub = FreeSubgroup(fold(f2, gens))
    pool_h = [str(h) for h in sub.elements_in_ball(4) if not h.is_identity]
    pad = max(len(w) for w in gens)
    assert set(pool_h) == oracles.closure_membership(2, list(gens), 4, pad) - {""}
    pool_k = ["B" * -j if j < 0 else "b" * j for j in range(-4, 5) if j]
    verdict, words, witness = oracles.alternating_search((pool_h, pool_k), n)
    try:
        rep = amalgam_injectivity(sub, f2.parse("b"), M=1, n_syllables=n, letter_cap=4)
    except CounterexampleFound as exc:
        assert verdict == ("collision" if "share an image" in str(exc) else "identity")
        assert exc.witness == witness
    else:
        assert verdict == "PASS"
        assert rep.words_checked == words


def test_amalgam_spends_one_product_per_word(f2, monkeypatch):
    # the search multiplies its prefix by one letter per word; the only other
    # products (122 here) build the pools and H & E(b).  A collision replay
    # run on a passing search, or a second product per word, breaks the bound.
    sub = FreeSubgroup(fold(f2, ["a"]))
    products = 0
    mul = Word.__mul__

    def counting(u, v):
        nonlocal products
        products += 1
        return mul(u, v)

    monkeypatch.setattr(Word, "__mul__", counting)
    rep = amalgam_injectivity(sub, f2.parse("b"), M=1, n_syllables=5, letter_cap=4)
    assert rep.words_checked == 2 * sum(8 ** d for d in range(1, 6))
    assert products <= rep.words_checked + 200


# -- free subgroup witnesses -----------------------------------------------------------

def test_free_witness_basis(f2):
    assert free_subgroup_witness(f2.parse("a"), f2.parse("b"), 1, 6)["verdict"] == "PASS"


def test_free_witness_ab_ba(f2):
    assert free_subgroup_witness(f2.parse("ab"), f2.parse("ba"), 2, 5)["verdict"] == "PASS"


def test_free_witness_z23(z23):
    rep = free_subgroup_witness(z23.parse("xy"), z23.parse("yx"), 2, 5)
    assert rep["verdict"] == "PASS"


@pytest.mark.parametrize("M, n", [(1, 5), (2, 4)])
def test_free_witness_counts_every_reduced_word(f2, M, n):
    # 4 letters g1^{+-M}, g2^{+-M}, then 3 choices after each: 4 * 3^(d-1)
    # reduced words of d letters, 2(3^n - 1) in all
    rep = free_subgroup_witness(f2.parse("ab"), f2.parse("aB"), M, n)
    assert rep["verdict"] == "PASS"
    assert rep["words_checked"] == 2 * (3 ** n - 1)


def test_free_witness_same_axis_rejected(f2):
    with pytest.raises(PreconditionFailed):
        free_subgroup_witness(f2.parse("ab"), f2.parse("abab"), 1, 4)


# -- coarse quotient ----------------------------------------------------------------------

def test_coarse_quotient_cyclic(f2):
    sub = FreeSubgroup(fold(f2, ["a"]))
    m, sel = find_selector_power(f2.parse("b"), epsilon=0, theta=1,
                                 y=f2.identity(), sample_radius=5)
    rep = coarse_quotient_check(sub, f2.parse("b"), sel, 5)
    assert rep.verdict == "PASS"
    assert rep.theta_cq1 == 0  # same phi-coset forces equal basepoint image
    assert rep.theta_cq2 == m  # |f(u)| = |g^M|
    assert all(ok for (_, _, _, ok) in rep.counting)


def test_coarse_quotient_trivial_pair(f2):
    sub = FreeSubgroup(fold(f2, ["a"]))
    _, sel = find_selector_power(f2.parse("b"), epsilon=0, theta=1,
                                 y=f2.identity(), sample_radius=4)
    rep = coarse_quotient_check(sub, f2.parse("b"), sel, 4, counting_radii=(3, 4))
    # u = v is in the same class with distance 0; theta_cq1 stays 0
    assert rep.theta_cq1 == 0


# -- report determinism ---------------------------------------------------------------------

def test_reports_are_deterministic():
    cfg = ExperimentConfig(group="free:2", subgroup=("a",), g0="ab")
    a = verify_growth_gap(cfg).to_dict()
    b = verify_growth_gap(cfg).to_dict()
    ja = json.loads(render_json(a))
    jb = json.loads(render_json(b))
    ja.pop("timestamp"), jb.pop("timestamp")
    assert json.dumps(ja, sort_keys=True) == json.dumps(jb, sort_keys=True)


def test_coarse_quotient_theta_cap_violation(f2):
    from growthlab.errors import CQViolation
    sub = FreeSubgroup(fold(f2, ["a"]))
    _, sel = find_selector_power(f2.parse("b"), epsilon=0, theta=1,
                                 y=f2.identity(), sample_radius=4)
    with pytest.raises(CQViolation):
        coarse_quotient_check(sub, f2.parse("b"), sel, 4, counting_radii=(3,),
                              theta_cap=0)
