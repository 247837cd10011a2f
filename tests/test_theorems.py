"""Theorem pipelines: growth gap, quotient growth, amalgam injectivity,
free subgroups, coarse quotients.  Includes report determinism."""

import gc
import json
import math
import tracemalloc
from dataclasses import asdict, replace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from growthlab import Axis, MarkedGroup, ProjectionMap, Word, stallings_fold
from growthlab.closure import (SeparationSelector, find_selector_power,
                               find_transversal_conjugate, geometric_separation_power)
from growthlab import closure, stallings, theorems
from growthlab.balls import ELEMENT_CAP
from growthlab.errors import (BudgetExceeded, CounterexampleFound, HypothesisFailed,
                              PreconditionFailed)
from growthlab.groups import distance
from growthlab.reports import render_json
from growthlab.series import divergence_diagnostic
from growthlab.theorems import (AmalgamReport, ExperimentConfig, amalgam_injectivity,
                                coarse_quotient_check, free_subgroup_witness,
                                verify_growth_gap, verify_quotient_growth)


def fold(group, words):
    return stallings_fold(group, [group.parse(w) for w in words])


def selector(g, M, threshold):
    """The selector of g^M and threshold on a fresh map of the axis of g."""
    return SeparationSelector(ProjectionMap(Axis(g)), M, threshold)


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


# <a^20, a^i b a^-i : 0 < i < 20>: infinite index, omega_G - omega_H = 0.00943
SLOW_GAP = ("a" * 20,) + tuple("a" * i + "b" + "A" * i for i in range(1, 20))


def test_gap_is_strict():
    """The conclusion is omega_H < omega_G, with no margin: a true gap of
    0.00943, under the 0.01 a margin would demand, PASSes."""
    rep = verify_growth_gap(ExperimentConfig(group="free:2", subgroup=SLOW_GAP))
    assert rep.verdict == "PASS"
    assert rep.details["index"] == "infinite"
    assert rep.gap == pytest.approx(0.00943, abs=1e-5)


def test_gap_verdict_can_fail(monkeypatch):
    """With omega_H patched to log 3 = omega_G the strict conclusion fails
    (the real omega_H = log 2 PASSes, see test_gap_rank_two_subgroup)."""
    cfg = ExperimentConfig(group="free:2", subgroup=("a", "baB"), g0="ab")
    exact = theorems.relative_growth

    def full(core, r_max):
        rel = exact(core, r_max)
        return replace(rel, spectral=replace(rel.spectral, rate=math.log(3)))

    monkeypatch.setattr(theorems, "relative_growth", full)
    rep = verify_growth_gap(cfg)
    assert rep.verdict == "FAIL"
    assert rep.gap == 0.0


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
    orbit = SubgroupOrbit(cfg.core())
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
    oracle = divergence_diagnostic(cfg.core(), rep.omega_h, max(r, 15))
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
        assert rep.omega_quotient == rep.omega_g == math.log(2 * k - 1)
        assert rep.gap == 0.0
        assert rep.verdict == "PASS"
    else:
        assert rep.details["index"] == index
        assert rep.omega_quotient == 0.0
        assert rep.verdict == "INAPPLICABLE"


@pytest.mark.parametrize("k, gens", [(2, ("a",)), (2, ("a", "baB")), (3, ("ab", "cA"))])
def test_quotient_verdict_can_fail(monkeypatch, k, gens):
    """The conclusion is omega_{G/H} == omega_G with no tolerance: a rate
    0.01 short of log(2k - 1) FAILs (the real rate PASSes, see
    test_quotient_rate_is_exact)."""
    from growthlab import theorems

    cfg = ExperimentConfig(group=f"free:{k}", subgroup=gens, r_schreier=8)
    exact = theorems.schreier_growth

    def short(core, r_max):
        sg = exact(core, r_max)
        return replace(sg, rate=replace(sg.rate, rate=math.log(2 * k - 1) - 0.01))

    monkeypatch.setattr(theorems, "schreier_growth", short)
    rep = verify_quotient_growth(cfg)
    assert rep.verdict == "FAIL"
    assert rep.gap == pytest.approx(0.01)


def test_quotient_finite_index_note():
    cfg = ExperimentConfig(group="free:2", subgroup=("a", "b"))
    rep = verify_quotient_growth(cfg, raise_on_hypothesis=False)
    assert rep.verdict == "INAPPLICABLE"
    assert rep.omega_quotient == 0.0
    assert "0 <= omega_G" in rep.details["note"]


# -- amalgams -----------------------------------------------------------------------

def _with_conjugate(w, j):
    """[w, b^j w b^-j]: such a pair makes alternating words collide."""
    return [w, "b" * j + w + "B" * j if j > 0 else "B" * -j + w + "b" * -j]


# generator lists of small random subgroups of F2, some of whose alternating
# words collide
_SMALL_SUBGROUPS = st.one_of(
    st.lists(st.integers(1, 3).flatmap(oracles.reduced_words), min_size=1, max_size=2),
    st.builds(_with_conjugate, st.integers(1, 2).flatmap(oracles.reduced_words),
              st.sampled_from([-2, -1, 1, 2])))


def test_amalgam_free_case(f2):
    sub = fold(f2, ["a"])
    rep = amalgam_injectivity(sub, f2.parse("b"), M=1, n_syllables=6, letter_cap=4)
    assert rep.verdict == "PASS"
    # pools a^{+-1..4} and b^{+-1..4}: 8^d alternating words of d letters per
    # starting kind, every one visited
    assert rep.words_checked == 2 * sum(8 ** d for d in range(1, 7))
    assert rep.h_cap_e == ("1",)


@pytest.mark.parametrize("h, k, n", [(8, 8, 6), (3, 5, 7), (5, 3, 8), (1, 1, 9)])
def test_amalgam_word_count_is_exact(h, k, n):
    # d-letter words: h^ceil(d/2) k^floor(d/2) starting with H, and the
    # mirror image starting with K; (8, 8, 6) is criterion 7's search
    words = sum(h ** ((d + 1) // 2) * k ** (d // 2) + k ** ((d + 1) // 2) * h ** (d // 2)
                for d in range(1, n + 1))
    assert theorems._alternating_words(h, k, n) == words
    assert words <= ELEMENT_CAP


def test_amalgam_over_budget_is_refused_before_searching(f2, monkeypatch):
    # 2 (8 + ... + 8^7) = 4,793,488 words
    monkeypatch.setattr(theorems, "_search", lambda *a, **k: pytest.fail("searched"))
    with pytest.raises(BudgetExceeded, match="more than 1000000 alternating words"):
        amalgam_injectivity(fold(f2, ["a"]), f2.parse("b"), M=1, n_syllables=7)


@pytest.mark.parametrize("gens, M, n, words", [
    (("a",), 1, 5, 74_896),      # pools a^{+-1..4}, b^{+-1..4}
    (("a", "baB"), 4, 4, 4_182),  # pools of 20 and 2: b^{+-4}
])
def test_amalgam_fold_decides_without_searching(f2, monkeypatch, gens, M, n, words):
    # rank <H, b^M> = rank H + 1, so H * <b^M> embeds (free groups are
    # Hopfian) and every alternating word of the sample is nontrivial and
    # distinct: the fold passes it with the sample's exact size
    monkeypatch.setattr(theorems, "_search", lambda *a, **k: pytest.fail("searched"))
    rep = amalgam_injectivity(fold(f2, gens), f2.parse("b"), M=M, n_syllables=n)
    assert (rep.verdict, rep.decided_by, rep.words_checked) == ("PASS", "fold", words)
    assert rep.words_checked == theorems._alternating_words(rep.pool_h, rep.pool_k, n)


def test_amalgam_fold_lists_no_element_of_h(f2, monkeypatch):
    """Where the fold certifies, H & E(g) is {1} and the H-pool is counted
    on the core: with the listing refused, <a, baB>, b, M = 4, n = 4 gives
    the report it gave with its listing."""
    sub = fold(f2, ["a", "baB"])
    monkeypatch.setattr(sub, "elements_in_ball", lambda r: pytest.fail("listed H"))
    rep = amalgam_injectivity(sub, f2.parse("b"), M=4, n_syllables=4)
    assert rep == AmalgamReport(verdict="PASS", decided_by="fold", words_checked=4182,
                                max_syllables=4, letter_cap=4, M=4, pool_h=20, pool_k=2,
                                h_cap_e=("1",))


def _search_only(patch):
    """Make amalgam_injectivity search every case, as if no fold certified one."""
    patch.setattr(theorems, "_fold_certifies", lambda core, power: False)


def _string_rank(gens):
    """E - V + 1 of ``oracles.string_fold(gens)``, whose moves hold each edge
    once from each end."""
    step, base = oracles.string_fold(gens)
    return len(step) // 2 - len({v for v, _ in step} | {base}) + 1


@given(oracles.SUBGROUPS, st.integers(1, 3).flatmap(oracles.reduced_words), st.integers(1, 3))
@example(["a", "baB"], "b", 1)  # <a, b>: rank 2, no gain
@example(["a", "baB"], "b", 4)  # rank 3
@example(["bb"], "b", 3)        # <b>: H & <b^3> = <b^6>
@settings(max_examples=80, deadline=None)
def test_fold_rank_matches_string_fold(gens, g, M):
    """The fold certifies <H, g^M> exactly when the string fold of H's
    generators and g^M has one more rank than that of H's alone."""
    f2 = MarkedGroup.free(2)
    core, power = fold(f2, gens), f2.parse(g) ** M
    assert core.rank == _string_rank(gens)
    assert theorems._fold_certifies(core, power) == \
        (_string_rank([*gens, str(power)]) == core.rank + 1)


def _outcome(sub, g, M, n, cap):
    """amalgam_injectivity's report, or its refusal or witness as a tuple."""
    try:
        return amalgam_injectivity(sub, g, M=M, n_syllables=n, letter_cap=cap)
    except (BudgetExceeded, CounterexampleFound, PreconditionFailed) as exc:
        return type(exc), str(exc), getattr(exc, "witness", None)


@given(_SMALL_SUBGROUPS, st.sampled_from(["b", "ab", "aB", "bAB"]), st.integers(1, 2),
       st.integers(3, 4), st.integers(1, 4))
@example(["a", "baB"], "b", 1, 4, 4)  # the search finds a collision
@example(["a"], "b", 1, 3, 3)         # the fold certifies
@example(["bab", "BaB"], "b", 1, 3, 4)  # the search finds an identity
@settings(max_examples=120, deadline=None)
def test_amalgam_fold_agrees_with_the_search(gens, g, M, cap, n):
    """Where the fold certifies, the search passes with the same count;
    where the search finds a witness, the fold refused; and a refused fold
    runs that same search."""
    f2 = MarkedGroup.free(2)
    sub, g = fold(f2, gens), f2.parse(g)
    decided = _outcome(sub, g, M, n, cap)
    assume(not isinstance(decided, AmalgamReport) or decided.words_checked <= 20_000)
    with pytest.MonkeyPatch.context() as patch:
        _search_only(patch)
        searched = _outcome(sub, g, M, n, cap)
    if isinstance(searched, tuple) and searched[0] is CounterexampleFound:
        assert not theorems._fold_certifies(sub, g ** M)
    if isinstance(decided, AmalgamReport) and decided.decided_by == "fold":
        assert searched == replace(decided, decided_by="search")
    else:
        assert searched == decided


def test_amalgam_small_power_refuted(f2):
    # M = 1 genuinely fails for H = <a, bab^-1>:
    # (b a^-1 b^-1) . b . a . b^-1 = 1
    sub = fold(f2, ["a", "baB"])
    w = f2.parse("bAB") * f2.parse("b") * f2.parse("a") * f2.parse("B")
    assert w.is_identity
    with pytest.raises(CounterexampleFound):
        amalgam_injectivity(sub, f2.parse("b"), M=1, n_syllables=4, letter_cap=4)


def test_amalgam_with_searched_power(f2):
    sub = fold(f2, ["a", "baB"])
    m = geometric_separation_power(sub, f2.parse("b"), epsilon=1, theta=2)["M"]
    rep = amalgam_injectivity(sub, f2.parse("b"), M=m, n_syllables=4, letter_cap=4)
    assert rep.verdict == "PASS"


def _torsion_case(z23):
    """H = <x> finite in Z2*Z3 and g a transversal conjugate of the
    constricting xy."""
    sub = oracles.FiniteSubgroup(z23, [z23.parse("x")])
    g0 = z23.parse("xy")
    rec = find_transversal_conjugate(sub, g0, 3, theta=1, orbit_radius=3)
    return sub, g0.conjugated_by(rec.k)


def test_amalgam_free_product_with_torsion(z23):
    sub, g = _torsion_case(z23)
    rep = amalgam_injectivity(sub, g, M=2, n_syllables=4, letter_cap=6)
    assert rep.verdict == "PASS"


@pytest.mark.parametrize("group, gens, g, M", [
    ("free:2", ("a", "b"), "ab", 1), ("free:2", ("a", "baB"), "a", 2),
    ("free:2", ("bb", "a"), "b", 2), ("free:2", ("aba",), "aba", 3),
    ("product:2,3", ("y",), "y", 1), ("product:2,3", ("x",), "x", 2)])
def test_amalgam_power_in_h_is_refused_before_listing(monkeypatch, group, gens, g, M):
    """g^M in H leaves no <g^M>-letter outside H & E(g): the run ends in
    "empty letter pool" before H is listed, as the full listing (the
    membership test patched out) ends too."""
    group = MarkedGroup.from_descriptor(group)
    sub = (fold(group, gens) if group.is_free
           else oracles.FiniteSubgroup(group, [group.parse(w) for w in gens]))
    g = group.parse(g)
    listing = sub.elements_in_ball
    monkeypatch.setattr(sub, "elements_in_ball", lambda r: pytest.fail("listed H"))
    with pytest.raises(PreconditionFailed, match="empty letter pool"):
        amalgam_injectivity(sub, g, M=M, n_syllables=2, letter_cap=4)
    monkeypatch.setattr(sub, "elements_in_ball", listing)
    monkeypatch.setattr(sub, "contains", lambda w: False)
    with pytest.raises(PreconditionFailed, match="empty letter pool"):
        amalgam_injectivity(sub, g, M=M, n_syllables=2, letter_cap=4)


@pytest.mark.parametrize("gens, g, M, refused", [
    (("bbb", "a"), "b", 10, False),  # b^10 b^-6 = b^4 is a <g^M>-letter
    (("bbb", "a"), "b", 11, True),   # each <g^M>-letter is >= 11 - 6 long
    (("a",), "b", 10**6, True),
    (("a",), "abA", 10**4, True),    # |g^M| = 2|a| + M|b|
])
def test_amalgam_power_past_the_pool_bound_is_never_built(f2, monkeypatch, gens, g, M, refused):
    """In F_k every <g^M>-letter is at least |g^M| - (letter_cap + 2) long,
    with |g^M| in closed form, so a power whose pool that leaves empty is
    refused before g^M is built; at letter_cap 4, M = 10 keeps the letter
    b^4 and M = 11 keeps none."""
    power = Word.__pow__

    def capped(w, n):
        if refused and abs(n) >= M:
            pytest.fail(f"built a power g^{n}")
        return power(w, n)

    monkeypatch.setattr(Word, "__pow__", capped)
    sub, g = fold(f2, gens), f2.parse(g)
    if refused:
        with pytest.raises(PreconditionFailed, match="empty letter pool"):
            amalgam_injectivity(sub, g, M=M, n_syllables=2, letter_cap=4)
    else:
        assert amalgam_injectivity(sub, g, M=M, n_syllables=2, letter_cap=4).pool_k == 2


@pytest.mark.parametrize("group, gens, g, M, epsilon", [
    ("free:2", ("aa", "bb"), "b", 1, 100), ("product:2,3", ("x",), "xy", 2, 1)])
def test_each_run_lists_h_once(monkeypatch, group, gens, g, M, epsilon):
    """amalgam_injectivity filters H & E(g) from its one listing of
    H & B(o, N + 2) and cuts its H-pool from it; geometric_separation_power
    filters H & E(g) from its sample Y.  Checked on a core and on a finite
    subgroup, whose listings have different orders."""
    group = MarkedGroup.from_descriptor(group)
    words = [group.parse(w) for w in gens]
    sub = fold(group, gens) if group.is_free else oracles.FiniteSubgroup(group, words)
    g = group.parse(g)
    listing, radii = sub.elements_in_ball, []

    def counting(radius):
        radii.append(radius)
        return listing(radius)

    monkeypatch.setattr(sub, "elements_in_ball", counting)
    amalgam_injectivity(sub, g, M=M, n_syllables=4, letter_cap=4)
    assert radii == [6]
    radii.clear()
    geometric_separation_power(sub, g, epsilon=epsilon, theta=1)
    assert radii == [closure.SEPARATION_ORBIT_RADIUS]


@given(oracles.SUBGROUPS, st.integers(0, 5))
@settings(max_examples=40, deadline=None)
def test_the_pool_cut_keeps_the_listing_order(gens, n):
    """The H-pool is H & B(o, n + 2) cut at n: the core's listing at n,
    a depth-first walk, is the walk at n + 2 pruned, in the same order."""
    sub = fold(MarkedGroup.free(2), gens)
    assert [h for h in sub.elements_in_ball(n + 2) if h.length <= n] == \
        list(sub.elements_in_ball(n))


def _string_pools(sub, cap):
    """The letter pools of amalgam_injectivity(sub, b, M=1, letter_cap=cap)
    as strings, or None when H & E(b) is nontrivial (collisions are then
    not checked) or the H pool is empty: H - 1 within radius cap, in the
    order the package lists it, and b^j with 0 < |j| <= min(4, cap)."""
    f2 = sub.group
    if any(sub.contains(f2.parse("b" * j)) for j in range(1, cap + 3)):
        return None
    pool_h = [str(h) for h in sub.elements_in_ball(cap) if not h.is_identity]
    pool_k = ["B" * -j if j < 0 else "b" * j for j in range(-4, 5) if j and abs(j) <= cap]
    return (pool_h, pool_k) if pool_h else None


def _matches_string_oracle(sub, cap, n):
    """amalgam_injectivity(sub, b, M=1) stops at the same word with the same
    witness as the string model, or visits as many words; returns the
    model's (verdict, words, witness)."""
    verdict, words, witness = oracles.alternating_search(_string_pools(sub, cap), n)
    with pytest.MonkeyPatch.context() as patch:
        _search_only(patch)  # the model is of the search, which would not run where the fold certifies
        try:
            rep = amalgam_injectivity(sub, sub.group.parse("b"), M=1, n_syllables=n,
                                      letter_cap=cap)
        except CounterexampleFound as exc:
            assert verdict == ("collision" if "share an image" in str(exc) else "identity")
            assert exc.witness == witness
        else:
            assert (verdict, rep.decided_by, rep.words_checked) == ("PASS", "search", words)
    return verdict, words, witness


@pytest.mark.parametrize("gens, n", [
    (("a", "baB"), 3), (("a", "baB"), 4), (("a", "bab"), 4), (("aB", "ba"), 4),
    (("a",), 5), (("ab",), 4), (("a", "bbaBB"), 4)])
def test_amalgam_search_matches_string_oracle(f2, gens, n):
    # H & E(b) is trivial for each H, so the pools are H - 1 within radius 4
    # (in the order the package lists them) and b^{+-1..4}
    sub = fold(f2, gens)
    pool_h = _string_pools(sub, 4)[0]
    assert set(pool_h) == oracles.closure_membership(2, list(gens), 4) - {""}
    _matches_string_oracle(sub, 4, n)


@pytest.mark.parametrize("gens, cap, n, batch", [
    (("bab", "BaB"), 3, 4, "identity"),  # bab.BB.bAb.BB = 1
    (("aa", "bab"), 3, 3, "earlier"),    # BB.bab.B = BAB.b.aa, under prefixes BB and BAB
    (("a", "baB"), 3, 2, "same"),        # B.baB = a.B, both under the empty prefix of n = 2
])
def test_first_bad_word_in_a_last_level_batch(f2, gens, cap, n, batch):
    # the first bad word in search order has n letters, the deepest level the
    # walk yields; "same" and "earlier" place the earlier word of a collision
    # under the same prefix of n - 2 letters, or under an earlier one
    verdict, _, witness = _matches_string_oracle(fold(f2, gens), cap, n)
    if batch == "identity":
        assert verdict == "identity" and len(witness) == n
    else:
        first, second = witness
        assert verdict == "collision" and len(second) == n
        same = len(first) >= n - 1 and first[:n - 2] == second[:n - 2]
        assert same == (batch == "same")


def test_collision_replay_reads_the_same_codes(f2):
    # ab.BB.ba.b = ab.B.ab = aab, and no letter has the syllable aa: it is
    # made by a merging seam, so the pass that finds the earlier word must
    # make it again, by the same product, to match the later word's image
    verdict, _, witness = _matches_string_oracle(fold(f2, ["ab", "ba"]), 2, 4)
    assert verdict == "collision"
    assert witness == (["ab", "BB", "ba", "b"], ["ab", "B", "ab"])


@given(_SMALL_SUBGROUPS, st.integers(2, 3), st.integers(1, 4))
@example(["a", "bab"], 3, 2)  # BAB.b = B.A = BA, a collision whose seam merges at the last level
@settings(max_examples=80, deadline=None)
def test_amalgam_search_matches_string_oracle_on_random_subgroups(gens, cap, n):
    f2 = MarkedGroup.free(2)
    sub = fold(f2, gens)
    pools = _string_pools(sub, cap)
    assume(pools is not None and (len(pools[0]) * len(pools[1])) ** (n / 2) <= 4000)
    _matches_string_oracle(sub, cap, n)


def _count_products(monkeypatch) -> list[int]:
    """A one-element list that counts ``Word.__mul__`` calls from now on."""
    products = [0]
    mul = Word.__mul__

    def counting(u, v):
        products[0] += 1
        return mul(u, v)

    monkeypatch.setattr(Word, "__mul__", counting)
    return products


def test_amalgam_spends_one_product_per_word(f2, monkeypatch):
    # pools a^{+-1..4} and b^{+-1..4}: 2 (8 + 8^2 + 8^3 + 8^4) = 9,360 words
    # of fewer than 5 letters, allowed one product each; a product per
    # last-level word, or a second walk of the passing search, breaks that bound.
    # a- and b-letters never merge at the seam, so no word of any length
    # costs a product: only the pools and H & E(b) do (38 here; 9,398 with
    # one product per word of fewer than 5 letters)
    sub = fold(f2, ["a"])
    _search_only(monkeypatch)  # the fold certifies <a, b> and would search nothing
    products = _count_products(monkeypatch)
    rep = amalgam_injectivity(sub, f2.parse("b"), M=1, n_syllables=5, letter_cap=4)
    assert (rep.decided_by, rep.words_checked) == ("search", 2 * sum(8 ** d for d in range(1, 6)))
    assert products[0] <= 9360 + 200
    assert products[0] <= 200


@pytest.mark.parametrize("case", ["free", "torsion"])
def test_passing_search_walks_exactly_the_sample(f2, z23, monkeypatch, case):
    # words_checked is the sample's size, counted from the pools, on both
    # paths; a passing search must still have walked every word of it
    search, walked = theorems._search, [0]

    def counting(*args):
        for word in search(*args):
            walked[0] += 1
            yield word

    monkeypatch.setattr(theorems, "_search", counting)
    if case == "free":
        _search_only(monkeypatch)  # the fold certifies <a, b>
        rep = amalgam_injectivity(fold(f2, ["a"]), f2.parse("b"), M=1, n_syllables=4)
    else:
        sub, g = _torsion_case(z23)
        rep = amalgam_injectivity(sub, g, M=2, n_syllables=4, letter_cap=6)
    assert (rep.verdict, rep.decided_by) == ("PASS", "search")
    assert walked[0] == rep.words_checked == \
        theorems._alternating_words(rep.pool_h, rep.pool_k, 4)


def test_collision_costs_one_walk_and_one_pass(f2, monkeypatch):
    # <a, baB>, b, M = 1 collides at a.BBBB.aa.B: the listing and the pools
    # make 214 products, the walk to the collision 88 (one per merging seam)
    # and the pass to its earlier word 25, 327 in all; a second walk of the
    # words before the collision, as a replay after a failed batch, made 455
    sub = fold(f2, ["a", "baB"])
    products = _count_products(monkeypatch)
    with pytest.raises(CounterexampleFound, match="share an image") as exc:
        amalgam_injectivity(sub, f2.parse("b"), M=1, n_syllables=5)
    assert exc.value.witness == (["a", "BBBB", "a", "B", "baB"], ["a", "BBBB", "aa", "B"])
    assert products[0] <= 330


@pytest.mark.parametrize("search", ["amalgam", "ping-pong"])
def test_searches_leave_no_garbage_cycle(f2, z23, monkeypatch, search):
    # a reference cycle through the search, or through the generator it
    # walks, would keep the image set (thousands of tuples for the amalgam
    # search here) alive until the cyclic collector runs; the fold certifies
    # <a, b>, so the amalgam search is forced, and the commutator decides
    # ping-pong in F2, so its walk runs in Z2*Z3
    _search_only(monkeypatch)
    sub, b = fold(f2, ["a"]), f2.parse("b")
    g1, g2 = z23.parse("xy"), z23.parse("yx")
    gc.collect()
    gc.disable()
    try:
        if search == "amalgam":
            assert amalgam_injectivity(sub, b, M=1, n_syllables=4).decided_by == "search"
        else:
            assert free_subgroup_witness(g1, g2, 2, 5)["decided_by"] == "search"
        assert gc.collect() < 50
    finally:
        gc.enable()


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


def _per_word_ping_pong(g1, g2, M, n):
    """(words visited, witness or None) of a depth-first search over the
    freely reduced words of 1..n letters in g1^M, g1^-M, g2^M, g2^-M, in
    that letter order, with one ``Word`` product per word."""
    letters = [g1**M, (g1**M).inverse(), g2**M, (g2**M).inverse()]
    words = 0

    def walk(prefix, prev, depth):
        nonlocal words
        for i, letter in enumerate(letters):
            if i == prev ^ 1:
                continue
            w = prefix * letter
            words += 1
            if w.is_identity:
                return (i,)
            found = walk(w, i, depth + 1) if depth + 1 < n else None
            if found:
                return (i,) + found
        return None

    witness = walk(g1.group.identity(), -1, 0)
    return words, witness


@pytest.mark.parametrize("group, g1, g2, M, n, fails", [
    ("free:2", "ab", "aB", 1, 6, False),
    ("free:2", "a", "b", 2, 5, False),
    ("product:2,3", "xy", "yx", 2, 5, False),
    ("product:2,3", "Yx", "xY", 1, 5, False),  # the identity below has one letter more
    ("product:2,3", "Yx", "xY", 1, 6, True),   # (Yx)^2 xY (Yx)^2 xY = 1, 6 letters
    ("product:2,3", "Yx", "xY", 1, 7, True),   # the same word, one level above the last
])
def test_free_witness_matches_a_per_word_search(group, g1, g2, M, n, fails):
    grp = MarkedGroup.from_descriptor(group)
    w1, w2 = grp.parse(g1), grp.parse(g2)
    words, witness = _per_word_ping_pong(w1, w2, M, n)
    assert (witness is not None) == fails
    try:
        rep = free_subgroup_witness(w1, w2, M, n)
    except CounterexampleFound as exc:
        assert exc.witness == witness
    else:
        assert witness is None
        assert rep["words_checked"] == words == 2 * (3 ** n - 1)


@st.composite
def _ping_pong_pairs(draw):
    """A group, F2, Z2*Z3 or Z2*Z4, and two words of infinite order.  In the
    free products both are x y^e ... x y^f, cyclically reduced through both
    factors, and such pairs often make identity words of 4 to 7 letters."""
    name = draw(st.sampled_from(["free:2", "product:2,3", "product:2,4"]))
    if name == "free:2":
        word = st.integers(1, 4).flatmap(oracles.reduced_words)
    else:
        powers = ["y", "Y"] + (["yy"] if name == "product:2,4" else [])
        word = st.lists(st.sampled_from(powers), min_size=1, max_size=2).map(
            lambda ys: "".join("x" + y for y in ys))
    return name, draw(word), draw(word)


@given(_ping_pong_pairs(), st.integers(1, 2), st.integers(3, 7))
@example(("product:2,4", "xy", "xY"), 1, 7)    # an identity of 6 letters, witness 0 0 3 0 3 1
@example(("product:2,4", "Yxyy", "Yx"), 1, 5)  # an identity of 4 letters, witness 0 3 0 3
@example(("product:2,3", "xy", "yx"), 1, 8)    # an identity of 8 letters
@example(("product:2,3", "Yx", "xY"), 1, 5)    # an identity of 6 letters, one past n
@settings(max_examples=150, deadline=None)
def test_free_witness_join_matches_a_per_word_search(pair, M, n):
    # verdict, words_checked and the first witness in search order, as the
    # per-word search gives them, wherever the precondition holds
    name, g1, g2 = pair
    group = MarkedGroup.from_descriptor(name)
    w1, w2 = group.parse(g1), group.parse(g2)
    try:
        rep, found = free_subgroup_witness(w1, w2, M, n), None
    except PreconditionFailed:
        return
    except CounterexampleFound as exc:
        rep, found = None, exc.witness
    words, witness = _per_word_ping_pong(w1, w2, M, n)
    assert found == witness
    if rep is not None:
        assert (rep["verdict"], rep["words_checked"]) == ("PASS", words)


def test_free_witness_decides_f2_by_the_commutator(f2, products):
    # [ab, aB] != 1 decides the 39,364 words of at most 9 letters; the
    # precondition, the powers and the commutator make 100 products (a walk
    # makes 13,218, one per word whose seam merges)
    rep = free_subgroup_witness(f2.parse("ab"), f2.parse("aB"), 1, 9)
    assert (rep["words_checked"], rep["decided_by"]) == (39364, "commutator")
    assert products[0] <= 1000


def test_free_witness_in_f2_has_no_word_budget(f2):
    rep = free_subgroup_witness(f2.parse("ab"), f2.parse("aB"), 1, 40)
    assert (rep["verdict"], rep["decided_by"]) == ("PASS", "commutator")
    assert rep["words_checked"] == 2 * (3 ** 40 - 1)


def test_free_witness_commutator_check_can_fail(f2, monkeypatch):
    # ab and abab commute, so the precondition refuses them; past it, the
    # commutator sends them to the walk, which finds the first identity
    monkeypatch.setattr(theorems, "PROJECTION_BOUND", math.inf)
    g1, g2 = f2.parse("ab"), f2.parse("abab")
    with pytest.raises(CounterexampleFound) as exc:
        free_subgroup_witness(g1, g2, 1, 4)
    assert exc.value.witness == _per_word_ping_pong(g1, g2, 1, 4)[1]


@pytest.mark.parametrize("n", [12, 40])
def test_free_witness_walk_over_budget_is_refused_before_any_product(z23, products, n):
    # 2 (3^12 - 1) = 1,062,880 words of at most 12 letters; n = 0 makes the
    # precondition's and the powers' products and walks no word
    g1, g2 = z23.parse("xy"), z23.parse("yx")
    free_subgroup_witness(g1, g2, 2, 0)
    before, products[0] = products[0], 0
    with pytest.raises(BudgetExceeded, match="more than 1000000 words"):
        free_subgroup_witness(g1, g2, 2, n)
    assert products[0] == before


def test_free_witness_walk_budget_counts_words_exactly(z23, products, monkeypatch):
    # 2 (3^5 - 1) = 484 words of at most 5 letters
    g1, g2 = z23.parse("xy"), z23.parse("yx")
    free_subgroup_witness(g1, g2, 2, 0)
    before = products[0]
    monkeypatch.setattr(theorems, "ELEMENT_CAP", 484)
    rep = free_subgroup_witness(g1, g2, 2, 5)
    assert (rep["words_checked"], rep["decided_by"]) == (484, "search")
    monkeypatch.setattr(theorems, "ELEMENT_CAP", 483)
    products[0] = 0
    with pytest.raises(BudgetExceeded, match="more than 483 words of at most 5 letters"):
        free_subgroup_witness(g1, g2, 2, 5)
    assert products[0] == before


def test_free_witness_same_axis_rejected(f2):
    with pytest.raises(PreconditionFailed):
        free_subgroup_witness(f2.parse("ab"), f2.parse("abab"), 1, 4)


# -- coarse quotient ----------------------------------------------------------------------

def test_coarse_quotient_cyclic(f2):
    sub = fold(f2, ["a"])
    sel = find_selector_power(f2.parse("b"), epsilon=0, theta=1, sample_radius=5)
    rep = coarse_quotient_check(sub, sel, 5)
    assert rep.verdict == "PASS"
    assert rep.theta_cq1 == 0  # same phi-coset forces equal basepoint image
    assert rep.theta_cq2 == sel.M  # |f(u)| = |g^M|
    assert all(ok for (_, _, _, ok) in rep.counting)


def test_coarse_quotient_trivial_pair(f2):
    sub = fold(f2, ["a"])
    sel = find_selector_power(f2.parse("b"), epsilon=0, theta=1, sample_radius=4)
    rep = coarse_quotient_check(sub, sel, 4)
    # u = v is in the same class with distance 0; theta_cq1 stays 0
    assert rep.theta_cq1 == 0


def test_coarse_quotient_diameters_take_linear_distance_calls(f2, monkeypatch):
    """H = <a, b> = F2 puts all of B(o, 7), 4,373 points, in one class, of
    C(4373, 2) = 9,559,378 pairs.  CQ1 reads its diameter from a farthest
    point in at most 2 |B(o, 7)| = 8,746 distance calls."""
    calls = [0]

    def counting(u, v):
        calls[0] += 1
        return distance(u, v)

    monkeypatch.setattr(theorems, "distance", counting)
    sel = selector(f2.parse("b"), 3, 1)
    rep = coarse_quotient_check(fold(f2, ["a", "b"]), sel, 7)
    assert (rep.verdict, rep.theta_cq1) == ("PASS", 20)
    assert calls[0] <= 2 * sum(oracles.free_ball(2, 7)[0]) == 8746


def test_coarse_quotient_holds_one_diameter_per_class(f2):
    """H = <a, b> puts all of B(o, 7), 4,373 points, in one class.  After
    the search has filled the selector's map, the check holds that class's
    diameter and its two ends, not its points: its traced peak stays under
    200 kB, where the member list of 4,373 words peaks near 0.97 MB."""
    sel = find_selector_power(f2.parse("b"), epsilon=0, theta=1, sample_radius=7)
    sub = fold(f2, ["a", "b"])
    tracemalloc.start()
    try:
        rep = coarse_quotient_check(sub, sel, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rep.verdict, rep.theta_cq1) == ("PASS", 20)
    assert peak < 200_000


F2, F3 = MarkedGroup.free(2), MarkedGroup.free(3)


@st.composite
def coarse_quotient_cases(draw):
    """A random subgroup of F2 at radius 1 to 5, or of F3 at 1 to 4; g a
    reduced word of length 1 to 3; a selector with M in 1..4 and a
    threshold in 0..3."""
    if draw(st.booleans()):
        group, gens, r = F2, draw(oracles.SUBGROUPS), draw(st.integers(1, 5))
    else:
        words = st.lists(st.sampled_from("abcABC"), min_size=1, max_size=4).map("".join)
        group, r = F3, draw(st.integers(1, 4))
        gens = draw(st.lists(words, min_size=1, max_size=3))
        assume(all(not F3.parse(w).is_identity for w in gens))
    g = group.parse(draw(st.lists(st.sampled_from("abAB"), min_size=1, max_size=3)
                         .map("".join)))
    assume(not g.is_identity)
    sel = selector(g, draw(st.integers(1, 4)), draw(st.integers(0, 3)))
    return fold(group, gens), sel, r


@given(coarse_quotient_cases())
@example((fold(F2, ["aa", "bb"]), selector(F2.parse("b"), 3, 1), 5))
@example((fold(F2, ["a", "b"]), selector(F2.parse("b"), 3, 1), 4))
@example((fold(F2, ["a"]), selector(F2.parse("a"), 1, 1), 2))
@settings(max_examples=40, deadline=None)
def test_coarse_quotient_cq1_matches_the_pair_scan(case):
    """The class diameters read from farthest points are those of the scan
    of every pair in each class."""
    sub, sel, r = case
    assert coarse_quotient_check(sub, sel, r).theta_cq1 == \
        oracles.cq1_by_pairs(sub, sel, r)


# -- report determinism ---------------------------------------------------------------------

def test_reports_are_deterministic():
    cfg = ExperimentConfig(group="free:2", subgroup=("a",), g0="ab")
    a = asdict(verify_growth_gap(cfg))
    b = asdict(verify_growth_gap(cfg))
    ja = json.loads(render_json(a))
    jb = json.loads(render_json(b))
    ja.pop("timestamp"), jb.pop("timestamp")
    assert json.dumps(ja, sort_keys=True) == json.dumps(jb, sort_keys=True)

