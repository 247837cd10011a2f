"""Acceptance criteria, one test per criterion.

Run with ``pytest -v -s tests/test_acceptance.py`` to get one line per
criterion (the -v test status is the pass/fail line; -s shows the measured
numbers).  Every tolerance is pinned here, none deferred.
"""

import itertools
import math
import time

import pytest

from growthlab import (Axis, MarkedGroup, ProjectionMap, ball, ball_elements,
                       growth_rate, relative_growth, schreier_growth,
                       stallings_fold)
from growthlab.audits import constriction_audit, elementary_properties_audit
from growthlab.buffering import (BufferingParams, BufferingSequence, behrstock_theta,
                                 build_axis_chain, chain_separation, check_buffering)
from growthlab.closure import (elementary_closure, find_selector_power,
                               find_transversal_conjugate, geometric_separation_power)
from growthlab.theorems import amalgam_injectivity, coarse_quotient_check

LOG3 = math.log(3)


def report(name: str, elapsed: float, detail: str):
    print(f"\nACCEPTANCE {name}: PASS ({elapsed:.1f}s) {detail}")


@pytest.fixture(scope="module")
def f2():
    return MarkedGroup.free(2)


def test_criterion_01_omega_g_f2(f2):
    """omega_G(F2) = log 3 via bfs_fit on [8, 12], within 1e-3, under 10 s."""
    t0 = time.perf_counter()
    counts = ball(f2, 12)
    # oracle: exact sphere sizes 4 * 3^(r-1)
    assert counts.sphere_sizes == tuple([1] + [4 * 3 ** (r - 1) for r in range(1, 13)])
    est = growth_rate(counts, window=(8, 12))
    err = abs(est.rate - LOG3)
    elapsed = time.perf_counter() - t0
    assert err < 1e-3
    assert elapsed < 10.0
    report("1 omega_G(F2)", elapsed, f"|rate - log 3| = {err:.2e} < 1e-3")


def test_criterion_02_growth_gap_instance(f2):
    """H = <a, bab^-1>: transfer counts match the membership filter exactly
    for r <= 10 and omega_H < log 3 - 0.1, under 30 s."""
    t0 = time.perf_counter()
    core = stallings_fold(f2, [f2.parse("a"), f2.parse("baB")])
    rg = relative_growth(core, 10)
    brute = [0] * 11
    for w in ball_elements(f2, 10):
        if core.contains(w):
            brute[w.length] += 1
    assert rg.counts.sphere_sizes == tuple(brute)
    omega_h = rg.spectral.rate
    assert omega_h < LOG3 - 0.1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report("2 growth gap", elapsed,
           f"counts exact to r=10; omega_H = {omega_h:.4f} < log 3 - 0.1")


def test_criterion_03_quotient_growth_instance(f2):
    """H = <a>: coset counts to r = 14 give a rate within 0.05 of log 3,
    under 60 s."""
    t0 = time.perf_counter()
    core = stallings_fold(f2, [f2.parse("a")])
    sg = schreier_growth(core, 14)
    err = abs(sg.rate.rate - LOG3)
    assert err <= 0.05
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report("3 quotient growth", elapsed,
           f"|omega_quotient - log 3| = {err:.2e} <= 0.05")


def test_criterion_04_tree_constriction(f2):
    """Every tested F2 axis is 0-constricting over exhaustive B(o, 5) pairs."""
    t0 = time.perf_counter()
    deltas = {}
    for text in ("a", "ab", "baB"):
        rep = constriction_audit(ProjectionMap(Axis(f2.parse(text))), 5)
        assert rep.delta_cs1 == 0 and rep.delta_cs2 == 0
        deltas[text] = rep.delta
    elapsed = time.perf_counter() - t0
    report("4 tree constriction", elapsed,
           f"delta_cs1 = delta_cs2 = 0 for axes {sorted(deltas)}")


def test_criterion_05_elementary_properties(f2):
    """Properties (1), (3) exact with theta = 0; (4), (5) finite and
    non-increasing from r = 4 to r = 5."""
    t0 = time.perf_counter()
    pm_a = ProjectionMap(Axis(f2.parse("a")))
    pm_b = ProjectionMap(Axis(f2.parse("baB")))
    t4 = elementary_properties_audit(pm_a, pm_b, 4)
    t5 = elementary_properties_audit(pm_a, pm_b, 5)
    assert t4.theta_nearest_point == t5.theta_nearest_point == 0
    assert t4.theta_lipschitz == t5.theta_lipschitz == 0
    assert t5.theta_intersection_image <= t4.theta_intersection_image < math.inf
    assert t5.theta_behrstock <= t4.theta_behrstock < math.inf
    elapsed = time.perf_counter() - t0
    report("5 elementary properties", elapsed,
           f"(1)=(3)=0 exact; (4): {t4.theta_intersection_image}->{t5.theta_intersection_image}, "
           f"(5): {t4.theta_behrstock}->{t5.theta_behrstock} non-increasing")


def test_criterion_06_closure_correctness(f2):
    """E(ab) = <ab> and E(a^2) = <a> within radius 6; conjugation identities
    re-verified; E+ index in {1, 2}."""
    t0 = time.perf_counter()
    d1 = elementary_closure(f2.parse("ab"), 6)
    oracle1 = {w for w in (f2.parse("ab") ** k for k in range(-3, 4)) if w.length <= 6}
    assert set(d1.elements) == oracle1
    d2 = elementary_closure(f2.parse("aa"), 6)
    oracle2 = {f2.parse("a") ** k for k in range(-6, 7)}
    assert set(d2.elements) == oracle2
    for d in (d1, d2):
        assert d.verify()  # u g^M u^-1 in {g^M, g^-M} by plain word arithmetic
        assert d.E_plus_index in (1, 2)
    assert d2.index_over_cyclic == 2
    elapsed = time.perf_counter() - t0
    report("6 closures", elapsed,
           f"E(ab) = <ab>, E(a^2) = <a>; identities re-verified; E+ indexes "
           f"{(d1.E_plus_index, d2.E_plus_index)}")


def test_criterion_07_amalgam_injectivity(f2):
    """Alternating words map to nontrivial elements: H = <a>, g = b at
    6 syllables; H = <a, bab^-1> with a found transversal conjugate at 4."""
    t0 = time.perf_counter()
    sub_a = stallings_fold(f2, [f2.parse("a")])
    rep1 = amalgam_injectivity(sub_a, f2.parse("b"), M=1, n_syllables=6, letter_cap=4)
    assert rep1.verdict == "PASS"
    assert rep1.words_checked == 2 * sum(8 ** d for d in range(1, 7))

    sub2 = stallings_fold(f2, [f2.parse("a"), f2.parse("baB")])
    trans = find_transversal_conjugate(sub2, f2.parse("b"), 2, theta=1, orbit_radius=5)
    g = f2.parse("b").conjugated_by(trans.k)
    m = geometric_separation_power(sub2, g, epsilon=trans.diameter + 1, theta=2)["M"]
    rep2 = amalgam_injectivity(sub2, g, M=m, n_syllables=4, letter_cap=4)
    assert rep2.verdict == "PASS"
    elapsed = time.perf_counter() - t0
    report("7 amalgam injectivity", elapsed,
           f"{rep1.words_checked} + {rep2.words_checked} words, zero counterexamples "
           f"(k = {trans.k}, M = {m})")


def test_criterion_08_buffering_machinery(f2):
    """Chains from build_axis_chain pass check_buffering with strictly
    positive separation margins; the projection alternative holds over all
    of B(o, 5) on the shipped triple."""
    t0 = time.perf_counter()
    sub = stallings_fold(f2, [f2.parse("a")])
    g = f2.parse("b")
    for word_texts in (("a", "bbb"), ("a", "bbb", "aa", "BBB"),
                       ("a", "bb", "aaa", "bb", "A", "bb")):
        word = [f2.parse(w) for w in word_texts]
        L = min(w.length for i, w in enumerate(word) if i % 2 == 1)
        chain = build_axis_chain(sub, g, word, 2)
        params = BufferingParams(0, 2, L)
        verdict = check_buffering(chain, params)
        assert verdict.passed, verdict
        rep = chain_separation(chain, params, theta=L - 1)
        assert rep.passed and all(m > 0 for m in rep.margins)

    pm_a = ProjectionMap(Axis(f2.parse("a")))
    pm_b = ProjectionMap(Axis(f2.parse("baB")))
    theta = behrstock_theta(pm_a, [f2.parse("b")], pm_b, 5, BufferingParams(0, 1, 0))
    assert theta == 0
    elapsed = time.perf_counter() - t0
    report("8 buffering", elapsed,
           f"three chains separate with positive margins; triple theta = {theta} on B(o,5)")


def test_criterion_09_coarse_quotient(f2):
    """Selector-built phi passes CQ1/CQ2 exhaustively on B(o, 5) for
    H = <a>, g = b, and |B(o,r)| <= kappa |L(B(o, r + theta))| at r = 3, 4, 5
    with kappa = |B(o, 3 theta)|."""
    t0 = time.perf_counter()
    sub = stallings_fold(f2, [f2.parse("a")])
    sel = find_selector_power(f2.parse("b"), epsilon=0, theta=1, sample_radius=5)
    rep = coarse_quotient_check(sub, sel, 5)
    assert [r for r, _, _, _ in rep.counting] == [3, 4, 5]
    assert rep.verdict == "PASS"
    assert all(ok for (_, _, _, ok) in rep.counting)
    elapsed = time.perf_counter() - t0
    report("9 coarse quotient", elapsed,
           f"CQ1/CQ2 exhaustive, theta = {rep.theta}, kappa = {rep.kappa}, "
           f"counting holds at r = 3, 4, 5")


def test_criterion_10_property_suite_exists():
    """Module invariants live in executable tests; the suite stays small
    enough for the five-minute budget (checked per-criterion above; the
    overall wall time is reported by the pytest run itself)."""
    t0 = time.perf_counter()
    import pathlib
    here = pathlib.Path(__file__).parent
    expected = [
        "test_words.py", "test_balls.py", "test_stallings.py", "test_schreier.py",
        "test_series.py", "test_axes.py", "test_audits.py", "test_buffering.py",
        "test_closure.py", "test_theorems.py", "test_cli.py",
    ]
    for name in expected:
        assert (here / name).exists(), f"missing property module {name}"
    elapsed = time.perf_counter() - t0
    report("10 property suite", elapsed, f"{len(expected)} invariant modules present")
