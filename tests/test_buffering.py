"""Buffering sequences, the measured Behrstock constant of a buffering
triple, and chain separation.  Oracles: direct evaluation on hand-built
tree instances and a hand-proved gate argument for the shipped triple."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growthlab import Axis, MarkedGroup, ProjectionMap, stallings_fold
from growthlab.buffering import (BufferingParams, BufferingSequence, behrstock_theta,
                                 build_axis_chain, chain_separation, check_buffering)
from growthlab.errors import (EmptyInteriorSet, InvalidAlternatingWord,
                              PreconditionFailed)


def fold(group, words):
    return stallings_fold(group, [group.parse(w) for w in words])


@pytest.fixture(scope="module")
def triple():
    """A = axis(a), Y = {b}, B = axis(bab^-1) = b . axis(a)."""
    f2 = MarkedGroup.free(2)
    pm_a = ProjectionMap(Axis(f2.parse("a")))
    pm_b = ProjectionMap(Axis(f2.parse("baB")))
    return f2, pm_a, [f2.parse("b")], pm_b


def test_triple_is_buffering(triple):
    f2, pm_a, y, pm_b = triple
    seq = BufferingSequence(y_sets=[[], y, []], projections=[pm_a, pm_b])
    verdict = check_buffering(seq, BufferingParams(0, 1, 0))
    assert verdict.passed
    assert verdict.bs1 == (0,)   # the axes project to single gates
    assert verdict.bs2 == (0, 0)


def test_behrstock_theta_zero_and_stable(triple):
    # hand argument: any x either has no a-power prefix (projects to the
    # origin on A, so d_A(x, Y) = 0 via pi_A(b) = 1) or starts with a-power
    # (then pi_B(x) = b = pi_B(Y), so d_B(x, Y) = 0); theta = 0 at every radius
    f2, pm_a, y, pm_b = triple
    params = BufferingParams(0, 1, 0)
    t4 = behrstock_theta(pm_a, y, pm_b, 4, params)
    t5 = behrstock_theta(pm_a, y, pm_b, 5, params)
    assert t4 == t5 == 0
    assert t5 <= t4  # non-increasing with radius on tree instances


def test_behrstock_requires_buffering_triple(f2):
    pm_a = ProjectionMap(Axis(f2.parse("a")))
    pm_b = ProjectionMap(Axis(f2.parse("ab")))
    # Y far from both axes violates BS3
    with pytest.raises(PreconditionFailed):
        behrstock_theta(pm_a, [f2.parse("bbbb")], pm_b, 2, BufferingParams(0, 1, 0))


def test_bs4_violation_reported(f2):
    pm_a = ProjectionMap(Axis(f2.parse("a")))
    pm_b = ProjectionMap(Axis(f2.parse("baB")))
    seq = BufferingSequence(y_sets=[[f2.parse("b")], [f2.parse("b")], []],
                            projections=[pm_a, pm_b])
    verdict = check_buffering(seq, BufferingParams(0, 1, 1))
    assert not verdict.passed
    assert verdict.failed_condition == "BS4"
    assert verdict.witness == (1, 0)


@pytest.mark.parametrize("epsilon, passed", [(1, False), (2, True)])
def test_bs2_reads_the_y_set_after_the_axis(f2, epsilon, passed):
    # Y_0 = {b} projects to the origin of A = axis(a) and Y_1 = {1, a, aa}
    # spans positions 0..2, so BS2 is 2, set by Y_1 alone; BS2 = epsilon passes
    pm = ProjectionMap(Axis(f2.parse("a")))
    seq = BufferingSequence(y_sets=[[f2.parse("b")], [f2.parse(w) for w in ("", "a", "aa")]],
                            projections=[pm])
    verdict = check_buffering(seq, BufferingParams(0, epsilon, 0))
    assert verdict.bs2 == (2,)
    assert verdict.passed == passed
    if not passed:
        assert (verdict.failed_condition, verdict.witness) == ("BS2", (1, 2))


def test_empty_interior_rejected(f2):
    pm_a = ProjectionMap(Axis(f2.parse("a")))
    pm_b = ProjectionMap(Axis(f2.parse("baB")))
    with pytest.raises(EmptyInteriorSet):
        BufferingSequence(y_sets=[[f2.identity()], [], [f2.identity()]],
                          projections=[pm_a, pm_b])


@given(st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=4),
       st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3))
@settings(max_examples=60, deadline=None)
def test_monotone_in_epsilon_antitone_in_l(eps, eps_extra, L_hi, L_drop):
    """pass(eps, L) implies pass(eps' >= eps, L' <= L)."""
    f2 = MarkedGroup.free(2)
    sub = stallings_fold(f2, [f2.parse("a")])
    chain = build_axis_chain(sub, f2.parse("b"), [f2.parse("a"), f2.parse("bbb")], 2)
    base = check_buffering(chain, BufferingParams(0, eps, L_hi))
    wider = check_buffering(chain, BufferingParams(0, eps + eps_extra, max(0, L_hi - L_drop)))
    if base.passed:
        assert wider.passed


# -- chains -------------------------------------------------------------------

def test_build_chain_three_terms(f2):
    sub = fold(f2, ["a"])
    chain = build_axis_chain(sub, f2.parse("b"), [f2.parse("a"), f2.parse("bbb")], 2)
    assert chain.n == 1
    assert len(chain.y_sets) == 2  # Y_0, A_1, Y_1: a three-term sequence
    verdict = check_buffering(chain, BufferingParams(0, 2, 3))
    assert verdict.passed
    assert verdict.bs4 == (3,)


def test_chain_separation_base_case(f2):
    # n = 1 reduces to BS4: gap L > theta passes
    sub = fold(f2, ["a"])
    chain = build_axis_chain(sub, f2.parse("b"), [f2.parse("a"), f2.parse("bbb")], 2)
    rep = chain_separation(chain, BufferingParams(0, 2, 3), theta=2)
    assert rep.passed and rep.margins == (1,)


def test_chain_separation_longer_chain(f2):
    sub = fold(f2, ["a"])
    word = [f2.parse(w) for w in ("a", "bbb", "aa", "BBB", "A", "bbb")]
    chain = build_axis_chain(sub, f2.parse("b"), word, 2)
    verdict = check_buffering(chain, BufferingParams(0, 2, 3))
    assert verdict.passed
    rep = chain_separation(chain, BufferingParams(0, 2, 3), theta=2)
    assert rep.passed
    assert all(m > 0 for m in rep.margins)
    assert len(rep.gaps) == 3


def test_chain_separation_inapplicable_small_l(f2):
    sub = fold(f2, ["a"])
    chain = build_axis_chain(sub, f2.parse("b"), [f2.parse("a"), f2.parse("bbb")], 2)
    with pytest.raises(PreconditionFailed):
        chain_separation(chain, BufferingParams(0, 2, 100), theta=2)


def test_chain_rejects_bad_letters(f2):
    sub = fold(f2, ["a"])
    g = f2.parse("b")
    with pytest.raises(InvalidAlternatingWord):
        build_axis_chain(sub, g, [], 2)
    with pytest.raises(InvalidAlternatingWord):
        build_axis_chain(sub, g, [f2.parse("a")], 2)  # odd length
    with pytest.raises(InvalidAlternatingWord):
        build_axis_chain(sub, g, [f2.parse("b"), f2.parse("bbb")], 2)  # h not in H
    with pytest.raises(InvalidAlternatingWord):
        build_axis_chain(sub, g, [f2.parse("a"), f2.parse("ab")], 2)  # k not a power


def test_chain_accepts_powers_of_a_core_on_one_generator(f2):
    """bab starts and ends on b; (bab)^2 and (bab)^-1 are powers of it."""
    sub = fold(f2, ["a"])
    word = [f2.parse("a"), f2.parse("babbab"), f2.parse("aa"), f2.parse("BAB")]
    assert len(build_axis_chain(sub, f2.parse("bab"), word, 2).projections) == 2


def test_chain_threshold_grid(f2):
    """Grid-search the least L whose chains separate with margin, and check
    the corollary conclusion on every passing chain."""
    sub = fold(f2, ["a"])
    theta = 1
    passing_l = None
    for L in range(0, 5):
        word = [f2.parse("a"), f2.parse("b") ** max(L, 1)]
        chain = build_axis_chain(sub, f2.parse("b"), word, 2)
        verdict = check_buffering(chain, BufferingParams(0, 2, L))
        if not verdict.passed:
            continue
        rep = chain_separation(chain, BufferingParams(0, 2, L), theta=theta)
        if rep.passed:
            passing_l = L
            break
    assert passing_l == 2  # empirical threshold: L must exceed theta
