"""Coset counts, coset keys read off the core, and quotient growth.
Oracle: brute-force coset classification of ball elements via
membership in an independent string fold."""

import itertools
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from growthlab import MarkedGroup, ball_elements, schreier_growth, stallings_fold
from growthlab.errors import CrossCheckFailed
from growthlab.schreier import (SchreierAutomaton, coset_distance, coset_key,
                                coset_sphere_sizes)

from oracles import SUBGROUPS, closure_membership, free_ball, free_inverse, free_reduce


def fold(f2, words):
    return stallings_fold(f2, [f2.parse(w) for w in words])


def oracle_coset_counts(gens, radius):
    """|{Hu : |u| <= r}| by classifying ball elements with the closure oracle."""
    members = closure_membership(2, gens, 2 * radius + 2)

    def same_coset(u, v):
        return free_reduce(u + "".join(ch.swapcase() for ch in reversed(v))) in members or \
            free_reduce(u + "".join(ch.swapcase() for ch in reversed(v))) == ""

    from oracles import free_ball
    _, elements = free_ball(2, radius)
    by_len = sorted(elements, key=len)
    reps = []
    counts = []
    for r in range(radius + 1):
        for u in [w for w in by_len if len(w) == r]:
            if not any(same_coset(u, v) for v in reps):
                reps.append(u)
        counts.append(len(reps))
    return counts


def test_cyclic_subgroup_radius_one(f2):
    aut = SchreierAutomaton(fold(f2, ["a"]))
    aut.complete_to(1)
    assert aut.level_sizes == [1, 2]  # {H}, {Hb, HB}


def test_counts_match_coset_oracle(f2):
    for gens in (["a"], ["a", "baB"], ["aa", "bb"]):
        aut = SchreierAutomaton(fold(f2, gens))
        aut.complete_to(5)
        assert list(itertools.accumulate(aut.level_sizes)) == oracle_coset_counts(gens, 5)


def test_finite_index_single_coset(f2):
    sg = schreier_growth(fold(f2, ["a", "b"]), 8)
    assert sg.counts.cumulative == (1,) * 9
    assert sg.rate.rate == 0.0


def test_quotient_rate_cyclic(f2):
    sg = schreier_growth(fold(f2, ["a"]), 14)
    assert sg.rate.rate == math.log(3)
    assert (sg.rate.method, sg.rate.window, sg.rate.error_bound) == ("closed_form", (1, 14), 0.0)


def test_quotient_rate_rank_two_subgroup(f2):
    # eta = 1: the identity is checked for 1 < n < 14
    sg = schreier_growth(fold(f2, ["a", "baB"]), 14)
    assert sg.rate.rate == math.log(3)
    assert sg.rate.window == (2, 14)


def test_coset_distance_examples(f2):
    core = fold(f2, ["a"])
    for text, expected in [("1", 0), ("a", 0), ("b", 1), ("ba", 2), ("ab", 1), ("bb", 2)]:
        assert coset_distance(core, f2.parse(text)) == expected


def test_coset_distance_is_orbit_distance(f2):
    # d(w, H o) = min |h^-1 w| over h in H, brute-forced over the closure
    gens = ["a", "baB"]
    core = fold(f2, gens)
    members = closure_membership(2, gens, 10)
    for w in ball_elements(f2, 4):
        brute = min(len(free_reduce("".join(ch.swapcase() for ch in reversed(h)) + str(w).replace("1", "")))
                    for h in members)
        assert coset_distance(core, w) == brute


@given(SUBGROUPS)
@example(["baaaa", "aabaaaa"])  # H = <aa, b> holds AAbbb, a product of long generators
@settings(max_examples=40, deadline=None)
def test_coset_keys_match_closure_oracle(gens):
    """Ball words u, v of radius 3 share a key iff u v^-1 lies in H, and
    the key's distance is the shortest length in the coset."""
    f2 = MarkedGroup.free(2)
    core = fold(f2, gens)
    members = closure_membership(2, gens, 6)  # |u v^-1| <= 6
    words = sorted(free_ball(2, 3)[1], key=lambda w: (len(w), w))
    keys = {u: coset_key(core, f2.parse(u)) for u in words}
    for u, v in itertools.combinations(words, 2):
        assert (keys[u] == keys[v]) == (free_reduce(u + free_inverse(v)) in members), (u, v)
    for u in words:
        shortest = min(len(v) for v in words if free_reduce(u + free_inverse(v)) in members)
        assert coset_distance(core, f2.parse(u)) == shortest, u


@pytest.mark.parametrize("rank, gens, radius", [
    (2, ["a"], 12), (2, ["a", "baB"], 12), (2, ["aa", "ab", "ba"], 12), (3, ["ab", "cA"], 9)])
def test_coset_formula_equals_bfs(rank, gens, radius):
    group = MarkedGroup.free(rank)
    core = stallings_fold(group, [group.parse(w) for w in gens])
    aut = SchreierAutomaton(core)
    aut.complete_to(radius)
    assert coset_sphere_sizes(core, radius) == aut.level_sizes[:radius + 1]


@given(st.one_of(SUBGROUPS.map(lambda gens: (2, gens)),
                 st.sampled_from([(3, ["ab", "cA"]), (3, ["BBB", "aBCC"])])),
       st.integers(0, 5))
@settings(max_examples=60, deadline=None)
def test_coset_bfs_matches_closed_form(subgroup, radius):
    """The lazy coset BFS, completed in two steps, has the closed form's
    sphere sizes, the same left-coset levels, and one state per core
    vertex plus one per minted coset within the radius."""
    rank, gens = subgroup
    group = MarkedGroup.free(rank)
    core = stallings_fold(group, [group.parse(w) for w in gens])
    aut = SchreierAutomaton(core)
    aut.complete_to(radius // 2)
    aut.complete_to(radius)
    sizes = coset_sphere_sizes(core, radius)
    assert aut.level_sizes == sizes
    assert aut.mirror_level_sizes(radius) == aut.level_sizes[:radius + 1]
    core_within = sum(1 for d in core.depths.values() if d <= radius)
    assert aut.n_states == core.n_vertices + sum(sizes) - core_within


def test_coset_formula_large_radius(f2):
    # <a>: 1, 2, then the two hanging ternary trees at the base
    sizes = coset_sphere_sizes(fold(f2, ["a"]), 60)
    assert sizes[:3] == [1, 2, 6]
    assert all(sizes[n] == 2 * 3 ** (n - 1) for n in range(1, 61))


def test_cross_check_failure_raises(f2, monkeypatch):
    import growthlab.schreier as schreier
    monkeypatch.setattr(schreier, "coset_sphere_sizes",
                        lambda core, r: [1] + [5] * r)
    with pytest.raises(CrossCheckFailed):
        schreier_growth(fold(f2, ["a"]), 6)


def test_rate_identity_failure_raises(f2, monkeypatch):
    """Counts that pass the BFS cross-check but break |S_(n+1)| = 3 |S_n|
    past eta raise instead of reporting log 3."""
    import growthlab.schreier as schreier
    exact = schreier.coset_sphere_sizes
    monkeypatch.setattr(schreier, "coset_sphere_sizes",
                        lambda core, r: exact(core, r)[:-1] + [exact(core, r)[-1] + 1])
    with pytest.raises(CrossCheckFailed):
        schreier_growth(fold(f2, ["a"]), 8)
