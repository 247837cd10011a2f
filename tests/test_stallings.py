"""Stallings core graphs: folding, membership, index, relative growth.
Oracles: fold-by-hand graphs, closure-based membership, brute-force
membership filters, numpy spectral radii."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growthlab import MarkedGroup, ball_elements, relative_growth, stallings_fold
from growthlab.balls import sphere_counts
from growthlab.errors import NotFreeGroup, PowerIterationDiverged
from growthlab.stallings import power_iteration

from oracles import canonical_form, closure_membership, free_reduce, spectral_radius


def fold(f2, words):
    return stallings_fold(f2, [f2.parse(w) for w in words])


# -- folding -----------------------------------------------------------------

def test_fold_single_loop(f2):
    core = fold(f2, ["a"])
    assert canonical_form(core) == (1, ((0, 0, 0),))


def test_fold_by_hand_two_vertex(f2):
    # <a, bab^-1>: a-loop at base, b-edge to v1, a-loop at v1
    core = fold(f2, ["a", "baB"])
    assert canonical_form(core) == (2, ((0, 0, 0), (0, 1, 1), (1, 0, 1)))


def test_fold_index_two_subgroup(f2):
    core = fold(f2, ["aa", "b", "abA"])
    assert core.index() == 2
    # membership oracle on the ball: the even-a-count criterion is implicit;
    # compare against padded closure membership
    members = closure_membership(2, ["aa", "b", "abA"], 4)
    for w in ball_elements(f2, 4):
        assert core.contains(w) == ((free_reduce(str(w)) if not w.is_identity else "") in members)


def test_not_free_group(z23):
    with pytest.raises(NotFreeGroup):
        stallings_fold(z23, [z23.parse("x")])


def test_fold_order_independence(f2):
    gens = ["a", "baB", "bbabb", "aBa"]
    reference = canonical_form(fold(f2, gens))
    rng = random.Random(7)
    for _ in range(12):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert canonical_form(fold(f2, shuffled)) == reference
    # idempotent under repetition and inverses
    assert canonical_form(fold(f2, gens + gens)) == reference
    assert canonical_form(fold(f2, [g.upper()[::-1].swapcase().swapcase() for g in gens] + gens)) == reference


@given(st.lists(st.lists(st.sampled_from("abAB"), min_size=1, max_size=5).map("".join),
                min_size=1, max_size=3))
@settings(max_examples=25, deadline=None)
def test_fold_membership_against_closure(gens):
    f2 = MarkedGroup.free(2)
    core = stallings_fold(f2, [f2.parse(g) for g in gens])
    members = closure_membership(2, gens, 3, pad=6)
    for w in ball_elements(f2, 3):
        key = free_reduce(str(w)) if not w.is_identity else ""
        assert core.contains(w) == (key in members)


# -- contains / index ----------------------------------------------------------

def test_contains_examples(f2):
    core = fold(f2, ["a", "baB"])
    assert core.contains(f2.identity())
    assert not core.contains(f2.parse("b"))
    assert core.contains(f2.parse("baBa"))


def test_index_examples(f2):
    assert fold(f2, ["a", "b"]).index() == 1
    assert fold(f2, ["a"]).index() == math.inf


# -- relative growth -------------------------------------------------------------

def test_cyclic_subgroup_counts(f2):
    rg = relative_growth(fold(f2, ["a"]), 8)
    assert rg.counts.sphere_sizes == (1, 2, 2, 2, 2, 2, 2, 2, 2)
    assert rg.rate == pytest.approx(0.0, abs=1e-12)


def test_counts_match_membership_filter(f2):
    core = fold(f2, ["a", "baB"])
    rg = relative_growth(core, 10)
    brute = [0] * 11
    for w in ball_elements(f2, 10):
        if core.contains(w):
            brute[w.length] += 1
    assert rg.counts.sphere_sizes == tuple(brute)


def test_rose_rate_is_log3(f2):
    rg = relative_growth(fold(f2, ["a", "b"]), 10)
    assert abs(rg.spectral.rate - math.log(3)) < 1e-9


def test_spectral_matches_numpy_eigenvalues(f2):
    core = fold(f2, ["a", "baB"])
    rg = relative_growth(core, 10)
    rho = spectral_radius(core.transfer_matrix())
    assert abs(rg.spectral.rate - math.log(rho)) < 1e-8


def test_enumeration_matches_counts(f2):
    core = fold(f2, ["a", "baB"])
    rg = relative_growth(core, 7)
    elements = list(core.elements_in_ball(7))
    assert len(elements) == len(set(elements))
    by_len = [0] * 8
    for w in elements:
        by_len[w.length] += 1
        assert core.contains(w)
    assert tuple(by_len) == rg.counts.sphere_sizes


def test_power_iteration_periodic_matrix_raises():
    # eigenvalues +-sqrt(2): the Rayleigh quotient oscillates forever
    T = np.array([[0.0, 2.0], [1.0, 0.0]])
    with pytest.raises(PowerIterationDiverged):
        power_iteration(T, max_iter=2000)


def test_power_iteration_identity():
    rho, _ = power_iteration(np.eye(4))
    assert rho == pytest.approx(1.0, abs=1e-12)


def test_counts_exact_past_int64(f2):
    # |S(n)| = 4 * 3^(n-1) passes 2^63 at n = 40
    counts = fold(f2, ["a", "b"]).counts_by_length(45)
    assert counts == sphere_counts(f2, 45)
    assert counts[40] == 4 * 3**39


def test_periodic_rate_a16_b16(f2):
    # every element has length divisible by 16: the matrix has period 16
    core = fold(f2, ["a" * 16, "b" * 16])
    assert core.perron[1] == 16
    rg = relative_growth(core, 14)
    assert rg.counts.sphere_sizes == (1,) + (0,) * 14
    assert rg.rate == pytest.approx(math.log(3) / 16, abs=1e-12)


def nonbacktracking_matrix(core):
    """Hashimoto matrix built from the edge list, independently of the core's own."""
    halves = []
    for u, g, v in core.edges:
        halves += [(u, v, (u, g, v), +1), (v, u, (u, g, v), -1)]
    m = np.zeros((len(halves), len(halves)))
    for i, (_, head, edge, sign) in enumerate(halves):
        for j, (tail, _, edge2, sign2) in enumerate(halves):
            if tail == head and not (edge2 == edge and sign2 == -sign):
                m[i, j] = 1.0
    return m


@pytest.mark.parametrize("gens", [["aa", "bb"], ["ab", "ba"],
                                  ["babbaaBa", "babaBBAA", "bbaaabba"],
                                  ["ABBABA", "abABaB", "ABBBAb"]])
def test_rate_matches_numpy_spectral_radius(f2, gens):
    core = fold(f2, gens)
    rg = relative_growth(core, 12)
    assert rg.rate == pytest.approx(math.log(spectral_radius(nonbacktracking_matrix(core))),
                                    abs=1e-9)
