"""Ball counting, enumeration, and growth-rate estimation.
Oracles: brute-force string BFS, the PSL(2,Z) matrix model, numpy
eigenvalues of the syllable transfer matrix."""

import math

import numpy as np
import pytest

from growthlab import BallCounts, MarkedGroup, ball, ball_elements, growth_rate
from growthlab.balls import sphere_counts
from growthlab.errors import BudgetExceeded, WindowTooSmall

from oracles import PslCayley, free_ball, spectral_radius, syllable_transfer_z2z3


def test_f2_r0(f2):
    counts = ball(f2, 0)
    assert counts.cumulative == (1,)


def test_f2_r2_exact(f2):
    counts = ball(f2, 2)
    assert counts.sphere_sizes == (1, 4, 12)
    assert counts.cumulative[-1] == 17


def test_f2_brute_force_oracle(f2):
    spheres, _ = free_ball(2, 6)
    assert ball(f2, 6).sphere_sizes == tuple(spheres)


def test_f3_brute_force_oracle():
    f3 = MarkedGroup.free(3)
    spheres, _ = free_ball(3, 4)
    assert ball(f3, 4).sphere_sizes == tuple(spheres)


def test_z23_matches_psl_oracle(z23):
    oracle = PslCayley(8)
    assert ball(z23, 8).sphere_sizes == tuple(oracle.spheres)


def test_z23_r2(z23):
    assert ball(z23, 2).sphere_sizes == (1, 3, 4)


def test_z42_brute(z42):
    # string-rewriting oracle for an even factor with a genuine tie arc
    from oracles import ProductCayley
    oracle = ProductCayley({"x": 4, "y": 2}, 6)
    assert ball(z42, 6).sphere_sizes == tuple(oracle.spheres)


def test_cumulative_strictly_increasing(f2, z23):
    for group in (f2, z23):
        c = ball(group, 9).cumulative
        assert all(b > a for a, b in zip(c, c[1:]))


def test_budget_cap(f2):
    with pytest.raises(BudgetExceeded):
        ball(f2, 10, max_elements=100)


def test_enumeration_equals_counts(f2, z23):
    for group in (f2, z23):
        counts = ball(group, 6)
        elements = list(ball_elements(group, 6))
        assert len(elements) == len(set(elements)) == counts.cumulative[-1]
        by_len = [0] * 7
        for w in elements:
            by_len[w.length] += 1
        assert tuple(by_len) == counts.sphere_sizes


def test_enumeration_equals_brute_force_set(f2):
    _, oracle_set = free_ball(2, 6)
    ours = {str(w) if not w.is_identity else "" for w in ball_elements(f2, 6)}
    assert ours == oracle_set


def test_enumeration_budget(f2):
    with pytest.raises(BudgetExceeded):
        list(ball_elements(f2, 8, max_elements=50))


def test_work_split_by_first_letter(f2):
    whole = set(ball_elements(f2, 4))
    parts = [set(ball_elements(f2, 4, first_gen=i)) for i in range(2)]
    assert parts[0] & parts[1] == set()
    assert parts[0] | parts[1] | {f2.identity()} == whole


# -- growth rates -----------------------------------------------------------

def test_f2_rate_exact(f2):
    # balls 2 * 3^r - 1: past r = 36 the -1 is below float resolution, so
    # the log-slope fit over radii 36..40 is log 3 to machine precision
    est = growth_rate(ball(f2, 40, max_elements=None))
    assert est.window == (36, 40)
    assert abs(est.rate - math.log(3)) < 1e-12
    assert est.error_bound < 1e-12


def test_f2_rate_bfs_fit(f2):
    est = growth_rate(ball(f2, 12), window=(8, 12))
    assert abs(est.rate - math.log(3)) < 1e-3
    assert est.error_bound < 1e-3


def test_trivial_rate():
    # the trivial subgroup's balls are all {1}: slope 0, no residual
    est = growth_rate(BallCounts.from_spheres([1] + [0] * 10))
    assert est.rate == 0.0
    assert est.error_bound == 0.0


def test_z23_rate_against_transfer_oracle(z23):
    rho = spectral_radius(syllable_transfer_z2z3())
    # spheres double every two radii; at radius 40 the fit over the last
    # five radii is within 1e-3 of log rho
    est = growth_rate(ball(z23, 40, max_elements=None))
    assert abs(est.rate - math.log(rho)) < 1e-3


def test_window_too_small(f2):
    with pytest.raises(WindowTooSmall):
        growth_rate(ball(f2, 5), window=(4, 5))


def test_sphere_recurrences_hold(z23):
    s = sphere_counts(z23, 12)
    assert all(s[n] == 2 * s[n - 2] for n in range(3, 13))
    f2 = MarkedGroup.free(2)
    t = sphere_counts(f2, 10)
    assert all(t[n] == 3 * t[n - 1] for n in range(2, 11))
