"""Poincare series partial sums and divergence verdicts.
Oracles: geometric closed forms and direct evaluation."""

import math

import pytest

from growthlab import MarkedGroup, divergence_diagnostic, poincare_partial, relative_growth, stallings_fold


def fold(f2, words):
    return stallings_fold(f2, [f2.parse(w) for w in words])


def test_cyclic_s0_partial_sums(f2):
    ev = poincare_partial(fold(f2, ["a"]), 0.0, 6)
    assert ev.partial_sums == (1.0, 3.0, 5.0, 7.0, 9.0, 11.0, 13.0)


def test_cyclic_s_half_geometric_closed_form(f2):
    # sum over a^n: 1 + 2 sum_{n>=1} e^{-n/2} = 1 + 2 e^{-1/2} / (1 - e^{-1/2})
    ev = poincare_partial(fold(f2, ["a"]), 0.5, 60)
    closed = 1 + 2 * math.exp(-0.5) / (1 - math.exp(-0.5))
    assert ev.partial_sums[-1] == pytest.approx(closed, abs=1e-10)
    assert all(b >= a for a, b in zip(ev.partial_sums, ev.partial_sums[1:]))


def test_divergence_verdicts(f2):
    core_a = fold(f2, ["a"])
    assert divergence_diagnostic(core_a, 0.0, 15).verdict == "diverges"
    assert divergence_diagnostic(core_a, 0.5, 15).verdict == "converges"


def test_divergence_at_omega_quasiconvex(f2):
    core = fold(f2, ["a", "baB"])
    omega = relative_growth(core, 12).spectral.rate
    d = divergence_diagnostic(core, omega, 15)
    assert d.verdict == "diverges"
    assert divergence_diagnostic(core, omega + 0.4, 18).verdict == "converges"


@pytest.mark.parametrize("gens", [["ABBABA", "abABaB", "ABBBAb"], ["bbAbb", "AbaaBAA"],
                                  ["a" * 16, "b" * 16]])
def test_divergence_at_the_exact_rate(f2, gens):
    core = fold(f2, gens)
    omega = relative_growth(core, 15).spectral.rate
    d = divergence_diagnostic(core, omega, 15)
    assert d.verdict == "diverges"
    assert d.tail_mean_increment > 0
    assert d.evaluation.radius >= 15
    assert len(d.evaluation.partial_sums) == d.evaluation.radius + 1
    assert divergence_diagnostic(core, omega + 0.4, 15).verdict == "converges"


def test_divergence_trivial_subgroup_converges(f2):
    d = divergence_diagnostic(fold(f2, []), 0.0, 15)
    assert d.verdict == "converges"
    assert d.evaluation.partial_sums[-1] == 1.0


def test_divergence_below_the_rate(f2):
    core = fold(f2, ["a", "baB"])
    omega = relative_growth(core, 12).spectral.rate
    assert divergence_diagnostic(core, omega - 0.1, 15).verdict == "diverges"


def test_partial_sums_past_float_range(f2):
    # |S(700)| = 4 * 3^699 is past the float range; the series at s = 1.2
    # converges to 1 + 4 e^{-s} / (1 - 3 e^{-s})
    ev = poincare_partial(fold(f2, ["a", "b"]), 1.2, 700)
    closed = 1 + 4 * math.exp(-1.2) / (1 - 3 * math.exp(-1.2))
    assert ev.partial_sums[-1] == pytest.approx(closed, rel=1e-12)
