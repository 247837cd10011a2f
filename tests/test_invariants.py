"""Cross-module invariants: the infimum formula for relative growth,
agreement of the log-slope fit with exact rates, selector monotonicity,
and config validation."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from growthlab import MarkedGroup, ball, growth_rate, relative_growth, stallings_fold
from growthlab.errors import PreconditionFailed
from growthlab.theorems import ExperimentConfig

from oracles import selector_certifies, spectral_radius, syllable_transfer_z2z3


def fold(group, words):
    return stallings_fold(group, [group.parse(w) for w in words])


def test_relative_growth_infimum_formula(f2):
    """(1/r) log |B(o,r) & H| settles onto omega_H from the window infimum.

    The raw infimum can undershoot slightly at small odd radii when H has
    only even-length elements (the infimum characterization carries an
    implicit normalization constant), so the check is two-sided with an
    explicit tolerance.
    """
    for gens in (["a", "baB"], ["aa", "bb"], ["a", "b"]):
        rg = relative_growth(fold(f2, gens), 12)
        cumulative = rg.counts.cumulative
        ratios = [math.log(cumulative[r]) / r for r in range(1, 13) if cumulative[r] > 1]
        window_inf = min(ratios)
        assert abs(window_inf - rg.spectral.rate) <= 0.1
        # along the even tail the ratio really is monotone down to the rate
        tail = [math.log(cumulative[r]) / r for r in (8, 10, 12)]
        assert tail[0] >= tail[1] >= tail[2] >= rg.spectral.rate - 1e-9


def test_independent_estimators_agree(f2):
    """The log-slope fit agrees, within its residual bound, with the exact
    rate: log 3 for F2, the transfer-oracle root for Z2 * Z3, and the
    spectral rate of two Stallings cores."""
    z23 = MarkedGroup.free_product([2, 3])
    cases = [
        (math.log(3), growth_rate(ball(f2, 12), window=(8, 12))),
        (math.log(spectral_radius(syllable_transfer_z2z3())),
         growth_rate(ball(z23, 14), window=(9, 14))),
    ]
    for gens in (["a", "baB"], ["aa", "bb"]):
        rg = relative_growth(fold(f2, gens), 12)
        assert rg.spectral.error_bound == 0.0
        cases.append((rg.spectral.rate, growth_rate(rg.counts)))
    for exact, fit in cases:
        lo, hi = fit.window
        # a residual bound r on the window fit bounds the slope error by
        # 2r / (window span)
        slope_err = 2 * fit.error_bound / max(hi - lo, 1)
        assert abs(exact - fit.rate) <= slope_err + 0.02


def test_selector_monotone_in_power(f2):
    """If the selector certifies at M, it certifies at 2M as well."""
    for m in (3, 4):
        assert selector_certifies(f2.parse("b"), m, 1, 4)
        assert selector_certifies(f2.parse("b"), 2 * m, 1, 4)


def test_experiment_config_validation():
    with pytest.raises(PreconditionFailed):
        ExperimentConfig(group="free:2", r_ball=2)


def test_invariants_survive_python_O():
    """Dataclass invariants raise ValueError, which ``python -O`` keeps."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("from growthlab.balls import BallCounts\n"
            "BallCounts((2, 3))\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "ValueError" in proc.stderr
