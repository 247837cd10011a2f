"""Cross-module invariants: the infimum formula for relative growth,
agreement of independent rate estimators, selector monotonicity, and
the experiment orchestrator."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from growthlab import MarkedGroup, ball, growth_rate, relative_growth, stallings_fold
from growthlab.closure import separation_selector
from growthlab.errors import PreconditionFailed
from growthlab.theorems import ExperimentConfig, run_experiment


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
    """spectral_radius and bfs_fit agree within combined error bounds on
    every shipped example."""
    cases = []
    counts = ball(f2, 12, max_elements=None)
    cases.append((growth_rate(counts, "spectral_radius"),
                  growth_rate(counts, "bfs_fit", window=(8, 12))))
    z23 = MarkedGroup.free_product([2, 3])
    counts23 = ball(z23, 14, max_elements=None)
    cases.append((growth_rate(counts23, "spectral_radius"),
                  growth_rate(counts23, "bfs_fit", window=(9, 14))))
    for gens in (["a", "baB"], ["aa", "bb"]):
        rg = relative_growth(fold(f2, gens), 12)
        cases.append((rg.spectral, rg.fit))
    for exact, fit in cases:
        lo, hi = fit.window
        # a residual bound r on the window fit bounds the slope error by
        # 2r / (window span); combine with the exact method's bound
        slope_err = 2 * fit.error_bound / max(hi - lo, 1) + exact.error_bound
        assert abs(exact.rate - fit.rate) <= slope_err + 0.02


def test_selector_monotone_in_power(f2):
    """If the selector certifies at M, it certifies at 2M as well."""
    y = f2.identity()
    for m in (3, 4):
        separation_selector(f2.parse("b"), M=m, epsilon=0, theta=1, y=y, sample_radius=4)
        separation_selector(f2.parse("b"), M=2 * m, epsilon=0, theta=1, y=y, sample_radius=4)


def test_experiment_config_validation():
    with pytest.raises(PreconditionFailed):
        ExperimentConfig(group="free:2", r_ball=2)
    with pytest.raises(PreconditionFailed):
        ExperimentConfig(group="free:2", gap_margin=0.0)


def test_run_experiment_writes_reports(tmp_path, f2):
    cfg = ExperimentConfig(group="free:2", subgroup=("a",), g0="ab",
                           r_ball=10, r_schreier=10)
    results = run_experiment(cfg, out_dir=str(tmp_path))
    assert results["gap"]["verdict"] == "PASS"
    assert results["quotient"]["verdict"] == "PASS"
    for name in ("gap.json", "quotient.json", "audit.json", "coset_counts.csv"):
        assert (tmp_path / name).exists()
    gap = json.loads((tmp_path / "gap.json").read_text())
    assert gap["verdict"] == "PASS"
    csv_lines = (tmp_path / "coset_counts.csv").read_text().strip().splitlines()
    assert csv_lines[0] == "radius,count,rate_estimate"
    assert len(csv_lines) == 12  # header + radii 0..10
    audit = json.loads((tmp_path / "audit.json").read_text())
    props = {r["property"] for r in audit["properties"]}
    assert {"nearest_point", "lipschitz", "intersection_image"} <= props


def test_run_experiment_deterministic(tmp_path, f2):
    cfg = ExperimentConfig(group="free:2", subgroup=("a",), g0="ab",
                           r_ball=8, r_schreier=8)
    a = run_experiment(cfg, out_dir=str(tmp_path / "one"))
    b = run_experiment(cfg, out_dir=str(tmp_path / "two"))
    ja = json.loads((tmp_path / "one" / "gap.json").read_text())
    jb = json.loads((tmp_path / "two" / "gap.json").read_text())
    ja.pop("timestamp"), jb.pop("timestamp")
    assert json.dumps(ja, sort_keys=True) == json.dumps(jb, sort_keys=True)


def test_invariants_survive_python_O():
    """Dataclass invariants raise ValueError, which ``python -O`` keeps."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("from growthlab.balls import BallCounts\n"
            "BallCounts(radius=1, sphere_sizes=(2, 3), cumulative=(2, 5))\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "ValueError" in proc.stderr
