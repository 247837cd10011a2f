"""Poincare series partial sums and the divergence verdict at an exponent.

The series sum_{h in H} e^{-s d(o, h o)} converges for s above the relative
growth rate and diverges below it; behaviour AT the rate separates
divergent from convergent subgroups.  The verdict compares s with the
core's exact Perron rate and, at the rate, reads whole periods of exact
counts; the counts and raw partial sums are reported next to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .stallings import CoreGraph

# |s - omega_H| within this counts as s = omega_H
AT_RATE_TOL = 1e-9


@dataclass(frozen=True)
class PoincareEvaluation:
    """Partial sums of the Poincare series at a fixed exponent s."""

    s: float
    partial_sums: tuple[float, ...]
    radius: int
    counts: tuple[int, ...]  # exact |{h in H : |h| = n}|, n = 0..radius

    def __post_init__(self):
        if not self.s >= 0.0:
            raise ValueError(f"s must be >= 0, got {self.s}")
        if any(b < a - 1e-12 for a, b in zip(self.partial_sums, self.partial_sums[1:])):
            raise ValueError("partial sums must be non-decreasing")


def poincare_partial(core: CoreGraph, s: float, r_max: int) -> PoincareEvaluation:
    """sum_{h in H, |h| <= r} e^{-s |h|} for r = 0..r_max, via exact counts."""
    if s < 0:
        raise ValueError("s must be >= 0")
    counts = core.counts_by_length(r_max)
    sums = []
    total = 0.0
    for n, c in enumerate(counts):
        # past the float range c cannot be converted; math.log still takes it
        total += c * math.exp(-s * n) if c < 1 << 1000 else math.exp(math.log(c) - s * n)
        sums.append(total)
    return PoincareEvaluation(s=s, partial_sums=tuple(sums), radius=r_max,
                              counts=tuple(counts))


@dataclass(frozen=True)
class DivergenceVerdict:
    verdict: str  # diverges | converges | inconclusive
    s: float
    rate: float  # omega_H of the core, log of its Perron root
    period: int  # period p of the core's non-backtracking matrix
    tail_mean_increment: float  # mean term c_n e^{-s n} over the tail window
    evaluation: PoincareEvaluation


def divergence_diagnostic(core: CoreGraph, s: float, r_max: int) -> DivergenceVerdict:
    """Verdict on the Poincare series at exponent s, against the exact rate.

    The series converges for s above omega_H, the log Perron root of the
    core's non-backtracking matrix, and diverges below it.  At s = omega_H
    the terms c_n e^{-s n} are asymptotically periodic with that matrix's
    period p, and for a nontrivial finitely generated subgroup their
    Cesaro mean is positive, so the series diverges; the verdict there
    reads the exact counts over a tail window of whole periods (at least
    as long as the core has edges) that starts past radius 2V + E, since a
    core cycle of length l <= E reached by a path of length < V gives
    subgroup elements of every length 2|path| + jl.  "diverges" when the
    window holds a positive count, otherwise "inconclusive".  The trivial
    subgroup's series is the single term 1: "converges".

    The partial sums are evaluated out to the end of the tail window
    (at least r_max) and returned with the verdict.
    """
    rate = core.spectral_rate()
    period = core.perron[1] or 1
    n_edges = len(core.edges)
    window = period * max(1, -(-n_edges // period))
    radius = max(r_max, 2 * core.n_vertices + n_edges + window)
    ev = poincare_partial(core, s, radius)
    sums = ev.partial_sums
    mean_inc = (sums[-1] - sums[-1 - window]) / window
    if not core.edges or s > rate + AT_RATE_TOL:
        verdict = "converges"
    elif s < rate - AT_RATE_TOL:
        verdict = "diverges"
    else:
        verdict = "diverges" if any(ev.counts[-window:]) else "inconclusive"
    return DivergenceVerdict(verdict=verdict, s=s, rate=rate, period=period,
                             tail_mean_increment=mean_inc, evaluation=ev)
