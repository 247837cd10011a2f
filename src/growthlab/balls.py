"""Ball counting, streaming enumeration, growth rates, and every budget.

Counts and enumeration read one table, ``_syllables``: each generator's
syllables (exponent, cost) in visiting order.  Sphere sizes come from an
exact dynamic program over syllable normal forms (normal forms are
prefix-closed, so counting by last syllable is exact).  Enumeration is a
DFS over normal-form extensions, which keeps memory O(radius) and yields
each element exactly once.

Each budget is a constant here, counted exactly before the work it bounds
(BudgetExceeded); the two listings count their elements before the first.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .errors import BudgetExceeded, WindowTooSmall
from .groups import MarkedGroup, Word, _cost

ELEMENT_CAP = 1_000_000  # elements a ball listing may yield
PAIR_CAP = 2_000_000  # pairs a pair scan may make
CLOSURE_LETTER_CAP = 2_000_000  # letters elementary_closure may list


def refuse_elements(count: int, where: str) -> None:
    """Refuse listing ``count`` elements ``where`` past ``ELEMENT_CAP``."""
    if count > ELEMENT_CAP:
        raise BudgetExceeded(f"over {ELEMENT_CAP} elements {where}")


def refuse_pairs(pairs: int) -> None:
    """Refuse a scan of ``pairs`` pairs past ``PAIR_CAP``."""
    if pairs > PAIR_CAP:
        raise BudgetExceeded(f"{pairs} pairs exceed cap {PAIR_CAP}")


@dataclass(frozen=True)
class BallCounts:
    """Exact sphere sizes of a marked group, radius 0 up; ball sizes are their sums."""

    sphere_sizes: tuple[int, ...]

    def __post_init__(self):
        if self.sphere_sizes[:1] != (1,):
            raise ValueError(f"sphere sizes {self.sphere_sizes} do not start with 1")

    @property
    def radius(self) -> int:
        return len(self.sphere_sizes) - 1

    @functools.cached_property
    def cumulative(self) -> tuple[int, ...]:
        """Ball sizes |B(0)| .. |B(radius)|."""
        return tuple(itertools.accumulate(self.sphere_sizes))


@dataclass(frozen=True)
class GrowthEstimate:
    """A growth rate in nats per unit length, with provenance."""

    rate: float
    # spectral_radius: log Perron root of a Stallings core (relative_growth);
    # closed_form: log(2k - 1) from the coset sphere identity (schreier_growth);
    # bfs_fit: log-slope fit of ball counts (growth_rate)
    method: str
    window: tuple[int, int]
    error_bound: float
    notes: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if not (self.rate >= 0.0 and self.error_bound >= 0.0):
            raise ValueError(f"negative rate {self.rate} or error bound {self.error_bound}")


def _syllables(group: MarkedGroup, radius: int) -> list[list[tuple[int, int]]]:
    """Per generator, its syllables (exponent, cost <= radius) priced by ``_cost``, in
    visiting order: free 1, -1, 2, -2, ...; of order m, 1 .. m - 1."""
    table = []
    for m in group.orders:
        exponents = range(1, m) if m else [e for t in range(1, radius + 1) for e in (t, -t)]
        table.append([(e, _cost(m, e)) for e in exponents if _cost(m, e) <= radius])
    return table


def sphere_counts(group: MarkedGroup, radius: int) -> list[int]:
    """Exact sphere sizes |S(0)|..|S(radius)| via the syllable DP."""
    table = _syllables(group, radius)
    # last[i][L] = number of normal forms of length L ending in gen i, each a
    # form of length L - t not ending in gen i (or empty) and a syllable of cost t
    last = [[0] * (radius + 1) for _ in table]
    spheres = [1]
    for L in range(1, radius + 1):
        for i, syllables in enumerate(table):
            last[i][L] = sum(spheres[L - t] - last[i][L - t] for _, t in syllables if t <= L)
        spheres.append(sum(row[L] for row in last))
    return spheres


def ball(group: MarkedGroup, radius: int) -> BallCounts:
    """Exact counts of normal forms of length <= radius."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    return BallCounts(tuple(sphere_counts(group, radius)))


def ball_elements(group: MarkedGroup, radius: int) -> Iterator[Word]:
    """Stream every element of B(o, radius) exactly once (DFS order).  A
    ball of more than ``ELEMENT_CAP`` elements is refused before the first."""
    refuse_elements(sum(sphere_counts(group, radius)), f"in B(o, {radius})")
    table = _syllables(group, radius)
    prefix: list[tuple[int, int]] = []

    def extensions(cost: int, last: int) -> Iterator[Word]:
        for i, syllables in enumerate(table):
            if i == last:
                continue
            for e, t in syllables:
                if cost + t > radius:
                    continue
                prefix.append((i, e))
                yield Word(group, tuple(prefix), cost + t)
                yield from extensions(cost + t, i)
                prefix.pop()

    yield group.identity()
    yield from extensions(0, -1)


# -- growth-rate estimation ---------------------------------------------


def _fit_line(xs: np.ndarray, ys: np.ndarray) -> tuple[float, float, float]:
    """Least-squares slope/intercept and max absolute residual."""
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = np.max(np.abs(ys - (slope * xs + intercept)))
    return float(slope), float(intercept), float(resid)


def growth_rate(counts: BallCounts,
                window: tuple[int, int] | None = None) -> GrowthEstimate:
    """Estimate the exponential growth rate from exact ball counts.

    The least-squares slope of log cumulative counts over the window
    (default: the last five radii); error_bound is the max residual.  The
    pipelines read their rates exactly instead (``relative_growth`` and
    ``schreier_growth``); this fit serves acceptance criterion 1.
    """
    cumulative = counts.cumulative
    r = counts.radius
    lo, hi = window if window is not None else (max(1, r - 4), r)
    if hi > r or lo < 0 or hi - lo + 1 < 3:
        raise WindowTooSmall(f"bfs_fit window [{lo},{hi}] needs >= 3 radii within data")
    xs = np.arange(lo, hi + 1, dtype=float)
    ys = np.array([math.log(cumulative[i]) for i in range(lo, hi + 1)])
    slope, _, resid = _fit_line(xs, ys)
    return GrowthEstimate(rate=max(slope, 0.0), method="bfs_fit",
                          window=(lo, hi), error_bound=resid)
