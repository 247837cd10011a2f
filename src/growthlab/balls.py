"""Ball counting, streaming enumeration, and growth-rate estimation.

Sphere sizes are computed by an exact dynamic program over syllable
normal forms (normal forms are prefix-closed, so counting by last
syllable is exact).  Enumeration is a DFS over normal-form extensions,
which keeps memory O(radius) and yields each element exactly once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .errors import BudgetExceeded, WindowTooSmall
from .groups import MarkedGroup, Word

DEFAULT_ELEMENT_CAP = 10**8


@dataclass(frozen=True)
class BallCounts:
    """Exact sphere and ball sizes of a marked group up to a radius."""

    radius: int
    sphere_sizes: tuple[int, ...]
    cumulative: tuple[int, ...]

    def __post_init__(self):
        if len(self.sphere_sizes) != self.radius + 1:
            raise ValueError(f"{len(self.sphere_sizes)} sphere sizes for radius {self.radius}")
        if self.sphere_sizes[0] != 1:
            raise ValueError(f"sphere of radius 0 has {self.sphere_sizes[0]} elements, not 1")
        if any(c != t for c, t in zip(self.cumulative, itertools.accumulate(self.sphere_sizes))):
            raise ValueError("cumulative counts are not the running sums of the spheres")

    @classmethod
    def from_spheres(cls, spheres) -> "BallCounts":
        """Ball sizes from sphere sizes 0..radius (running sums)."""
        spheres = tuple(spheres)
        return cls(radius=len(spheres) - 1, sphere_sizes=spheres,
                   cumulative=tuple(itertools.accumulate(spheres)))


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


def _exponent_costs(group: MarkedGroup, i: int, budget: int) -> list[tuple[int, int]]:
    """(cost, multiplicity) pairs for syllables on generator i, cost <= budget."""
    m = group.orders[i]
    if m == 0:
        return [(t, 2) for t in range(1, budget + 1)]
    out = []
    for t in range(1, m // 2 + 1):
        if t > budget:
            break
        mult = 1 if (m % 2 == 0 and t == m - t) or m == 2 else 2
        out.append((t, mult))
    return out


def sphere_counts(group: MarkedGroup, radius: int) -> list[int]:
    """Exact sphere sizes |S(0)|..|S(radius)| via the syllable DP."""
    k = group.rank
    # last[i][L] = number of normal forms of length L ending in gen i
    last = [[0] * (radius + 1) for _ in range(k)]
    for L in range(1, radius + 1):
        for i in range(k):
            acc = 0
            for cost, mult in _exponent_costs(group, i, L):
                prev = L - cost
                others = 1 if prev == 0 else sum(
                    last[j][prev] for j in range(k) if j != i
                )
                acc += mult * others
            last[i][L] = acc
    spheres = [1] + [sum(last[i][L] for i in range(k)) for L in range(1, radius + 1)]
    return spheres


def ball(group: MarkedGroup, radius: int, max_elements: int | None = DEFAULT_ELEMENT_CAP) -> BallCounts:
    """Exact counts of normal forms of length <= radius.

    Raises BudgetExceeded when the ball size passes ``max_elements``
    (a guardrail for callers that go on to enumerate; pass None to lift).
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    counts = BallCounts.from_spheres(sphere_counts(group, radius))
    total = counts.cumulative[-1]
    if max_elements is not None and total > max_elements:
        raise BudgetExceeded(f"ball of radius {radius} has {total} elements > cap {max_elements}")
    return counts


def ball_elements(
    group: MarkedGroup,
    radius: int,
    max_elements: int | None = DEFAULT_ELEMENT_CAP,
    first_gen: int | None = None,
) -> Iterator[Word]:
    """Stream every element of B(o, radius) exactly once (DFS order).

    ``first_gen`` restricts to elements whose leading syllable uses that
    generator (plus the identity when first_gen is None), which gives a
    deterministic work split across processes.
    """
    count = 0

    def bump():
        nonlocal count
        count += 1
        if max_elements is not None and count > max_elements:
            raise BudgetExceeded(f"enumeration exceeded cap {max_elements}")

    def extensions(prefix: list, cost: int, last: int, only: int | None = None) -> Iterator[Word]:
        budget = radius - cost
        for i in range(group.rank):
            if i == last or (only is not None and i != only):
                continue
            m = group.orders[i]
            if m == 0:
                for t in range(1, budget + 1):
                    for e in (t, -t):
                        prefix.append((i, e))
                        w = Word(group, tuple(prefix), cost + t)
                        bump()
                        yield w
                        yield from extensions(prefix, cost + t, i)
                        prefix.pop()
            else:
                for e in range(1, m):
                    t = min(e, m - e)
                    if t > budget:
                        continue
                    prefix.append((i, e))
                    w = Word(group, tuple(prefix), cost + t)
                    bump()
                    yield w
                    yield from extensions(prefix, cost + t, i)
                    prefix.pop()

    if first_gen is None:
        bump()
        yield group.identity()
        yield from extensions([], 0, -1)
    else:
        yield from extensions([], 0, -1, only=first_gen)


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
