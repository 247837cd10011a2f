"""Coset counts and quotient growth of free-group subgroups.

Outside its Stallings core, the Schreier graph of H <= F_k is a forest:
a core vertex v at core-BFS depth d(v) with deg(v) < 2k half-edges roots
2k - deg(v) hanging (2k-1)-ary trees.  So the coset spheres have a closed
form,

    |S_r| = #{v : d(v) = r} + sum_v (2k - deg v) (2k - 1)^(r - d(v) - 1),

(the sum over v with d(v) < r), exact in Python integers at any radius
without minting a coset.  Past the largest core depth eta only the
forest term is left, so |S_{n+1}| = (2k - 1)|S_n| for every n > eta, and
the quotient grows at exactly log(2k - 1), or not at all when S_{eta+1}
is empty (finite index).  Coset keys and distances need no search
either: reading a reduced word w through the core stops at the vertex v
where the next letter is missing, with the suffix s unread, and the rest
of the path runs down the tree hanging off that half-edge.  So (v, s)
names the coset Hw, and d(H, Hw) = d(v) + |s| (Stallings 1983).

The lazy coset BFS of ``SchreierAutomaton`` (states are right cosets Hg,
a missing transition mints a fresh coset) backs only the cross-check of
the closed form in ``schreier_growth``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .balls import BallCounts, GrowthEstimate
from .errors import BudgetExceeded, CrossCheckFailed
from .groups import Word
from .stallings import CoreGraph

DEFAULT_STATE_CAP = 20_000_000


class SchreierAutomaton:
    """Growable coset automaton for a free-group subgroup.

    Transitions live in 2k int32 arrays (one per directed letter), -1 for
    "not yet explored".  Distances are BFS-correct for every completed
    radius.  Single-writer: completion mutates; share only after use.
    """

    def __init__(self, core: CoreGraph, max_states: int = DEFAULT_STATE_CAP):
        self.core = core
        self.group = core.group
        self.k = core.group.rank
        self.max_states = max_states
        cap = max(64, 2 * core.n_vertices)
        self.delta = [np.full(cap, -1, dtype=np.int32) for _ in range(2 * self.k)]
        self.n_states = core.n_vertices
        for u, g, v in core.edges:
            self.delta[g][u] = v
            self.delta[g + self.k][v] = u
        self.dist = np.full(cap, -1, dtype=np.int32)
        self.dist[core.base] = 0
        self.base = core.base
        self.level_sizes = [1]
        self._frontier = np.array([core.base], dtype=np.int32)

    @property
    def completed_radius(self) -> int:
        return len(self.level_sizes) - 1

    def _grow(self, needed: int):
        cap = len(self.dist)
        if needed <= cap:
            return
        new_cap = cap
        while new_cap < needed:
            new_cap *= 2
        for i in range(2 * self.k):
            arr = np.full(new_cap, -1, dtype=np.int32)
            arr[:cap] = self.delta[i]
            self.delta[i] = arr
        d = np.full(new_cap, -1, dtype=np.int32)
        d[:cap] = self.dist
        self.dist = d

    def complete_to(self, radius: int):
        """Run the level-synchronized BFS out to the given radius."""
        while self.completed_radius < radius:
            frontier = self._frontier
            if frontier.size == 0:
                self.level_sizes.append(0)
                continue
            next_parts = []
            level = self.completed_radius + 1
            for gi in range(2 * self.k):
                arr = self.delta[gi]
                targets = arr[frontier]
                missing = targets == -1
                n_new = int(missing.sum())
                if n_new:
                    if self.n_states + n_new > self.max_states:
                        raise BudgetExceeded(
                            f"Schreier automaton exceeded {self.max_states} states")
                    self._grow(self.n_states + n_new)
                    arr = self.delta[gi]
                    new_ids = np.arange(self.n_states, self.n_states + n_new, dtype=np.int32)
                    src = frontier[missing]
                    arr[src] = new_ids
                    inv = gi + self.k if gi < self.k else gi - self.k
                    self.delta[inv][new_ids] = src
                    self.dist[new_ids] = level
                    self.n_states += n_new
                    next_parts.append(new_ids)
                known = targets[~missing]
                if known.size:
                    fresh = known[self.dist[known] == -1]
                    if fresh.size:
                        fresh = np.unique(fresh)
                        self.dist[fresh] = level
                        next_parts.append(fresh)
            self._frontier = (np.unique(np.concatenate(next_parts))
                              if next_parts else np.array([], dtype=np.int32))
            self.level_sizes.append(int(self._frontier.size))

    def coset_distance(self, w: Word) -> int:
        """``coset_distance`` of the automaton's core; kept as a method because
        the benchmark tracer (perfbench/tracing.py) counts its calls."""
        return coset_distance(self.core, w)

    def mirror_level_sizes(self, radius: int) -> list[int]:
        """Level sizes of the left-coset BFS (follows inverse letters).

        Realizes the bijection gH -> Hg^-1 as a traversal; no completion
        happens here, so complete_to(radius) must run first.
        """
        self.complete_to(radius)
        seen = np.full(self.n_states, False)
        seen[self.base] = True
        frontier = np.array([self.base], dtype=np.int32)
        sizes = [1]
        for _ in range(radius):
            parts = []
            for gi in range(2 * self.k):
                inv = gi + self.k if gi < self.k else gi - self.k
                targets = self.delta[inv][frontier]
                targets = targets[targets != -1]
                targets = targets[~seen[targets]]
                if targets.size:
                    targets = np.unique(targets)
                    seen[targets] = True
                    parts.append(targets)
            frontier = (np.unique(np.concatenate(parts))
                        if parts else np.array([], dtype=np.int32))
            sizes.append(int(frontier.size))
        return sizes


def coset_key(core: CoreGraph, w: Word) -> tuple[int, tuple[int, ...]]:
    """The key (v, s) of the coset Hw, read off the core in O(|w|).

    v is the core vertex where reading the reduced word w stops and s the
    unread suffix, empty when w ends inside the core; Hu = Hw iff their
    keys agree.  Runs no BFS.
    """
    out, into = core.out, core.into
    v = core.base
    letters = w.letters()
    for i, l in enumerate(letters):
        nxt = out[v].get(l - 1) if l > 0 else into[v].get(-l - 1)
        if nxt is None:
            return v, tuple(letters[i:])
        v = nxt
    return v, ()


def coset_distance(core: CoreGraph, w: Word) -> int:
    """min{|u| : Hu = Hw}, i.e. the distance d(w, H o) in the Cayley graph."""
    v, suffix = coset_key(core, w)
    return core.depths[v] + len(suffix)


@dataclass(frozen=True)
class SchreierGrowth:
    """Coset growth of a subgroup, with per-radius counts."""

    counts: BallCounts
    rate: GrowthEstimate


def coset_sphere_sizes(core: CoreGraph, r_max: int) -> list[int]:
    """|{Hg : d(H, Hg) = n}| for n = 0..r_max, core plus hanging forest.

    With M_d the number of missing half-edges at core depth d
    (``CoreGraph.depths``), the forest
    part obeys F_0 = 0 and F_n = (2k - 1) F_{n-1} + M_{n-1}.
    """
    k2 = 2 * core.group.rank
    at_depth = [0] * (r_max + 1)
    missing = [0] * (r_max + 1)
    for v, d in core.depths.items():
        if d <= r_max:
            at_depth[d] += 1
            missing[d] += k2 - len(core.out[v]) - len(core.into[v])
    sizes = []
    forest = 0
    for n in range(r_max + 1):
        sizes.append(at_depth[n] + forest)
        forest = (k2 - 1) * forest + missing[n]
    return sizes


CROSS_CHECK_RADIUS = 4


def schreier_growth(core: CoreGraph, r_max: int,
                    max_states: int | None = None) -> SchreierGrowth:
    """Coset counts to r_max and the exact quotient growth rate.

    Left and right cosets need no separate counts: gH -> Hg^-1 is a
    bijection from left to right cosets that preserves the distance to
    the base coset, since |g^-1| = |g|.  The closed form is checked
    against the coset BFS up to radius min(r_max, CROSS_CHECK_RADIUS).
    The rate is log(2k - 1) read off the identity |S_{n+1}| = (2k - 1)|S_n|,
    which the counts must satisfy for eta < n < R = max(r_max, eta + 2);
    it is 0 when S_{eta+1} is empty (finite index).  Either disagreement
    raises CrossCheckFailed.  ``max_states`` caps the number of cosets
    within r_max (BudgetExceeded), checked before the BFS.
    """
    eta = max(core.depths.values())
    reach = max(r_max, eta + 2)
    spheres = coset_sphere_sizes(core, reach)
    counts = BallCounts.from_spheres(spheres[:r_max + 1])
    if max_states is not None and counts.cumulative[-1] > max_states:
        raise BudgetExceeded(f"{counts.cumulative[-1]} cosets within radius {r_max} "
                             f"exceed the budget of {max_states}")
    check = min(r_max, CROSS_CHECK_RADIUS)
    aut = SchreierAutomaton(core)
    aut.complete_to(check)
    if aut.level_sizes[:check + 1] != list(counts.sphere_sizes[:check + 1]):
        raise CrossCheckFailed(f"coset spheres {counts.sphere_sizes[:check + 1]} != coset BFS "
                               f"{aut.level_sizes[:check + 1]}")
    ratio = 2 * core.group.rank - 1
    for n in range(eta + 1, reach):
        if spheres[n + 1] != ratio * spheres[n]:
            raise CrossCheckFailed(f"|S_{n + 1}| = {spheres[n + 1]} != {ratio} * |S_{n}| "
                                   f"= {ratio * spheres[n]} past eta = {eta}")
    rate = GrowthEstimate(math.log(ratio) if spheres[eta + 1] else 0.0, "closed_form",
                          (eta + 1, reach), 0.0,
                          notes=(f"|S_(n+1)| = {ratio} |S_n| for n > eta = {eta}",))
    return SchreierGrowth(counts=counts, rate=rate)
