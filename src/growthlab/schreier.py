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

``coset_key`` lives in ``stallings``, whose membership test reads words
the same way.  The lazy coset BFS of ``SchreierAutomaton`` (a missing
transition mints a fresh coset) backs only the radius-4 cross-check of
the closed form in ``schreier_growth``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .balls import BallCounts, GrowthEstimate
from .errors import CrossCheckFailed
from .groups import Word
from .stallings import CoreGraph, coset_key


class SchreierAutomaton:
    """Lazy BFS over the right cosets Hg, out from H.

    States 0 .. n_vertices - 1 are the core's vertices, whose transitions
    are the core's table ``CoreGraph.step``; letters are tried 1 .. k, then
    -1 .. -k.  A missing transition mints a coset, whose one known
    transition is the letter back, so the frontier holds it as (state,
    letter back); a core vertex is (state, None).
    """

    def __init__(self, core: CoreGraph):
        self.core = core
        k = core.group.rank
        self._letters = (*range(1, k + 1), *range(-1, -k - 1, -1))
        self.n_states = core.n_vertices
        self.level_sizes = [1]
        self._seen = {core.base}
        self._frontier = [(core.base, None)]

    def complete_to(self, radius: int):
        """Run the BFS out to the given radius, one level at a time."""
        while len(self.level_sizes) <= radius:
            level = []
            for s, back in self._frontier:
                row = self.core.step[s] if back is None else {}
                for letter in self._letters:
                    if letter == back:
                        continue
                    t = row.get(letter)
                    if t is None:
                        level.append((self.n_states, -letter))
                        self.n_states += 1
                    elif t not in self._seen:
                        self._seen.add(t)
                        level.append((t, None))
            self._frontier = level
            self.level_sizes.append(len(level))

    def coset_distance(self, w: Word) -> int:
        """``coset_distance`` of the automaton's core; kept as a method because
        the benchmark tracer (perfbench/tracing.py) counts its calls."""
        return coset_distance(self.core, w)

    def mirror_level_sizes(self, radius: int) -> list[int]:
        """Level sizes of the left-coset BFS, which follows inverse letters.

        Every transition is known both ways, and as a letter runs over all 2k
        letters so does its inverse, so that BFS from the base reaches the
        same states at the same levels: the sizes are ``level_sizes``.
        """
        self.complete_to(radius)
        return self.level_sizes[:radius + 1]


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
    (``CoreGraph.depths``), the forest part obeys F_0 = 0 and
    F_n = (2k - 1) F_{n-1} + M_{n-1}.
    """
    k2 = 2 * core.group.rank
    at_depth = [0] * (r_max + 1)
    missing = [0] * (r_max + 1)
    for v, d in core.depths.items():
        if d <= r_max:
            at_depth[d] += 1
            missing[d] += k2 - len(core.by_tail[v])
    sizes = []
    forest = 0
    for n in range(r_max + 1):
        sizes.append(at_depth[n] + forest)
        forest = (k2 - 1) * forest + missing[n]
    return sizes


CROSS_CHECK_RADIUS = 4


def schreier_growth(core: CoreGraph, r_max: int) -> SchreierGrowth:
    """Coset counts to r_max and the exact quotient growth rate.

    Left and right cosets need no separate counts: gH -> Hg^-1 is a
    bijection from left to right cosets that preserves the distance to
    the base coset, since |g^-1| = |g|.  The closed form is checked
    against the coset BFS up to radius min(r_max, CROSS_CHECK_RADIUS).
    The rate is log(2k - 1) read off the identity |S_{n+1}| = (2k - 1)|S_n|,
    which the counts must satisfy for eta < n < R = max(r_max, eta + 2);
    it is 0 when S_{eta+1} is empty (finite index).  Either disagreement
    raises CrossCheckFailed.  No budget applies: the counts are closed-form,
    and the BFS meets at most |B(o, 4)| cosets (161 in F2, 937 in F3).
    """
    eta = max(core.depths.values())
    reach = max(r_max, eta + 2)
    spheres = coset_sphere_sizes(core, reach)
    counts = BallCounts(tuple(spheres[:r_max + 1]))
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
