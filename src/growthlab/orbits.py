"""Orbits of a subgroup's core as point sets in the Cayley graph.

A finitely generated subgroup H of F_k is its folded Stallings core
(``CoreGraph``).  The audits read from the orbit Y = H o the size and
the points of Y & B(o, r) and the exact distance d(x, Y) for arbitrary
x, which is the coset distance d(H, Hx), read off the core in O(|x|).
"""

from __future__ import annotations

from .groups import Word
from .schreier import coset_distance
from .stallings import CoreGraph


class SubgroupOrbit:
    """The orbit H o of a subgroup of F_k, given by its core."""

    def __init__(self, core: CoreGraph):
        self.core = core
        self.group = core.group

    def sample_in_ball(self, radius: int) -> list[Word]:
        """All orbit points within B(o, radius)."""
        return list(self.core.elements_in_ball(radius))

    def size_in_ball(self, radius: int) -> int:
        """|Y & B(o, radius)|, counted without listing the points."""
        return sum(self.core.counts_by_length(radius))

    def distance_to(self, x: Word) -> int:
        """Exact d(x, Y): the coset distance of x, read off the core."""
        return coset_distance(self.core, x)
