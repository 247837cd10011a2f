"""Orbits of a subgroup's core as point sets in the Cayley graph.

A finitely generated subgroup H of F_k is its folded Stallings core
(``CoreGraph``).  The audits read from the orbit Y = H o the size and
the points of Y & B(o, r) and the exact distance d(x, Y) for arbitrary
x, which is the coset distance d(H, Hx), read off the core in O(|x|).
``FiniteSubgroup`` is the torsion case, a subgroup of a free product
given by the closure of its generators; it serves the closure and
buffering functions, which take any subgroup with ``elements_in_ball``.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .errors import BudgetExceeded
from .groups import MarkedGroup, Word
from .schreier import coset_distance
from .stallings import CoreGraph

FINITE_SUBGROUP_CAP = 4096  # elements a finite subgroup's closure may reach


class FiniteSubgroup:
    """A finite subgroup given by closure of its generators (torsion case)."""

    def __init__(self, group: MarkedGroup, generators: Sequence[Word]):
        self.group = group
        elements = {group.identity()}
        frontier = {g for g in generators if not g.is_identity}
        gens = [g for g in generators] + [g.inverse() for g in generators]
        elements |= frontier
        while frontier:
            new = set()
            for h in frontier:
                for g in gens:
                    w = h * g
                    if w not in elements:
                        new.add(w)
            elements |= new
            frontier = new
            if len(elements) > FINITE_SUBGROUP_CAP:
                raise BudgetExceeded(f"subgroup closure exceeded {FINITE_SUBGROUP_CAP} "
                                     "elements; not finite at this cap")
        self.elements = frozenset(elements)

    def elements_in_ball(self, radius: int) -> Iterator[Word]:
        return (h for h in sorted(self.elements, key=lambda w: (w.length, str(w)))
                if h.length <= radius)


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
