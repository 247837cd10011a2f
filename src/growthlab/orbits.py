"""Subgroups and their orbits as point sets in the Cayley graph.

The audits need two things from an orbit Y = H o: a finite sample
Y & B(o, r) and the exact distance d(x, Y) for arbitrary x.  For a
free-group subgroup the latter is the coset distance d(H, Hx), read off
the Stallings core in O(|x|); for a finite subgroup it is a minimum
over the elements.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .errors import BudgetExceeded
from .groups import MarkedGroup, Word, distance
from .schreier import coset_distance
from .stallings import CoreGraph, stallings_fold

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


class FreeSubgroup:
    """A finitely generated subgroup of a free group, via its core graph."""

    def __init__(self, core: CoreGraph):
        self.core = core
        self.group = core.group

    @staticmethod
    def from_words(group: MarkedGroup, generators: Sequence[Word]) -> "FreeSubgroup":
        return FreeSubgroup(stallings_fold(group, generators))

    def contains(self, w: Word) -> bool:
        return self.core.contains(w)

    def elements_in_ball(self, radius: int) -> Iterator[Word]:
        return self.core.elements_in_ball(radius)

    def index(self):
        return self.core.index()


class SubgroupOrbit:
    """The orbit H o of a subgroup."""

    def __init__(self, subgroup):
        self.subgroup = subgroup
        self.group = subgroup.group

    def sample_in_ball(self, radius: int) -> list[Word]:
        """All orbit points within B(o, radius)."""
        return list(self.subgroup.elements_in_ball(radius))

    def distance_to(self, x: Word) -> int:
        """Exact d(x, Y).  For a core-backed subgroup this is the coset
        distance of x, read off the core."""
        if isinstance(self.subgroup, FreeSubgroup):
            return coset_distance(self.subgroup.core, x)
        return min(distance(h, x) for h in self.subgroup.elements)
