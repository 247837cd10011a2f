"""Subgroups and their orbits as point sets in the Cayley graph.

The audits need two things from an orbit Y = H o: a finite sample
Y & B(o, r) and the exact distance d(x, Y) for arbitrary x.  For a
free-group subgroup the latter is the coset distance d(H, Hx), read off
the Stallings core in O(|x|); for a finite subgroup it is a minimum
over the elements; for a translated orbit uY it is the base orbit's
distance at u^-1 x.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .errors import BudgetExceeded
from .groups import MarkedGroup, Word, distance
from .schreier import SchreierAutomaton
from .stallings import CoreGraph, stallings_fold


class FiniteSubgroup:
    """A finite subgroup given by closure of its generators (torsion case)."""

    def __init__(self, group: MarkedGroup, generators: Sequence[Word], cap: int = 4096):
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
            if len(elements) > cap:
                raise BudgetExceeded(
                    f"subgroup closure exceeded {cap} elements; not finite at this cap")
        self.elements = frozenset(elements)

    def contains(self, w: Word) -> bool:
        return w in self.elements

    def elements_in_ball(self, radius: int) -> Iterator[Word]:
        return (h for h in sorted(self.elements, key=lambda w: (w.length, str(w)))
                if h.length <= radius)

    def index(self) -> float:
        return float("inf")  # infinite ambient group, finite subgroup

    def __len__(self) -> int:
        return len(self.elements)


class FreeSubgroup:
    """A finitely generated subgroup of a free group, via its core graph."""

    def __init__(self, core: CoreGraph):
        self.core = core
        self.group = core.group
        self._automaton: SchreierAutomaton | None = None

    @staticmethod
    def from_words(group: MarkedGroup, generators: Sequence[Word]) -> "FreeSubgroup":
        return FreeSubgroup(stallings_fold(group, generators))

    def automaton(self) -> SchreierAutomaton:
        if self._automaton is None:
            self._automaton = SchreierAutomaton(self.core)
        return self._automaton

    def contains(self, w: Word) -> bool:
        return self.core.contains(w)

    def elements_in_ball(self, radius: int) -> Iterator[Word]:
        return self.core.elements_in_ball(radius)

    def index(self):
        return self.core.index()


class SubgroupOrbit:
    """The orbit H o of a subgroup, possibly translated to u H o."""

    def __init__(self, subgroup, translate: Word | None = None):
        self.subgroup = subgroup
        self.group = subgroup.group
        self.u = translate if translate is not None else self.group.identity()

    def translated(self, u: Word) -> "SubgroupOrbit":
        return SubgroupOrbit(self.subgroup, u * self.u)

    def sample_in_ball(self, radius: int) -> list[Word]:
        """All orbit points within B(o, radius)."""
        inner = radius + self.u.length
        out = [self.u * h for h in self.subgroup.elements_in_ball(inner)]
        return [w for w in out if w.length <= radius]

    def distance_to(self, x: Word) -> int:
        """Exact d(x, Y).  For a core-backed subgroup this is the coset
        distance of u^-1 x, read off the core."""
        z = self.u.inverse() * x
        if isinstance(self.subgroup, FreeSubgroup):
            return self.subgroup.automaton().coset_distance(z)
        return min(distance(h, z) for h in self.subgroup.elements)
