"""Stallings core graphs for finitely generated subgroups of free groups.

A core graph is a folded, connected, base-pointed graph with edges labeled
by positive generators; inverse letters traverse edges backwards.  Words
are read through it in one way, ``coset_key``, and a reduced word lies in
the subgroup iff it labels a base-to-base path.  Reduced
words of the subgroup correspond exactly to non-backtracking base-to-base
paths, so |B_G(o,r) & H| is a non-backtracking path count: a dynamic
program over the successor lists of the directed half-edges, in Python
integers, exact at any radius.  The relative growth rate omega_H is the
log of the Perron root of the same non-backtracking (Hashimoto) matrix,
read off its eigenvalues, which also settles periodic matrices.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .balls import BallCounts, GrowthEstimate, refuse_elements
from .errors import NotFreeGroup, PowerIterationDiverged
from .groups import MarkedGroup, Word


class CoreGraph:
    """Folded subgroup graph.  Immutable after construction.

    ``step[v][l]`` is where the signed letter l leads from vertex v: edge
    (u, g, v) reads g + 1 from u and -(g + 1) from v, as in ``by_tail``.
    Folded means that no vertex reads one letter twice."""

    def __init__(self, group: MarkedGroup, n_vertices: int,
                 edges: Sequence[tuple[int, int, int]]):
        self.group = group
        self.n_vertices = n_vertices
        self.base = 0
        self.edges = tuple(sorted(edges))
        self.step: list[dict[int, int]] = [{} for _ in range(n_vertices)]
        for u, g, v in self.edges:
            if g + 1 in self.step[u] or -(g + 1) in self.step[v]:
                raise ValueError("core graph is not folded")
            self.step[u][g + 1] = v
            self.step[v][-(g + 1)] = u

    # -- membership and index -------------------------------------------

    def contains(self, w: Word) -> bool:
        return coset_key(self, w) == (self.base, ())

    def index(self) -> int | float:
        """Subgroup index: the vertex count if the graph is complete, else inf.

        No vertex has more than k edges out or k in, so the graph is
        complete iff it has k edges per vertex."""
        complete = len(self.edges) == self.group.rank * self.n_vertices
        return self.n_vertices if complete else math.inf

    @functools.cached_property
    def depths(self) -> dict[int, int]:
        """Core-BFS distance d(v) from the base to every vertex.

        d(v) is the distance from the coset of v to H in the Schreier
        graph, since the forest hanging off the core offers no shortcuts.
        Every vertex lies on a reduced base loop, and the geodesic between
        two orbit points h o, h' o reads such a loop, so max d(v) is the
        exact quasi-convexity constant eta of the orbit H o.
        """
        depth = {self.base: 0}
        frontier = [self.base]
        while frontier:
            nxt = []
            for v in frontier:
                for w in self.step[v].values():
                    if w not in depth:
                        depth[w] = depth[v] + 1
                        nxt.append(w)
            frontier = nxt
        return depth

    # -- enumeration ------------------------------------------------------

    @functools.cached_property
    def by_tail(self) -> tuple[tuple[tuple[int, int, int], ...], ...]:
        """The half-edges (id, head, letter) leaving each vertex, by id.

        Edge e = (u, g, v) is half-edge 2e from u, reading g + 1, and its
        reverse 2e + 1 from v, reading -(g + 1); so i ^ 1 reverses i.
        """
        table: list[list[tuple[int, int, int]]] = [[] for _ in range(self.n_vertices)]
        for e, (u, g, v) in enumerate(self.edges):
            table[u].append((2 * e, v, g + 1))
            table[v].append((2 * e + 1, u, -(g + 1)))
        return tuple(map(tuple, table))

    def elements_in_ball(self, radius: int) -> Iterator[Word]:
        """Subgroup elements of length <= radius, identity first, under ``balls.ELEMENT_CAP``."""
        refuse_elements(sum(self.counts_by_length(radius)), f"of H in B(o, {radius})")
        yield self.group.identity()
        yield from self._base_loops([], radius, self.base, -2)

    def _base_loops(self, letters: list[int], radius: int, vertex: int,
                    last_id: int) -> Iterator[Word]:
        """The reduced loops at the base that extend the path ``letters``,
        which ends at ``vertex`` by half-edge ``last_id``, by at most
        radius - len(letters) letters, depth-first in ``by_tail`` order.
        A method, not a closure: a closure that recurses refers to itself,
        a cycle that only the cyclic collector frees."""
        if len(letters) >= radius:
            return
        for did, head, letter in self.by_tail[vertex]:
            if did == last_id ^ 1:
                continue
            letters.append(letter)
            if head == self.base:
                yield self.group.from_letters(letters)
            yield from self._base_loops(letters, radius, head, did)
            letters.pop()

    @functools.cached_property
    def successors(self) -> tuple[tuple[int, ...], ...]:
        """Non-backtracking successors of every directed half-edge.

        Half-edge i (as numbered by ``by_tail``) may be followed by every
        half-edge leaving its head except its own reverse, i ^ 1.
        """
        succ: list[tuple[int, ...]] = [()] * (2 * len(self.edges))
        for halves in self.by_tail:
            for i, head, _ in halves:
                succ[i] = tuple(j for j, _, _ in self.by_tail[head] if j != i ^ 1)
        return tuple(succ)

    def counts_by_length(self, r_max: int) -> list[int]:
        """|{h in H : |h| = n}| for n = 0..r_max, exact at any radius.

        ways[i] counts the non-backtracking paths from the base whose last
        half-edge is i; each step pushes them along the successor lists.
        """
        succ = self.successors
        ways = [0] * len(succ)
        for i, _, _ in self.by_tail[self.base]:
            ways[i] = 1
        ends = [i ^ 1 for i, _, _ in self.by_tail[self.base]]
        counts = [1]
        for _ in range(r_max):
            counts.append(sum(ways[i] for i in ends))
            step = [0] * len(ways)
            for i, w in enumerate(ways):
                if w:
                    for j in succ[i]:
                        step[j] += w
            ways = step
        return counts

    def transfer_matrix(self) -> np.ndarray:
        """The non-backtracking (Hashimoto) matrix over directed half-edges."""
        T = np.zeros((len(self.successors),) * 2, dtype=np.float64)
        for i, row in enumerate(self.successors):
            T[i, list(row)] = 1.0
        return T

    @functools.cached_property
    def perron(self) -> tuple[float, int]:
        """(rho, p): the Perron root of ``transfer_matrix`` and its period.

        The eigenvalues of modulus rho are rho times the p-th roots of
        unity (Perron-Frobenius on the core's cycles; the half-edges of a
        hanging path to the base only add the eigenvalue 0), so p is read
        off the smallest positive angle among them.  (0.0, 0) for the
        trivial subgroup, whose core has no edges.
        """
        if not self.edges:
            return 0.0, 0
        eig = np.linalg.eigvals(self.transfer_matrix())
        rho = float(np.abs(eig).max())
        angles = np.angle(eig[np.abs(np.abs(eig) - rho) <= 1e-7 * rho]) % (2 * math.pi)
        angles = angles[(angles > 1e-6) & (angles < 2 * math.pi - 1e-6)]
        period = round(2 * math.pi / float(angles.min())) if angles.size else 1
        return rho, period

    @property
    def rank(self) -> int:
        """The rank of the subgroup, E - V + 1: the core is connected, and
        its fundamental group is free on the edges outside a spanning tree."""
        return len(self.edges) - self.n_vertices + 1

    def spectral_rate(self) -> float:
        """omega_H = log rho, or 0 at rank <= 1, a trivial or cyclic
        subgroup, where rho <= 1 (rank >= 2 gives rho > 1)."""
        return math.log(self.perron[0]) if self.rank > 1 else 0.0

    def __repr__(self) -> str:
        return f"CoreGraph({self.n_vertices} vertices, {len(self.edges)} edges)"


def coset_key(core: CoreGraph, w: Word) -> tuple[int, tuple[int, ...]]:
    """The key (v, s) of the coset Hw, read off the core in O(|w|).

    v is the core vertex where reading the reduced word w from the base
    stops and s the unread suffix, empty when w ends inside the core.
    Hu = Hw iff their keys agree, and w lies in H iff its key is (base, ()).
    """
    v = core.base
    letters = w.letters()
    for i, l in enumerate(letters):
        nxt = core.step[v].get(l)
        if nxt is None:
            return v, tuple(letters[i:])
        v = nxt
    return v, ()


def stallings_fold(group: MarkedGroup, generators: Sequence[Word]) -> CoreGraph:
    """Fold the wedge of generator loops into the subgroup's core graph.

    Each generator becomes a loop at the base, vertex 0, and ``_fold``
    folds the wedge.
    """
    if not group.is_free:
        raise NotFreeGroup("Stallings graphs require a free group")
    if any(w.group != group for w in generators):
        raise NotFreeGroup("generator from a different group")
    return _fold(group, 1, (), generators)


def _fold(group: MarkedGroup, n_vertices: int, edges: Sequence[tuple[int, int, int]],
          loops: Sequence[Word]) -> CoreGraph:
    """Fold the graph of ``edges`` on vertices 0..n_vertices - 1, with each
    word of ``loops`` added as a loop at the base, vertex 0.

    Whole passes unite the heads of equal-labelled edges out of one
    vertex, and the tails of those into one, until a pass makes no union;
    a union keeps the smaller id, so the base represents its class.

    No vertex needs pruning when ``edges`` is a core or empty.  Words are
    reduced, so the two half-edges at each interior vertex of a loop carry
    different labels.  Folding only merges vertices, and identifies two
    half-edges only when they leave one vertex with one label, so every
    class keeps two half-edges: no vertex but the base ends with degree 1.
    So the core's vertices are all the classes, numbered in the order of
    their least ids.
    """
    parent = list(range(n_vertices))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def union(u: int, v: int) -> bool:
        u, v = find(u), find(v)
        if u == v:
            return False
        parent[max(u, v)] = min(u, v)
        return True

    base = 0
    edges = list(edges)
    for w in loops:
        letters = w.letters()
        fresh = list(range(len(parent), len(parent) + len(letters) - 1))
        parent.extend(fresh)
        loop = [base, *fresh, base]
        for cur, l, nxt in zip(loop, letters, loop[1:]):
            if l > 0:
                edges.append((cur, l - 1, nxt))
            else:
                edges.append((nxt, -l - 1, cur))

    merged = True
    while merged:
        merged = False
        heads: dict[tuple[int, int], int] = {}
        tails: dict[tuple[int, int], int] = {}
        for u, g, v in edges:
            u, v = find(u), find(v)
            merged |= union(v, heads.setdefault((u, g), v))
            merged |= union(u, tails.setdefault((v, g), u))

    classes = sorted({find(v) for v in range(len(parent))})
    relabel = {v: i for i, v in enumerate(classes)}
    folded = {(relabel[find(u)], g, relabel[find(v)]) for u, g, v in edges}
    return CoreGraph(group, n_vertices=len(classes), edges=folded)


# -- relative growth ------------------------------------------------------


def power_iteration(T: np.ndarray, tol: float = 1e-10, stable_steps: int = 5,
                    max_iter: int = 100_000) -> tuple[float, int]:
    """Rayleigh-quotient power iteration for a nonnegative matrix.

    Stops when the quotient varies less than tol over ``stable_steps``
    consecutive steps; raises PowerIterationDiverged at the iteration cap
    (periodic matrices may never settle).  ``relative_growth`` does not
    use it: it reads the Perron root off the eigenvalues instead.
    """
    n = T.shape[0]
    if n == 0:
        return 0.0, 0
    v = np.ones(n)
    history: list[float] = []
    for it in range(max_iter):
        w = T @ v
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0, it
        w /= norm
        rayleigh = float(w @ (T @ w))
        history.append(rayleigh)
        if len(history) >= stable_steps and max(history[-stable_steps:]) - min(history[-stable_steps:]) < tol:
            return rayleigh, it
        v = w
    raise PowerIterationDiverged(f"no convergence after {max_iter} iterations")


@dataclass(frozen=True)
class RelativeGrowth:
    """Relative growth data for a subgroup: exact counts and the spectral rate."""

    counts: BallCounts
    spectral: GrowthEstimate


def relative_growth(core: CoreGraph, r_max: int) -> RelativeGrowth:
    """|B_G(o,r) & H| counts with the exact spectral rate omega_H."""
    rho, period = core.perron
    note = (f"Perron root {rho:.12g}, period {period}" if core.edges
            else "trivial subgroup")
    spectral = GrowthEstimate(core.spectral_rate(), "spectral_radius", (0, r_max), 0.0,
                              notes=(note,))
    return RelativeGrowth(counts=BallCounts(tuple(core.counts_by_length(r_max))),
                          spectral=spectral)
