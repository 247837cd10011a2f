"""Stallings core graphs for finitely generated subgroups of free groups.

A core graph is a folded, connected, base-pointed graph with edges labeled
by positive generators; a reduced word lies in the subgroup iff it labels a
base-to-base path (inverse letters traverse edges backwards).  Reduced
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

from .balls import BallCounts, GrowthEstimate
from .errors import NotFreeGroup, PowerIterationDiverged
from .groups import MarkedGroup, Word


class CoreGraph:
    """Folded subgroup graph.  Immutable after construction."""

    def __init__(self, group: MarkedGroup, n_vertices: int,
                 edges: Sequence[tuple[int, int, int]], base: int = 0):
        self.group = group
        self.n_vertices = n_vertices
        self.base = base
        self.edges = tuple(sorted(edges))
        self.out = [dict() for _ in range(n_vertices)]
        self.into = [dict() for _ in range(n_vertices)]
        for u, g, v in self.edges:
            if g in self.out[u] or g in self.into[v]:
                raise ValueError("core graph is not folded")
            self.out[u][g] = v
            self.into[v][g] = u

    # -- membership and index -------------------------------------------

    def trace(self, w: Word, start: int | None = None) -> int | None:
        """Follow the letters of w from a vertex; None when a step is missing."""
        v = self.base if start is None else start
        for l in w.letters():
            v = self.out[v].get(l - 1) if l > 0 else self.into[v].get(-l - 1)
            if v is None:
                return None
        return v

    def contains(self, w: Word) -> bool:
        return self.trace(w) == self.base

    def index(self) -> int | float:
        """Subgroup index: the vertex count if the graph is complete, else inf."""
        k = self.group.rank
        for v in range(self.n_vertices):
            if len(self.out[v]) < k or len(self.into[v]) < k:
                return math.inf
        return self.n_vertices

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
                for w in (*self.out[v].values(), *self.into[v].values()):
                    if w not in depth:
                        depth[w] = depth[v] + 1
                        nxt.append(w)
            frontier = nxt
        return depth

    # -- enumeration ------------------------------------------------------

    def directed_edges(self) -> list[tuple[int, int, int, int]]:
        """Directed halves (tail, head, letter, edge_id); reverse is id^1."""
        out = []
        for eid, (u, g, v) in enumerate(self.edges):
            out.append((u, v, g + 1, 2 * eid))
            out.append((v, u, -(g + 1), 2 * eid + 1))
        return out

    def elements_in_ball(self, radius: int) -> Iterator[Word]:
        """All subgroup elements of length <= radius (identity included)."""
        yield self.group.identity()
        halves = self.directed_edges()
        by_tail: dict[int, list[tuple[int, int, int, int]]] = {}
        for h in halves:
            by_tail.setdefault(h[0], []).append(h)

        letters: list[int] = []

        def walk(vertex: int, last_id: int) -> Iterator[Word]:
            if len(letters) >= radius:
                return
            for (_, head, letter, did) in by_tail.get(vertex, ()):
                if did == last_id ^ 1:
                    continue
                letters.append(letter)
                if head == self.base:
                    yield self.group.from_letters(letters)
                yield from walk(head, did)
                letters.pop()

        yield from walk(self.base, -2)

    @functools.cached_property
    def successors(self) -> tuple[tuple[int, ...], ...]:
        """Non-backtracking successors of every directed half-edge.

        Half-edge i (as numbered by ``directed_edges``) may be followed by
        every half-edge leaving its head except its own reverse, i ^ 1.
        """
        halves = self.directed_edges()
        by_tail: list[list[int]] = [[] for _ in range(self.n_vertices)]
        for i, (tail, _, _, _) in enumerate(halves):
            by_tail[tail].append(i)
        return tuple(tuple(j for j in by_tail[head] if j != i ^ 1)
                     for i, (_, head, _, _) in enumerate(halves))

    def counts_by_length(self, r_max: int) -> list[int]:
        """|{h in H : |h| = n}| for n = 0..r_max, exact at any radius.

        ways[i] counts the non-backtracking paths from the base whose last
        half-edge is i; each step pushes them along the successor lists.
        """
        halves = self.directed_edges()
        ways = [1 if tail == self.base else 0 for tail, _, _, _ in halves]
        ends = [i for i, (_, head, _, _) in enumerate(halves) if head == self.base]
        succ = self.successors
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

    def spectral_rate(self) -> float:
        """omega_H = log rho, or 0 when rho <= 1 (cyclic or trivial subgroups)."""
        rho = self.perron[0]
        return math.log(rho) if rho > 1.0 + 1e-12 else 0.0

    def __repr__(self) -> str:
        return f"CoreGraph({self.n_vertices} vertices, {len(self.edges)} edges)"


def stallings_fold(group: MarkedGroup, generators: Sequence[Word]) -> CoreGraph:
    """Fold the wedge of generator loops into the subgroup's core graph."""
    if not group.is_free:
        raise NotFreeGroup("Stallings graphs require a free group")

    parent: list[int] = [0]

    def new_vertex() -> int:
        parent.append(len(parent))
        return len(parent) - 1

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def union(u: int, v: int):
        u, v = find(u), find(v)
        if u != v:
            parent[max(u, v)] = min(u, v)

    base = 0
    edges: list[tuple[int, int, int]] = []
    for w in generators:
        if w.group != group:
            raise NotFreeGroup("generator from a different group")
        letters = w.letters()
        if not letters:
            continue
        cur = base
        for idx, l in enumerate(letters):
            nxt = base if idx == len(letters) - 1 else new_vertex()
            if l > 0:
                edges.append((cur, l - 1, nxt))
            else:
                edges.append((nxt, -l - 1, cur))
            cur = nxt

    # fold: repeatedly identify targets of equal-labeled parallel edges
    changed = True
    while changed:
        changed = False
        seen_out: dict[tuple[int, int], int] = {}
        seen_in: dict[tuple[int, int], int] = {}
        for u, g, v in edges:
            u, v = find(u), find(v)
            if (u, g) in seen_out and seen_out[(u, g)] != v:
                union(v, seen_out[(u, g)])
                changed = True
                break
            seen_out[(u, g)] = v
            if (v, g) in seen_in and seen_in[(v, g)] != u:
                union(u, seen_in[(v, g)])
                changed = True
                break
            seen_in[(v, g)] = u

    folded = {(find(u), g, find(v)) for u, g, v in edges}

    # prune hanging non-base vertices (possible only from degenerate input)
    while True:
        degree: dict[int, int] = {}
        for u, g, v in folded:
            degree[u] = degree.get(u, 0) + 1
            degree[v] = degree.get(v, 0) + 1
        hanging = {v for v, d in degree.items() if d <= 1 and v != find(base)}
        if not hanging:
            break
        folded = {(u, g, v) for u, g, v in folded if u not in hanging and v not in hanging}

    vertices = {find(base)}
    for u, g, v in folded:
        vertices.add(u)
        vertices.add(v)
    relabel = {v: i for i, v in enumerate(sorted(vertices, key=lambda x: (x != find(base), x)))}
    return CoreGraph(
        group,
        n_vertices=len(vertices),
        edges=[(relabel[u], g, relabel[v]) for u, g, v in folded],
        base=relabel[find(base)],
    )


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

    @property
    def rate(self) -> float:
        return self.spectral.rate


def relative_growth(core: CoreGraph, r_max: int) -> RelativeGrowth:
    """|B_G(o,r) & H| counts with the exact spectral rate omega_H."""
    rho, period = core.perron
    note = (f"Perron root {rho:.12g}, period {period}" if core.edges
            else "trivial subgroup")
    spectral = GrowthEstimate(core.spectral_rate(), "spectral_radius", (0, r_max), 0.0,
                              notes=(note,))
    return RelativeGrowth(counts=BallCounts.from_spheres(core.counts_by_length(r_max)),
                          spectral=spectral)
