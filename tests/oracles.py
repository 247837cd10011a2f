"""Independent oracles used to freeze expected values.

Everything here is deliberately written against different representations
than the package: strings instead of syllables, BFS graphs instead of
normal-form lengths, numpy eigenvalues instead of power iteration, and a
PSL(2,Z) matrix model of Z2 * Z3 whose arithmetic shares no code with the
package at all.
"""

from __future__ import annotations

import itertools
from collections import deque

import numpy as np
from hypothesis import strategies as st


# -- free groups as strings ------------------------------------------------

def free_reduce(s: str) -> str:
    out: list[str] = []
    for ch in s:
        if out and out[-1] == ch.swapcase():
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


def free_inverse(s: str) -> str:
    return "".join(ch.swapcase() for ch in reversed(s))


def free_letters(rank: int) -> list[str]:
    syms = "abcdefgh"[:rank]
    return list(syms) + [s.upper() for s in syms]


def alternating_search(pools: tuple[list[str], list[str]], n_syllables: int):
    """String model of the amalgam word search.

    Walks alternating words of 1..n letters depth-first, letters of
    ``pools[0]`` first, each pool in its given order, reduces each word by
    ``free_reduce`` and keys the first word of each reduced string in a
    dict.  Returns ("PASS", words, None), ("identity", words, letters) or
    ("collision", words, (first letters, second letters)), where words
    counts the words visited up to and including the one that stopped it.
    """
    first: dict[str, list[str]] = {}
    words = 0

    def walk(prefix: str, trail: list[str], kind: int):
        nonlocal words
        for letter in pools[kind]:
            reduced = free_reduce(prefix + letter)
            seq = trail + [letter]
            words += 1
            if reduced == "":
                return "identity", seq
            if reduced in first:
                return "collision", (first[reduced], seq)
            first[reduced] = seq
            if len(seq) < n_syllables:
                found = walk(reduced, seq, 1 - kind)
                if found:
                    return found
        return None

    for kind in (0, 1):
        found = walk("", [], kind) if n_syllables > 0 else None
        if found:
            return found[0], words, found[1]
    return "PASS", words, None


def free_ball(rank: int, radius: int):
    """Sphere sizes and the full element set by brute BFS over strings."""
    letters = free_letters(rank)
    seen = {""}
    frontier = [""]
    spheres = [1]
    for _ in range(radius):
        new = []
        for w in frontier:
            for l in letters:
                v = free_reduce(w + l)
                if v not in seen:
                    seen.add(v)
                    new.append(v)
        spheres.append(len(new))
        frontier = new
    return spheres, seen


# -- free products as rewritten strings ------------------------------------

def product_reduce(s: str, orders: dict[str, int]) -> str:
    """Normal form via positive-letter rewriting x^m -> 1, iterated."""
    positive = []
    for ch in s:
        low = ch.lower()
        positive.extend([low] * (1 if ch.islower() else orders[low] - 1))
    changed = True
    while changed:
        changed = False
        out: list[tuple[str, int]] = []
        for ch in positive:
            if out and out[-1][0] == ch:
                sym, e = out.pop()
                e = (e + 1) % orders[sym]
                if e:
                    out.append((sym, e))
                changed = changed or (e == 0)
            else:
                out.append((ch, 1))
        merged = []
        for sym, e in out:
            merged.extend([sym] * e)
        changed = changed or (merged != positive and any(
            merged[i] == merged[i + 1] for i in range(len(merged) - 1)))
        positive = merged
        if not any(positive[i] == positive[i + 1] for i in range(len(positive) - 1)):
            break
    return "".join(positive)


def product_canonical_display(s: str, orders: dict[str, int]) -> str:
    """Positive normal form re-spelled with inverse letters on long arcs,
    matching the short spelling the package prints."""
    form = product_reduce(s, orders)
    out = []
    i = 0
    while i < len(form):
        j = i
        while j < len(form) and form[j] == form[i]:
            j += 1
        sym, e, m = form[i], j - i, orders[form[i]]
        if e <= m - e:
            out.append(sym * e)
        else:
            out.append(sym.upper() * (m - e))
        i = j
    return "".join(out)


class ProductCayley:
    """BFS Cayley graph of a free product from the string oracle."""

    def __init__(self, orders: dict[str, int], radius: int):
        self.orders = orders
        letters = []
        for sym, m in orders.items():
            letters.append(sym)
            if m > 2:
                letters.append(sym.upper())
        self.letters = letters
        self.dist = {"": 0}
        self.parents: dict[str, list[str]] = {"": []}
        frontier = [""]
        self.spheres = [1]
        for d in range(radius):
            new = []
            for w in frontier:
                for l in letters:
                    v = product_reduce(w + l, orders)
                    if v not in self.dist:
                        self.dist[v] = d + 1
                        self.parents[v] = [w]
                        new.append(v)
                    elif self.dist[v] == d + 1 and w not in self.parents[v]:
                        self.parents[v].append(w)
            self.spheres.append(len(new))
            frontier = new

    def distance(self, u: str, v: str) -> int:
        """d(u, v) = |u^-1 v| read off the BFS table."""
        # inverse of u: reverse and invert each letter (x -> x^{m-1})
        inv = []
        for ch in reversed(u):
            m = self.orders[ch.lower()]
            if ch.islower():
                inv.extend([ch] * (m - 1))
            else:
                inv.append(ch.lower())
        w = product_reduce("".join(inv) + v, self.orders)
        return self.dist[w]

    def geodesics(self, u: str, v: str):
        """All geodesic vertex paths from u to v with u = identity."""
        assert u == ""
        target = product_reduce(v, self.orders)
        paths = []

        def back(w, acc):
            if w == "":
                paths.append([""] + list(reversed(acc)))
                return
            for p in self.parents[w]:
                back(p, acc + [w])

        back(target, [])
        return paths


# -- PSL(2, Z) model of Z2 * Z3 --------------------------------------------

S = np.array([[0, -1], [1, 0]], dtype=np.int64)       # order 2
ST = np.array([[0, -1], [1, 1]], dtype=np.int64)      # order 3


def _psl_key(m: np.ndarray) -> tuple:
    flat = tuple(int(x) for x in m.flatten())
    neg = tuple(-x for x in flat)
    return min(flat, neg)


class PslCayley:
    """Cayley graph of PSL(2,Z) = Z2 * Z3 on {S, ST, (ST)^2}, by matrices.

    Entirely independent arithmetic: 2x2 integer matrices modulo sign.
    """

    def __init__(self, radius: int):
        self.gens = [S, ST, np.array([[-1, -1], [1, 0]], dtype=np.int64)]  # (ST)^2
        eye = np.eye(2, dtype=np.int64)
        self.dist = {_psl_key(eye): 0}
        frontier = [eye]
        self.spheres = [1]
        for d in range(radius):
            new = []
            for m in frontier:
                for g in self.gens:
                    w = m @ g
                    k = _psl_key(w)
                    if k not in self.dist:
                        self.dist[k] = d + 1
                        new.append(w)
            self.spheres.append(len(new))
            frontier = new

    def word_distance(self, letters: str) -> int:
        """Distance of the element spelled by letters in {x, y, Y}."""
        m = np.eye(2, dtype=np.int64)
        table = {"x": S, "y": ST, "Y": np.array([[-1, -1], [1, 0]], dtype=np.int64)}
        for ch in letters:
            m = m @ table[ch]
        return self.dist[_psl_key(m)]


# -- subgroup membership by closure -----------------------------------------

def closure_membership(rank: int, gens: list[str], radius: int, pad: int = 4) -> set[str]:
    """Elements of <gens> within radius, by padded closure (free group)."""
    gens = [free_reduce(g) for g in gens]
    gens = gens + [free_inverse(g) for g in gens]
    bound = radius + pad
    members = {""}
    frontier = {""}
    while frontier:
        new = set()
        for h in frontier:
            for g in gens:
                w = free_reduce(h + g)
                if len(w) <= bound and w not in members:
                    members.add(w)
                    new.add(w)
        frontier = new
    return {w for w in members if len(w) <= radius}


# -- random subgroups of F2 (hypothesis strategies) --------------------------

def _reduced(first: str, steps: list[int]) -> str:
    word = first
    for i in steps:
        word += [c for c in "abAB" if c != word[-1].swapcase()][i]
    return word


def reduced_words(n: int):
    """Hypothesis strategy: reduced words of length n in F2."""
    return st.builds(_reduced, st.sampled_from("abAB"),
                     st.lists(st.integers(0, 2), min_size=n - 1, max_size=n - 1))


# generator lists of random subgroups of F2
SUBGROUPS = st.one_of(
    st.tuples(reduced_words(5), reduced_words(7)).map(list),  # sparse
    st.integers(2, 6).map(lambda k: ["a" * k, "b" * k]),      # periodic
    st.integers(1, 6).flatmap(reduced_words).map(lambda w: [w]),  # cyclic, maybe with a stem
)


# -- folded cores and transfer matrices --------------------------------------

def canonical_form(core) -> tuple:
    """BFS relabeling of a folded core graph from its base, in a fixed
    edge order.  Two folded cores describe the same subgroup iff their
    canonical forms are equal."""
    order = {core.base: 0}
    queue = deque([core.base])
    while queue:
        v = queue.popleft()
        for side in (core.out[v], core.into[v]):
            for g in sorted(side):
                if side[g] not in order:
                    order[side[g]] = len(order)
                    queue.append(side[g])
    edges = tuple(sorted((order[u], g, order[v]) for u, g, v in core.edges))
    return (len(order), edges)


def spectral_radius(matrix: np.ndarray) -> float:
    """Largest eigenvalue modulus via numpy (not power iteration)."""
    return float(max(abs(np.linalg.eigvals(matrix.astype(float)))))


def syllable_transfer_z2z3() -> np.ndarray:
    """Two syllable types (x-type, y-type) of length 1 each: the sphere DP
    transition matrix of Z2 * Z3."""
    return np.array([[0.0, 2.0], [1.0, 0.0]])
