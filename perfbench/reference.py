"""Reference computations for checking growthlab's outputs.

Nothing here imports growthlab.  Words are plain strings: a lowercase
letter is a generator, the uppercase letter its inverse.  Subgroups of
F_k are folded from their generator strings, and every count below is an
exact Python integer.
"""

from __future__ import annotations

import math

import numpy as np

FREE_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def inverse(word: str) -> str:
    return word[::-1].swapcase()


def free_reduce(word: str) -> str:
    """Cancel adjacent x X pairs until none is left."""
    out: list[str] = []
    for ch in word:
        if out and out[-1] == ch.swapcase():
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


def relabel(word: str, mapping: dict[str, str]) -> str:
    """Apply a letter substitution given on lowercase letters."""
    out = []
    for ch in word:
        image = mapping[ch.lower()]
        out.append(image if ch.islower() else inverse(image))
    return "".join(out)


# -- free groups -----------------------------------------------------------


def free_sphere(k: int, r: int) -> int:
    return 1 if r == 0 else 2 * k * (2 * k - 1) ** (r - 1)


def free_ball(k: int, r: int) -> int:
    return sum(free_sphere(k, j) for j in range(r + 1))


def free_rate(k: int) -> float:
    return math.log(2 * k - 1)


class FoldedGraph:
    """The folded graph of a subgroup of F_k, base vertex 0.

    ``edges`` holds (tail, lowercase letter, head) triples; a hanging
    vertex other than the base is pruned, so this is the Stallings core
    with the base attached.
    """

    def __init__(self, k: int, generators):
        self.k = k
        edges: list[tuple[int, str, int]] = []
        n = 1
        for word in (free_reduce(w) for w in generators):
            cur = 0
            for i, ch in enumerate(word):
                if i == len(word) - 1:
                    nxt = 0
                else:
                    nxt, n = n, n + 1
                edges.append((cur, ch, nxt) if ch.islower() else (nxt, ch.lower(), cur))
                cur = nxt
        rep = list(range(n))

        def find(v):
            while rep[v] != v:
                v = rep[v]
            return v

        merged = True
        while merged:
            merged = False
            leaving: dict[tuple[int, str], int] = {}
            for u, x, v in edges:
                u, v = find(u), find(v)
                for key, end in (((u, x), v), ((v, x.upper()), u)):
                    other = leaving.setdefault(key, end)
                    if other != end:
                        a, b = sorted((other, end))
                        rep[b] = a
                        merged = True
                        break
                if merged:
                    break
        folded = {(find(u), x, find(v)) for u, x, v in edges}
        while True:
            degree: dict[int, int] = {}
            for u, _, v in folded:
                degree[u] = degree.get(u, 0) + 1
                degree[v] = degree.get(v, 0) + 1
            hanging = {v for v, d in degree.items() if d == 1 and v != 0}
            if not hanging:
                break
            folded = {e for e in folded if e[0] not in hanging and e[2] not in hanging}
        names = sorted({0} | {u for u, _, _ in folded} | {v for _, _, v in folded})
        index = {v: i for i, v in enumerate(names)}
        self.n_vertices = len(names)
        self.edges = sorted((index[u], x, index[v]) for u, x, v in folded)
        # directed half-edges (tail, head, label); half 2i+1 reverses half 2i
        self.halves = []
        for u, x, v in self.edges:
            self.halves.append((u, v, x))
            self.halves.append((v, u, x.upper()))

    def degree(self, v: int) -> int:
        return sum(1 for tail, _, _ in self.halves if tail == v)

    def finite_index(self) -> bool:
        return all(self.degree(v) == 2 * self.k for v in range(self.n_vertices))

    def read(self, word: str) -> int | None:
        """The vertex reached by reading a word from the base, or None."""
        v = 0
        for ch in word:
            step = [head for tail, head, label in self.halves if tail == v and label == ch]
            if not step:
                return None
            v = step[0]
        return v

    def contains(self, word: str) -> bool:
        return self.read(free_reduce(word)) == 0

    def successors(self) -> list[list[int]]:
        """Non-backtracking successors of every half-edge."""
        return [[j for j, (tail, _, _) in enumerate(self.halves)
                 if tail == head and j != i ^ 1]
                for i, (_, head, _) in enumerate(self.halves)]

    def element_counts(self, r: int) -> list[int]:
        """#{h in H : |h| = n} for n = 0..r: reduced base-to-base walks."""
        succ = self.successors()
        ways = [1 if tail == 0 else 0 for tail, _, _ in self.halves]
        counts = [1]
        for _ in range(r):
            counts.append(sum(w for w, (_, head, _) in zip(ways, self.halves) if head == 0))
            nxt = [0] * len(ways)
            for i, w in enumerate(ways):
                if w:
                    for j in succ[i]:
                        nxt[j] += w
            ways = nxt
        return counts

    def nb_matrix(self) -> np.ndarray:
        m = np.zeros((len(self.halves), len(self.halves)))
        for i, row in enumerate(self.successors()):
            m[i, row] = 1.0
        return m

    def perron_root(self) -> float:
        if not self.halves:
            return 0.0
        return float(max(abs(np.linalg.eigvals(self.nb_matrix()))))

    def rate(self) -> float:
        """omega_H: the log of the non-backtracking Perron root."""
        rho = self.perron_root()
        return math.log(rho) if rho > 1.0 + 1e-12 else 0.0

    def periodic(self) -> bool:
        """True when an eigenvalue other than the Perron root has its modulus."""
        if not self.halves:
            return False
        eig = np.linalg.eigvals(self.nb_matrix())
        rho = max(abs(eig))
        on_circle = abs(abs(eig) - rho) < 1e-6 * rho
        return rho > 1e-9 and bool(np.any(on_circle & (abs(eig - rho) > 1e-6 * rho)))

    def depths(self) -> list[int]:
        """Graph distance of every vertex from the base."""
        depth = {0: 0}
        frontier = [0]
        while frontier:
            nxt = []
            for v in frontier:
                for tail, head, _ in self.halves:
                    if tail == v and head not in depth:
                        depth[head] = depth[v] + 1
                        nxt.append(head)
            frontier = nxt
        return [depth[v] for v in range(self.n_vertices)]

    def coset_spheres(self, r: int) -> list[int]:
        """|{Hg : d(H, Hg) = n}| for n = 0..r from the core plus hanging trees.

        |S_n| = #{v : d(v) = n} + sum_v (2k - deg v) (2k - 1)^(n - d(v) - 1).
        """
        depth = self.depths()
        out = []
        for n in range(r + 1):
            total = sum(1 for d in depth if d == n)
            for v, d in enumerate(depth):
                if n > d:
                    total += (2 * self.k - self.degree(v)) * (2 * self.k - 1) ** (n - d - 1)
            out.append(total)
        return out


def fit_residual(cumulative: list[int], lo: int, hi: int) -> float:
    """Max residual of the least-squares line through log cumulative counts."""
    xs = np.arange(lo, hi + 1, dtype=float)
    ys = np.log(np.array(cumulative[lo:hi + 1], dtype=float))
    slope, intercept = np.polyfit(xs, ys, 1)
    return float(np.max(np.abs(ys - (slope * xs + intercept))))


# -- free products of finite cyclic groups ------------------------------------


def product_spheres(orders, r: int) -> list[int]:
    """Sphere sizes of Z_m1 * ... * Z_mj by BFS on syllable tuples."""
    seen = {()}
    frontier = [()]
    spheres = [1]
    for _ in range(r):
        nxt = []
        for w in frontier:
            for i, m in enumerate(orders):
                for step in (1, -1):
                    if w and w[-1][0] == i:
                        e = (w[-1][1] + step) % m
                        cand = w[:-1] + (((i, e),) if e else ())
                    else:
                        cand = w + ((i, step % m),)
                    if cand not in seen:
                        seen.add(cand)
                        nxt.append(cand)
        spheres.append(len(nxt))
        frontier = nxt
    return spheres


# -- words of the amalgam and ping-pong searches -----------------------------


def alternating_words(pool_h: int, pool_k: int, n_syllables: int) -> int:
    """Alternating words of 1..n letters, either letter kind first."""
    total = 0
    for j in range(1, n_syllables + 1):
        total += pool_h ** ((j + 1) // 2) * pool_k ** (j // 2)
        total += pool_k ** ((j + 1) // 2) * pool_h ** (j // 2)
    return total


def ping_pong_words(n_letters: int) -> int:
    """Reduced words of 1..n letters over g1^{+-M}, g2^{+-M}: 2(3^n - 1)."""
    return 2 * (3 ** n_letters - 1)


def is_relation(witness) -> bool:
    """A counterexample witness must spell the identity.

    A list of letters multiplies to the identity; a pair of lists is two
    different letter sequences with the same product.
    """
    if witness and isinstance(witness[0], list):
        first, second = witness
        if first == second:
            return False
        return free_reduce("".join(first) + inverse("".join(second))) == ""
    return free_reduce("".join(witness)) == ""
