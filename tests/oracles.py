"""Independent oracles used to freeze expected values.

Everything here is deliberately written against different representations
than the package: strings instead of syllables, BFS graphs instead of
normal-form lengths, numpy eigenvalues instead of power iteration, and a
PSL(2,Z) matrix model of Z2 * Z3 whose arithmetic shares no code with the
package at all.  Two exceptions measure with the package's ``distance``
(itself checked against the string models): ``nearest_by_window``, a scan
along an axis that is the reference for the exact projection, and the
per-pair scans of the projection audits, which spell every geodesic of
each pair from x^-1 y and are the reference for the per-source traversals
of ``growthlab.audits``.  The ball scan ``closure_by_scan`` multiplies
package words too; it is the reference for the elementary closure read
off the axis, and the pair scan ``unclosed_product`` for its closure
under products.  Subgroup membership in F_k reads ``string_fold``, a
Stallings fold over strings.  The coarse-quotient references are the
package's own former scans: ``selector_certifies`` walks the ball at one
power with ``ProjectionMap``, and ``cq1_by_pairs`` measures every pair of
each class with ``distance``.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass

import numpy as np
from hypothesis import strategies as st

from growthlab import Axis, ProjectionMap, ball_elements, distance, is_torsion, primitive_root
from growthlab.audits import ConstrictionReport
from growthlab.errors import BudgetExceeded, NotFoundWithinBound
from growthlab.stallings import coset_key


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


def ball_order(symbols, orders, radius: int) -> list[str]:
    """B(o, radius) spelled as strings, in the order of a DFS that appends
    one syllable on another generator at a time.  Generators are tried in
    order; on a free generator x the syllables x, X, xx, XX, ...; on a
    factor of order m the powers x^1 .. x^(m-1), each spelled short (as
    X^(m-e) when m - e < e)."""
    def syllables(sym, m):
        if m == 0:
            return [s * t for t in range(1, radius + 1) for s in (sym, sym.upper())]
        return [sym * e if 2 * e <= m else sym.upper() * (m - e) for e in range(1, m)]

    table = [syllables(sym, m) for sym, m in zip(symbols, orders)]
    out = ["1"]

    def walk(spelled: str, last: int):
        for i, spellings in enumerate(table):
            if i != last:
                for s in spellings:
                    if len(spelled) + len(s) <= radius:
                        out.append(spelled + s)
                        walk(spelled + s, i)

    walk("", -1)
    return out


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


# -- subgroup membership by a string fold -----------------------------------

def string_fold(gens: list[str]) -> tuple[dict[tuple[int, str], int], int]:
    """The Stallings fold of the bouquet of ``gens`` (free group, strings):
    its moves (vertex, letter) -> vertex, upper case for inverse letters,
    and its base.  Equal letters at a vertex are merged, by union-find,
    until no vertex reads a letter twice."""
    edges, n = [], 1
    for g in map(free_reduce, gens):
        path = [0, *range(n, n + len(g) - 1), 0]
        n += max(len(g) - 1, 0)
        edges += zip(path, g, path[1:])
    parent = list(range(n))

    def find(v: int) -> int:
        while parent[v] != v:
            v = parent[v]
        return v

    merged = True
    while merged:
        merged, step = False, {}
        for u, ch, v in edges:
            for key, head in (((find(u), ch), v), ((find(v), ch.swapcase()), u)):
                other = step.setdefault(key, head)
                if find(other) != find(head):
                    parent[find(other)] = find(head)
                    merged = True
    return {key: find(head) for key, head in step.items()}, find(0)


def closure_membership(rank: int, gens: list[str], radius: int) -> set[str]:
    """Elements of <gens> within radius (free group): the reduced words
    that read a base loop of ``string_fold(gens)``, exact for any
    generators (Stallings 1983)."""
    step, base = string_fold(gens)
    letters = free_letters(rank)
    members = set()

    def walk(v: int, word: str) -> None:
        if v == base:
            members.add(word)
        if len(word) < radius:
            for ch in letters:
                head = step.get((v, ch))
                if head is not None and not word.endswith(ch.swapcase()):
                    walk(head, word + ch)

    walk(base, "")
    return members


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


# -- axis projections by a window scan ----------------------------------------

def nearest_by_window(axis, x):
    """(position, dist, vertex) of the nearest point of ``axis`` to x, by
    measuring every position of a window.

    The line is geodesic, so d(x, vertex(t)) >= |t| - d0 with
    d0 = d(x, vertex(0)); a position with |t| > 2 d0 is strictly farther
    than vertex(0), and the window covers every nearer one.  Ties go to
    the least |t|, then to the first position scanned.
    """
    vertex = axis.vertex
    d0 = distance(vertex(0), x)
    window = 2 * d0 + axis.translation_length + 2
    best = min(range(-window, window + 1),
               key=lambda t: (distance(vertex(t), x), abs(t)))
    return best, distance(vertex(best), x), vertex(best)


# -- per-pair scans of the projection audits ---------------------------------

def geodesic_spellings(w):
    """Every geodesic spelling of w: one per choice of arc on each tie
    syllable (exponent m/2 on a factor of even order m > 2)."""
    for choice in itertools.product(*w.syllable_spellings()):
        yield [l for block in choice for l in block]


def _walk(x, letters, memo):
    """The vertex path from x along ``letters``; ``memo`` keeps each edge's
    product, keyed by (vertex, letter)."""
    step = x.group.letter_table
    path = [x]
    for l in letters:
        v = path[-1]
        nxt = memo.get((v, l))
        if nxt is None:
            nxt = memo[(v, l)] = v * step[l]
        path.append(nxt)
    return path


def cs2_by_pairs(points, proj, gap):
    """Least delta certifying CS2 over all pairs of ``points``, pair by pair.

    ``proj[x]`` is (gap key, projection vertex) of x, and ``gap(key_x,
    key_y)`` the projected distance of a pair.  Each pair spells every
    geodesic of x^-1 y, walks it from x and takes the worst approach (the
    larger of its least distances to the two projection vertices), then
    min(gap, worst approach).
    """
    memo = {}
    needed = 0
    for n, x in enumerate(points):
        kx, px = proj[x]
        xinv = x.inverse()
        for y in points[n + 1:]:
            ky, py = proj[y]
            g = gap(kx, ky)
            if g <= needed:
                continue  # cannot raise the running maximum
            worst = 0
            for letters in geodesic_spellings(xinv * y):
                path = _walk(x, letters, memo)
                worst = max(worst, min(distance(v, px) for v in path),
                            min(distance(v, py) for v in path))
                if worst >= g:
                    break  # min(g, worst) is settled
            needed = max(needed, min(g, worst))
    return needed


def constriction_by_pairs(pm, radius):
    """The ConstrictionReport of an axis by the per-pair scan over B(o, r)."""
    points = list(ball_elements(pm.group, radius))
    delta_cs1 = max((pm.project(v).dist for _, v in pm.axis.vertices_in_ball(radius)),
                    default=0)
    proj = {x: (pm.project(x).position, pm.project(x).vertex) for x in points}
    n = len(points)
    return ConstrictionReport(delta_cs1=delta_cs1,
                              delta_cs2=cs2_by_pairs(points, proj, lambda s, t: abs(s - t)),
                              samples=n * (n - 1) // 2)


def lipschitz_image_by_pairs(pm, radius):
    """(theta3, theta4, witnesses) of properties (3) and (4) over B(o, r),
    pair by pair along the canonical geodesic of x^-1 y.  A witness is the
    first pair in scan order that sets the running maximum."""
    memo = {}
    points = list(ball_elements(pm.group, radius))
    theta3 = theta4 = 0
    witnesses = {}
    for n, x in enumerate(points):
        tx = pm.project(x).position
        for y in points[n + 1:]:
            w = x.inverse() * y
            excess = abs(tx - pm.project(y).position) - w.length
            if excess > theta3 or "lipschitz" not in witnesses:
                theta3 = max(theta3, excess)
                witnesses["lipschitz"] = f"x={x}, y={y}"
            path = [pm.project(v) for v in _walk(x, w.letters(), memo)]
            on_axis = [i for i, p in enumerate(path) if p.dist == 0]
            diam_inter = on_axis[-1] - on_axis[0] if on_axis else 0
            positions = [p.position for p in path]
            image = abs(diam_inter - (max(positions) - min(positions)))
            if image > theta4 or "intersection_image" not in witnesses:
                theta4 = max(theta4, image)
                witnesses["intersection_image"] = f"x={x}, y={y}"
    return max(theta3, 0), theta4, witnesses


def eta_by_pairs(orbit, radius):
    """eta of an orbit: the largest distance to the orbit from a vertex on
    any geodesic between two orbit points in B(o, r), pair by pair."""
    memo = {}
    points = orbit.sample_in_ball(radius)
    seen = {}
    for n, x in enumerate(points):
        for y in points[n + 1:]:
            for letters in geodesic_spellings(x.inverse() * y):
                for v in _walk(x, letters, memo):
                    if v not in seen:
                        seen[v] = orbit.distance_to(v)
    return max(seen.values(), default=0)


# -- elementary closures by a ball scan ---------------------------------------

M_SCAN = 4  # a scanned element satisfies u g^m u^-1 = g^{+-m} for some m <= M_SCAN
UNIFORM_M_CAP = 24  # find_M tries M = 1 .. UNIFORM_M_CAP


def is_power_of(w, g) -> bool:
    """True iff w = g^k for some integer k (k = 0 allowed)."""
    if w.is_identity:
        return True
    if is_torsion(w):
        return False
    zg, ng = primitive_root(g)
    zw, nw = primitive_root(w)
    return zw in (zg, zg.inverse()) and nw % ng == 0


def _inverts_or_fixes(g, m):
    """u -> the sign s of u g^m u^-1 = g^{s m}, or 0."""
    gm = g**m
    return lambda u: {gm: 1, gm.inverse(): -1}.get(gm.conjugated_by(u), 0)


def find_M(g, candidates) -> int:
    """Least M >= 1 with u g^M u^-1 = g^{+-M} for every candidate u."""
    cands = list(candidates)
    for m in range(1, UNIFORM_M_CAP + 1):
        if all(map(_inverts_or_fixes(g, m), cands)):
            return m
    raise NotFoundWithinBound(f"no uniform M <= {UNIFORM_M_CAP} for the candidate set")


@dataclass(frozen=True)
class ScannedClosure:
    elements: frozenset
    M: int
    E_generators: tuple
    E_plus_index: int
    index_over_cyclic: int


def closure_members(g, candidates) -> list:
    """The candidates u with u g^m u^-1 = g^{+-m} for some m <= M_SCAN."""
    tests = [_inverts_or_fixes(g, m) for m in range(1, M_SCAN + 1)]
    return [u for u in candidates if any(test(u) for test in tests)]


def closure_by_scan(g, radius) -> ScannedClosure:
    """E(g) & B(o, radius) by testing u g^m u^-1 = g^{+-m} for m <= M_SCAN
    on every ball element, with no use of the structure of E(g).

    M is the least uniform power over the scan, [E : <g>] the number of
    <g>-cosets it meets, E+ has index 2 when some element inverts g^M, and
    the generators are the primitive root and the shortest coset
    representatives that are not powers of it.
    """
    found = closure_members(g, ball_elements(g.group, radius))
    M = find_M(g, found)
    reps = []
    for u in sorted(found, key=lambda w: (w.length, str(w))):
        if not any(is_power_of(u * r.inverse(), g) for r in reps):
            reps.append(u)
    root, _ = primitive_root(g)
    inverts = _inverts_or_fixes(g, M)
    return ScannedClosure(
        elements=frozenset(found), M=M,
        E_generators=(root, *(r for r in reps if not is_power_of(r, root))),
        E_plus_index=2 if any(inverts(u) == -1 for u in found) else 1,
        index_over_cyclic=len(reps))


def unclosed_product(elements, radius):
    """The first ordered pair (u, v) of ``elements`` whose product lies in
    B(o, radius) but not among ``elements``, or None: the scan of every
    pair that once certified ``elementary_closure``, and now checks it."""
    members = set(elements)
    for u, v in itertools.product(elements, repeat=2):
        uv = u * v
        if uv.length <= radius and uv not in members:
            return u, v
    return None


def subgroup_in_ball(gens, radius) -> set:
    """<gens> & B(o, radius), by closing {1} under the generators and their
    inverses inside B(o, radius + 2 max|gen|).  For generators (z, t) of
    E(g) the pad suffices: |z^j| grows with |j|, so the path z, ..., z^i, t
    to z^i t stays within |z^i t| + |t|."""
    steps = [w for g in gens for w in (g, g.inverse())]
    bound = radius + 2 * max(g.length for g in gens)
    members = {gens[0].group.identity()}
    frontier = list(members)
    while frontier:
        new = []
        for h in frontier:
            for step in steps:
                w = h * step
                if w.length <= bound and w not in members:
                    members.add(w)
                    new.append(w)
        frontier = new
        if len(members) > 100_000:
            raise NotFoundWithinBound(f"<{gens}> has over 100,000 elements in B(o, {bound})")
    return {w for w in members if w.length <= radius}


# -- the coarse quotient by walks and pairs ----------------------------------

def selector_certifies(g, M, bound, radius) -> bool:
    """Whether the selector f(u) = 1 when d_A(u^-1, 1) > bound, else g^M,
    has d_A(u^-1, f(u)) > bound at every u of B(o, radius): one walk of the
    ball at one power, as the selector search once made for each M."""
    pm = ProjectionMap(Axis(g))
    one, gM = g.group.identity(), g**M
    for u in ball_elements(g.group, radius):
        f_u = one if pm.projected_distance(u.inverse(), one) > bound else gM
        if pm.projected_distance(u.inverse(), f_u) <= bound:
            return False
    return True


def cq1_by_pairs(subgroup, selector, radius) -> int:
    """theta_CQ1 of phi(u) = u f(u) over B(o, radius): the largest distance
    between phi(u) and phi(v) over every pair u, v whose classes phi(u)H
    agree, with no use of the tree.  f is the selector's rule, read through
    a map of its own, not the selector's."""
    g = selector.g
    pm = ProjectionMap(Axis(g))
    one, gM = g.group.identity(), g**selector.M
    classes: dict = {}
    for u in ball_elements(g.group, radius):
        phi = u * (one if pm.projected_distance(u.inverse(), one) > selector.threshold else gM)
        classes.setdefault(coset_key(subgroup, phi.inverse()), []).append(phi)
    return max((distance(p, q) for members in classes.values()
                for p, q in itertools.combinations(members, 2)), default=0)


FINITE_SUBGROUP_CAP = 4096  # elements a finite subgroup's closure may reach


class FiniteSubgroup:
    """A finite subgroup of a free product, given by closure of its
    generators: the torsion case of the closure, buffering and amalgam
    functions, which take any subgroup with ``elements_in_ball``."""

    def __init__(self, group, generators):
        self.group = group
        elements = {group.identity()}
        frontier = {g for g in generators if not g.is_identity}
        gens = list(generators) + [g.inverse() for g in generators]
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

    def contains(self, w):
        return w in self.elements

    def elements_in_ball(self, radius):
        return (h for h in sorted(self.elements, key=lambda w: (w.length, str(w)))
                if h.length <= radius)

    def counts_by_length(self, r_max):
        """|{h in H : |h| = n}| for n = 0..r_max, as ``CoreGraph`` counts them."""
        return [sum(h.length == n for h in self.elements) for n in range(r_max + 1)]


# -- folded cores and transfer matrices --------------------------------------

def canonical_form(core) -> tuple:
    """BFS relabeling of a folded core graph from its base, in a fixed
    edge order.  Two folded cores describe the same subgroup iff their
    canonical forms are equal."""
    order = {core.base: 0}
    queue = deque([core.base])
    while queue:
        v = queue.popleft()
        step = core.step[v]  # out-edges by label, then in-edges by label
        for letter in sorted(step, key=lambda l: (l < 0, abs(l))):
            if step[letter] not in order:
                order[step[letter]] = len(order)
                queue.append(step[letter])
    edges = tuple(sorted((order[u], g, order[v]) for u, g, v in core.edges))
    return (len(order), edges)


def spectral_radius(matrix: np.ndarray) -> float:
    """Largest eigenvalue modulus via numpy (not power iteration)."""
    return float(max(abs(np.linalg.eigvals(matrix.astype(float)))))


def syllable_transfer_z2z3() -> np.ndarray:
    """Two syllable types (x-type, y-type) of length 1 each: the sphere DP
    transition matrix of Z2 * Z3."""
    return np.array([[0.0, 2.0], [1.0, 0.0]])
