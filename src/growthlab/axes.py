"""Axes of infinite-order elements and exact nearest-point projections.

The axis of g = u w u^-1 (w the cyclically reduced core) is the vertex
line A = { u . p : p a prefix of the spelling of w^infty or w^-infty },
indexed by an integer position t.  The line is geodesic, <uwu^-1>-invariant,
and g translates it by exactly |w|, which is therefore the asymptotic
translation length.

Projections are exact nearest-vertex maps read off the word in O(|x|)
(Bridson-Haefliger, Metric Spaces of Non-positive Curvature, III.H.1).
Left multiplication by u^-1 is an isometry onto the line L through o, so
pi_A(x) has the position of pi_L(y), y = u^-1 x.  The two rays of L
leave o on different edges: w is cyclically reduced, so the first
letters of w and w^-1 differ, and in a free product the first and last
syllables of w lie on different generators.  Hence at most one ray can
share a first letter (a first generator) with y.

Free groups.  The Cayley graph is a tree.  The geodesic from o to y runs
along one ray for the k letters that y shares with its spelling, then
leaves L for good, and every path from y to L passes through the vertex
where it left.  That vertex is the unique nearest point: t = +-k and
d = |y| - k.  Letters are compared, not syllables: for a one-syllable
core such as a, w^infty is a single unbounded syllable.

Free products of finite cyclics.  The Cayley graph is a tree of cycles:
the coset v<x_i> spans a cycle of length m_i (one edge when m_i = 2),
and every vertex is a cut vertex joining one cycle per generator.  L
crosses one cycle per syllable of w^+-infty, along the syllable's
canonical arc, and passes between cycles at cut vertices.  Let y share k
whole syllables with one ray, ending at P on L at position T = |P|.
 - y = P: y lies on L, d = 0.
 - The next syllable of y is on another generator than the ray's next
   one: the rest of y lies in a component of the graph minus P that
   misses L, so every path to L passes through P; pi = P, d = |y| - T.
 - The next syllable x_i^f is on the ray's generator, with f != e for
   the ray's x_i^e: Q = P x_i^f lies on the cycle C whose arc P x_i^(js),
   j = 0..c, L crosses (s = +-1 its direction, c = |x_i^e|).  The rest of
   y leaves Q on other generators, so d(y, v) = |y| - T - |x_i^f| +
   d(Q, v).  A vertex of L off the arc is reached from C only through an
   end of the arc, and is strictly farther than that end, so the minimum
   and every tie lie on the arc.  With r the residue of x_i^f read in
   direction s, d(Q, arc) is 0 at j = r when r <= c, and otherwise
   min(r - c, m_i - r), at j = c or j = 0.
Ties (the last case, at r - c = m_i - r, so m_i even) go to j = 0.  The
rule is the least (dist, |t|): all arc positions share one sign, so the
smallest j is the smallest |t|, and no two nearest vertices ever have
equal |t|.

The projection onto a translate uA is u . pi_A(u^-1 x).  A translated map
keeps the positions of the base axis, so projected distances and
diameters stay integer position arithmetic, and it shares the base map's
memo, which is keyed by u^-1 x.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FiniteOrderElement
from .groups import MarkedGroup, Word, _cost, cyclic_reduce, is_torsion


@dataclass(frozen=True)
class ProjectionResult:
    position: int
    vertex: Word
    dist: int


class Axis:
    """The invariant line of an infinite-order element.  Immutable."""

    def __init__(self, element: Word):
        if is_torsion(element):
            raise FiniteOrderElement(f"{element} has finite order; no axis")
        conj, core = cyclic_reduce(element)
        self.group: MarkedGroup = element.group
        self.element = element
        self.conjugator = conj
        self.core = core
        self.translation_length = core.length
        self._conj_inv = conj.inverse()
        self._fwd = core.letters()
        self._bwd = core.inverse().letters()
        self._rays = ((1, core.syllables), (-1, core.inverse().syllables))
        # line words grown on demand; _line[t] = conj * spelling(t)
        self._pos: list[Word] = [conj]
        self._neg: list[Word] = [conj]

    def _line(self, t: int) -> Word:
        cache = self._pos if t >= 0 else self._neg
        letters = self._fwd if t >= 0 else self._bwd
        n = abs(t)
        if n < len(cache):
            return cache[n]
        step = self.group.letter_table
        while len(cache) <= n:
            i = len(cache) - 1
            cache.append(cache[-1] * step[letters[i % len(letters)]])
        return cache[n]

    def vertex(self, t: int) -> Word:
        return self._line(t)

    def vertices_in_ball(self, radius: int) -> list[tuple[int, Word]]:
        """All (t, vertex) with |vertex| <= radius."""
        out = []
        anchor = self.conjugator.length
        for direction in (1, -1):
            t = 0 if direction == 1 else -1
            while True:
                # |vertex(t)| >= |t| - |conjugator|: safe cutoff
                if abs(t) - anchor > radius:
                    break
                v = self.vertex(t)
                if v.length <= radius:
                    out.append((t, v))
                t += direction
        return sorted(out)

    def __repr__(self) -> str:
        return f"Axis({self.element}; core={self.core}, u={self.conjugator})"


class ProjectionMap:
    """Exact nearest-point projection onto an axis or a translate of it,
    with memoization.

    Each new point costs one word product and one pass over its letters
    (free groups) or syllables (free products), as the module docstring
    proves.  The nearest vertex is unique in a free group; in a free
    product, equally near vertices lie on one arc of one cycle, and the
    one of least |t| wins.
    """

    def __init__(self, axis: Axis, u: Word | None = None,
                 _cache: dict[Word, ProjectionResult] | None = None):
        self.axis = axis
        self.group = axis.group
        self.u = axis.group.identity() if u is None else u
        self._uinv = self.u.inverse()
        self._cache: dict[Word, ProjectionResult] = {} if _cache is None else _cache

    def translated(self, u: Word) -> "ProjectionMap":
        """The projection onto u times this map's axis; shares the memo."""
        return ProjectionMap(self.axis, u * self.u, self._cache)

    def project(self, x: Word) -> ProjectionResult:
        u = self.u
        if u.syllables:
            x = self._uinv * x
        result = self._cache.get(x)
        if result is None:
            result = self._cache[x] = self._nearest(x)
        if u.syllables:
            return ProjectionResult(result.position, u * result.vertex, result.dist)
        return result

    def _nearest(self, x: Word) -> ProjectionResult:
        axis = self.axis
        y = axis._conj_inv * x
        if self.group.is_free:
            letters = y.letters()
            ray, sign = (axis._fwd, 1) if letters[:1] == axis._fwd[:1] else (axis._bwd, -1)
            n, k = len(ray), 0
            while k < len(letters) and letters[k] == ray[k % n]:
                k += 1
            t, dist = sign * k, len(letters) - k
        else:
            t, dist = self._read_cycles(y)
        return ProjectionResult(position=t, vertex=axis.vertex(t), dist=dist)

    def _read_cycles(self, y: Word) -> tuple[int, int]:
        """(position, dist) of pi_L(y) in a free product (module docstring)."""
        sylls = y.syllables
        for sign, ray in self.axis._rays:
            if sylls and sylls[0][0] == ray[0][0]:
                break
        else:
            return 0, y.length
        orders = self.group.orders
        n, k, at = len(ray), 0, 0
        while k < len(sylls) and sylls[k] == ray[k % n]:
            i, e = sylls[k]
            at += _cost(orders[i], e)
            k += 1
        if k == len(sylls):
            return sign * at, 0
        (i, f), (ray_i, e) = sylls[k], ray[k % n]
        if i != ray_i:
            return sign * at, y.length - at
        m = orders[i]
        c, r = (e, f) if 2 * e <= m else (m - e, m - f)
        rest = y.length - at - _cost(m, f)
        if r <= c:
            return sign * (at + r), rest
        if r - c < m - r:
            return sign * (at + c), rest + r - c
        return sign * at, rest + m - r

    def axis_points_in_ball(self, radius: int) -> list[Word]:
        """The vertices of the projected line (u times the axis) in B(o, radius)."""
        u = self.u
        pts = (u * v for _, v in self.axis.vertices_in_ball(radius + u.length))
        return [w for w in pts if w.length <= radius]

    def position(self, x: Word) -> int:
        return self.project(x).position

    def dist_to_axis(self, x: Word) -> int:
        """Exact d(x, A)."""
        return self.project(x).dist

    # -- projected metrics (positions are exact: d(v(t), v(t')) = |t - t'|) --

    def projected_distance(self, x: Word, y: Word) -> int:
        return abs(self.position(x) - self.position(y))

    def projected_diameter(self, points) -> int:
        """diam_A(Y) over a finite set; empty sets have diameter 0."""
        ts = [self.position(p) for p in points]
        if not ts:
            return 0
        return max(ts) - min(ts)

    def projected_set_distance(self, xs, ys) -> int:
        """d_A(Y, Z) = min pairwise projected distance (inf over finite sets)."""
        txs = sorted(self.position(p) for p in xs)
        tys = sorted(self.position(p) for p in ys)
        if not txs or not tys:
            return 0
        best = abs(txs[0] - tys[0])
        i = j = 0
        while i < len(txs) and j < len(tys):
            best = min(best, abs(txs[i] - tys[j]))
            if txs[i] < tys[j]:
                i += 1
            else:
                j += 1
        return best

