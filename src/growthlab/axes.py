"""Axes of infinite-order elements and exact nearest-point projections.

The axis of g = u w u^-1 (w the cyclically reduced core) is the vertex
line A = { u . p : p a prefix of the spelling of w^infty or w^-infty },
indexed by an integer position t.  The line is geodesic, <uwu^-1>-invariant,
and g translates it by exactly |w|, which is therefore the asymptotic
translation length.

Projections are exact nearest-vertex maps computed by a windowed walk
along the line: d(x, vertex(t)) >= |t| - d(x, vertex(0)), so positions
beyond |t| = 2 d(x, vertex(0)) can never beat the best seen and the
window search is provably sufficient.  Ties (possible only around even
cycles of a free product) are broken toward the position of smallest
absolute value.  That settles every tie: equally near vertices lie on
one arc of one cycle, and positions t and -t on one arc would put
vertex(0) strictly inside it, which the cyclically reduced core rules out.

The projection onto a translate uA is u . pi_A(u^-1 x).  A translated map
keeps the positions of the base axis, so projected distances and
diameters stay integer position arithmetic, and it shares the base map's
memo, which is keyed by u^-1 x.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FiniteOrderElement
from .groups import MarkedGroup, Word, cyclic_reduce, distance, is_torsion


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
        self._fwd = core.letters()
        self._bwd = core.inverse().letters()
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
    with memoization."""

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
        vertex = self.axis.vertex
        d0 = distance(vertex(0), x)
        window = 2 * d0 + self.axis.translation_length + 2
        # order: (dist, |t|)
        best_d, best_abs, best_t = d0 + 1, 0, 0
        for t in range(-window, window + 1):
            d = distance(vertex(t), x)
            if d > best_d:
                continue
            a = t if t >= 0 else -t
            if d < best_d or a < best_abs:
                best_d, best_abs, best_t = d, a, t
        return ProjectionResult(position=best_t, vertex=vertex(best_t), dist=best_d)

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

