"""Empirical audits of projection geometry over exhaustive small balls.

Every audit here measures a constant that the theory only promises to
exist: the constriction constant of an axis, the quasi-convexity constant
of an orbit, the per-property constants of nearest-point projections.
Measured values are reported, never asserted against theoretical ones;
the test suite pins only the exactly-known tree values (delta = 0,
Lipschitz constant 1).

The pair scans (CS2, properties (3), (4) and (7), and eta) stay
exhaustive over every pair of the ball, but they run on integer vertex
ids, not words.  ``_Vertices`` interns each vertex a scan visits and
fills its letter-to-neighbour row lazily, so an edge costs one word
product however many paths cross it; it memoises projections and the
distances to projection vertices by id.  Each pair spells its geodesics
once, from the single product x^-1 y, and walks them through the id
table: the canonical geodesic for (3) and (4), and every tie arc (both
arcs of a syllable x^(m/2)) for CS2, (7) and eta.

Every audit has one fixed design: a scan refuses more than
``DEFAULT_PAIR_CAP`` pairs; properties (6) and (7) sample with seed 0.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .axes import ProjectionMap
from .balls import ball_elements
from .errors import BudgetExceeded
from .groups import Word, distance

DEFAULT_PAIR_CAP = 2_000_000
QG_GRID = ((1, 0), (1, 2), (2, 2), (2, 4))  # (kappa, lambda) quasi-geodesic constants
QG_SAMPLES = 40  # perturbed axis geodesics per grid point
PERTURBATIONS = (0, 1)  # random steps applied to each axis vertex


class _Vertices:
    """The vertices a pair scan visits, interned as ints.

    ``words[i]`` is vertex i.  ``walk`` follows a spelling through
    letter-to-neighbour rows filled on first use, one word product per
    directed edge.  A row is a list indexed by the signed letter itself:
    -l lands at 2k + 1 - l, past the positive letters.  ``project`` (with
    a projection map) and ``dist`` memoise by id, so each vertex is
    projected once and measured once against each projection vertex.
    """

    def __init__(self, group, pm: ProjectionMap | None = None):
        self.words: list[Word] = []
        self._ids: dict[Word, int] = {}
        self._rows: list[list | None] = []
        self._proj: list[tuple[int, int, int] | None] = []
        self._near: list[dict[int, int] | None] = []
        self._pm = pm
        self._letter = group.letter_table
        self._width = 2 * group.rank + 1

    def id(self, w: Word) -> int:
        i = self._ids.get(w)
        if i is None:
            i = self._ids[w] = len(self.words)
            self.words.append(w)
            self._rows.append(None)
            self._proj.append(None)
            self._near.append(None)
        return i

    def walk(self, start: int, letters: list[int]) -> list[int]:
        """Ids of the vertex path from ``start`` along ``letters``."""
        rows = self._rows
        path = [start]
        cur = start
        for l in letters:
            row = rows[cur]
            if row is None:
                row = rows[cur] = [None] * self._width
            nxt = row[l]
            if nxt is None:
                nxt = row[l] = self.id(self.words[cur] * self._letter[l])
            path.append(nxt)
            cur = nxt
        return path

    def project(self, i: int) -> tuple[int, int, int]:
        """(position, dist, vertex id) of the projection of vertex i."""
        hit = self._proj[i]
        if hit is None:
            r = self._pm.project(self.words[i])
            hit = self._proj[i] = (r.position, r.dist, self.id(r.vertex))
        return hit

    def dist(self, i: int, p: int) -> int:
        """d(vertex i, vertex p)."""
        near = self._near[i]
        if near is None:
            near = self._near[i] = {}
        d = near.get(p)
        if d is None:
            d = near[p] = distance(self.words[i], self.words[p])
        return d


def _spellings(w: Word):
    """Every geodesic spelling of w: one per choice of arc on each tie
    syllable (exponent m/2 on a factor of even order m > 2)."""
    for choice in itertools.product(*w.syllable_spellings()):
        yield [l for block in choice for l in block]


def _cs2_delta(vx: _Vertices, points: list[int], proj, gap) -> int:
    """Least delta certifying CS2 over all pairs of ``points`` (vertex ids).

    ``proj[i]`` is (gap key, projection vertex id) of point i, and
    ``gap(key_x, key_y)`` the projected distance of a pair.  A pair with
    projections delta-close is a vacuous case, never a violation, so the
    least certifying delta of a pair is min(gap, worst approach), where the
    approach of a geodesic is the larger of its distances to the two
    projection vertices and the worst is taken over every geodesic.
    """
    words = vx.words
    dist = vx.dist
    needed = 0  # max over pairs of the least certifying delta
    for n, x in enumerate(points):
        kx, px = proj[x]
        xinv = words[x].inverse()
        for y in points[n + 1:]:
            ky, py = proj[y]
            g = gap(kx, ky)
            if g <= needed:
                continue  # cannot raise the running maximum
            worst = 0
            for letters in _spellings(xinv * words[y]):
                path = vx.walk(x, letters)
                ax = 0 if px in path else min(dist(v, px) for v in path)
                ay = 0 if py in path else min(dist(v, py) for v in path)
                worst = max(worst, ax, ay)
                if worst >= g:
                    break  # min(g, worst) is settled
            needed = max(needed, min(g, worst))
    return needed


@dataclass(frozen=True)
class ConstrictionReport:
    """Outcome of the exhaustive CS1/CS2 scan for one axis."""

    delta_cs1: int
    delta_cs2: int
    samples: int

    @property
    def delta(self) -> int:
        return max(self.delta_cs1, self.delta_cs2)


def constriction_audit(pm: ProjectionMap, sample_radius: int) -> ConstrictionReport:
    """Minimal delta certifying CS1 and CS2 over all pairs in B(o, r).

    CS2 is checked against every geodesic between each pair (unique in a
    tree; finitely many around even cycles of a free product).  A pair
    with projections delta-close is a vacuous case, never a violation, so
    the minimal certifying delta for a pair is
    min(d_A(x, y), worst approach distance of its geodesics).
    """
    group = pm.group
    points = list(ball_elements(group, sample_radius, max_elements=DEFAULT_PAIR_CAP))
    n = len(points)
    if n * n > DEFAULT_PAIR_CAP:
        raise BudgetExceeded(f"{n * n} pairs exceed cap {DEFAULT_PAIR_CAP}")

    # CS1: points of the axis must project to themselves.
    delta_cs1 = 0
    for _, v in pm.axis.vertices_in_ball(sample_radius):
        delta_cs1 = max(delta_cs1, pm.project(v).dist)

    vx = _Vertices(group, pm)
    ids = [vx.id(x) for x in points]
    proj = {}
    for i in ids:
        position, _, vertex = vx.project(i)
        proj[i] = (position, vertex)
    needed = _cs2_delta(vx, ids, proj, lambda s, t: abs(s - t))
    return ConstrictionReport(delta_cs1=delta_cs1, delta_cs2=needed,
                              samples=n * (n - 1) // 2)


def quasiconvexity_audit(orbit, sample_radius: int) -> int:
    """Empirical quasi-convexity constant eta of an orbit.

    Max over endpoint pairs in Y & B(o, r) and over all geodesics between
    them of the distance from a geodesic vertex to Y (exact distances).
    """
    points = orbit.sample_in_ball(sample_radius)
    if len(points) ** 2 > DEFAULT_PAIR_CAP:
        raise BudgetExceeded(f"{len(points) ** 2} pairs exceed cap {DEFAULT_PAIR_CAP}")
    vx = _Vertices(orbit.group)
    words = vx.words
    ids = [vx.id(x) for x in points]
    seen: dict[int, int] = {}  # vertex id -> d(vertex, Y), in order of first visit
    for n, x in enumerate(ids):
        xinv = words[x].inverse()
        for y in ids[n + 1:]:
            for letters in _spellings(xinv * words[y]):
                for v in vx.walk(x, letters):
                    if v not in seen:
                        seen[v] = orbit.distance_to(words[v])
    return max(seen.values(), default=0)


@dataclass(frozen=True)
class AuditTable:
    """Measured constants for the elementary projection properties."""

    radius: int
    samples: int
    theta_nearest_point: int          # (1) d(x, pi x) <= d(x, A) + theta
    theta_equivariance: int           # (2) d(pi(hx), h pi(x)) <= theta
    theta_lipschitz: int              # (3) d_A(x, y) <= d(x, y) + theta
    theta_intersection_image: int     # (4) |diam(A^{+d} & gamma) - diam_A(gamma)|
    theta_behrstock: int | None       # (5) min(d_A(x,B), d_B(x,A)) <= theta
    sigma_table: tuple = ()           # (6) ((kappa, lambda, sigma, accepted), ...)
    zeta_table: tuple = ()            # (7) ((epsilon, zeta, samples), ...)
    witnesses: tuple = ()             # ((property, witness string), ...) argmax samples

    def property_rows(self) -> list[dict]:
        """Flat records {property, theta_empirical, samples, worst_witness}."""
        wit = dict(self.witnesses)
        rows = [
            {"property": "nearest_point", "theta_empirical": self.theta_nearest_point},
            {"property": "equivariance", "theta_empirical": self.theta_equivariance},
            {"property": "lipschitz", "theta_empirical": self.theta_lipschitz},
            {"property": "intersection_image", "theta_empirical": self.theta_intersection_image},
        ]
        if self.theta_behrstock is not None:
            rows.append({"property": "behrstock", "theta_empirical": self.theta_behrstock})
        for kappa, lam, sigma, accepted in self.sigma_table:
            rows.append({"property": f"morse({kappa},{lam})", "theta_empirical": sigma,
                         "accepted": accepted})
        for eps, zeta, n in self.zeta_table:
            rows.append({"property": f"coarse_invariance({eps})", "theta_empirical": zeta})
        for row in rows:
            row.setdefault("samples", self.samples)
            row.setdefault("worst_witness", wit.get(row["property"], ""))
        return rows


class SetProjection:
    """Exact nearest-point map onto a finite vertex set (lex tie-break)."""

    def __init__(self, points: list[Word]):
        self.points = sorted(set(points), key=str)
        self._cache: dict[Word, tuple[Word, int]] = {}

    def project(self, x: Word) -> tuple[Word, int]:
        hit = self._cache.get(x)
        if hit is None:
            # points are in label order and min keeps the first of equals
            best = min(self.points, key=lambda p: distance(p, x))
            hit = (best, distance(best, x))
            self._cache[x] = hit
        return hit


def _quasi_geodesic_ok(path: list[Word], kappa: float, lam: float) -> bool:
    for i in range(len(path)):
        for j in range(i + 1, len(path)):
            if j - i > kappa * distance(path[i], path[j]) + lam:
                return False
    return True


def elementary_properties_audit(pm_a: ProjectionMap, pm_b: ProjectionMap | None,
                                sample_radius: int) -> AuditTable:
    """Measure the seven elementary properties over an exhaustive ball.

    Property (4) thickens the axis by 0, on free products too, where the
    CS2 constant can be 1.  Property (5) needs ``pm_b``.  Properties (6)
    and (7) use one design, seeded with 0: QG_SAMPLES spur-perturbed axis
    geodesics per (kappa, lambda) in QG_GRID, and the axis vertex set
    moved by epsilon random steps for each epsilon in PERTURBATIONS.
    """
    group = pm_a.group
    points = list(ball_elements(group, sample_radius, max_elements=DEFAULT_PAIR_CAP))
    rng = random.Random(0)
    window = sample_radius + 2 * max(pm_a.axis.translation_length, 1) + \
        pm_a.axis.conjugator.length + 2

    # (1) exact nearest point: compare against an independent scan of the
    # axis vertices inside the window.
    theta1 = 0
    witnesses: dict[str, str] = {}
    axis_pts = [v for _, v in pm_a.axis.vertices_in_ball(window)]
    for x in points:
        d_proj = pm_a.project(x).dist
        d_set = min(distance(v, x) for v in axis_pts)
        if d_proj - d_set > theta1 or "nearest_point" not in witnesses:
            theta1 = max(theta1, d_proj - d_set)
            witnesses["nearest_point"] = str(x)

    # (2) coarse equivariance under the axis element and its powers
    g = pm_a.axis.element
    theta2 = 0
    for h in (g, g.inverse(), g * g, (g * g).inverse()):
        for x in points:
            lhs = pm_a.project(h * x).vertex
            rhs = h * pm_a.project(x).vertex
            if distance(lhs, rhs) > theta2 or "equivariance" not in witnesses:
                theta2 = max(theta2, distance(lhs, rhs))
                witnesses["equivariance"] = f"h={h}, x={x}"

    # (3) coarse Lipschitz and (4) intersection-image, per pair, along
    # the canonical geodesic
    theta3 = 0
    theta4 = 0
    vx = _Vertices(group, pm_a)
    words = vx.words
    project = vx.project
    ids = [vx.id(x) for x in points]
    for n, x in enumerate(ids):
        wx = words[x]
        xinv = wx.inverse()
        tx = project(x)[0]
        for y in ids[n + 1:]:
            w = xinv * words[y]
            excess = abs(tx - project(y)[0]) - w.length  # w.length = d(x, y)
            if excess > theta3 or "lipschitz" not in witnesses:
                theta3 = max(theta3, excess)
                witnesses["lipschitz"] = f"x={wx}, y={words[y]}"
            path = [project(v) for v in vx.walk(x, w.letters())]
            on_axis = [i for i, (_, d, _) in enumerate(path) if d == 0]
            diam_inter = (on_axis[-1] - on_axis[0]) if on_axis else 0
            positions = [t for t, _, _ in path]
            diam_proj = max(positions) - min(positions)
            if abs(diam_inter - diam_proj) > theta4 or "intersection_image" not in witnesses:
                theta4 = max(theta4, abs(diam_inter - diam_proj))
                witnesses["intersection_image"] = f"x={wx}, y={words[y]}"

    # (5) Behrstock inequality for the pair of axes
    theta5 = None
    if pm_b is not None:
        b_pts = [v for _, v in pm_b.axis.vertices_in_ball(window)]
        a_pts = axis_pts
        proj_a_of_b = [pm_a.position(v) for v in b_pts]
        proj_b_of_a = [pm_b.position(v) for v in a_pts]
        theta5 = 0
        for x in points:
            da = min(abs(pm_a.position(x) - t) for t in proj_a_of_b)
            db = min(abs(pm_b.position(x) - t) for t in proj_b_of_a)
            if min(da, db) > theta5 or "behrstock" not in witnesses:
                theta5 = max(theta5, min(da, db))
                witnesses["behrstock"] = str(x)

    # (6) Morseness: spur-perturbed axis geodesics per (kappa, lambda)
    sigma_rows = []
    off_letters = list(range(1, group.rank + 1)) + [-i for i in range(1, group.rank + 1)]
    step = group.letter_table
    for kappa, lam in QG_GRID:
        accepted = 0
        sigma = 0
        max_spur = int(lam // 2)
        for _ in range(QG_SAMPLES):
            t0 = rng.randint(-sample_radius, 0)
            t1 = rng.randint(1, sample_radius)
            path = [pm_a.axis.vertex(t) for t in range(t0, t1 + 1)]
            if max_spur > 0:
                out: list[Word] = []
                for v in path:
                    out.append(v)
                    if rng.random() < 0.4:
                        depth = rng.randint(1, max_spur)
                        spur = [v]
                        cur = v
                        for _ in range(depth):
                            l = rng.choice(off_letters)
                            nxt = cur * step[l]
                            if nxt.length != cur.length + 1:
                                break
                            spur.append(nxt)
                            cur = nxt
                        out.extend(spur[1:])
                        out.extend(reversed(spur[:-1]))
                path = out
            if not _quasi_geodesic_ok(path, kappa, lam):
                continue
            accepted += 1
            sigma = max(sigma, max(pm_a.project(v).dist for v in path))
        sigma_rows.append((kappa, lam, sigma, accepted))

    # (7) coarse invariance: epsilon-perturbed axis sets stay constricting
    zeta_rows = []
    small_r = min(sample_radius, 3)
    small_points = list(ball_elements(group, small_r, max_elements=DEFAULT_PAIR_CAP))
    small_ids = [vx.id(x) for x in small_points]
    for eps in PERTURBATIONS:
        b_set = []
        for _, v in pm_a.axis.vertices_in_ball(window):
            w = v
            for _ in range(eps):
                l = rng.choice(off_letters)
                cand = w * step[l]
                if cand.length == w.length + 1:
                    w = cand
            b_set.append(w)
        sp = SetProjection(b_set)
        proj = {}
        for i, x in zip(small_ids, small_points):
            b = sp.project(x)[0]
            proj[i] = (b, vx.id(b))
        zeta_rows.append((eps, _cs2_delta(vx, small_ids, proj, distance), len(small_points)))

    return AuditTable(radius=sample_radius, samples=len(points),
                      theta_nearest_point=theta1, theta_equivariance=theta2,
                      theta_lipschitz=max(theta3, 0),
                      theta_intersection_image=theta4,
                      theta_behrstock=theta5,
                      sigma_table=tuple(sigma_rows),
                      zeta_table=tuple(zeta_rows),
                      witnesses=tuple(sorted(witnesses.items())))
