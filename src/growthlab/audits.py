"""Empirical audits of projection geometry over exhaustive small balls.

Every audit here measures a constant that the theory only promises to
exist: the constriction constant of an axis, the quasi-convexity constant
of an orbit, the per-property constants of nearest-point projections.
Measured values are reported, never asserted against theoretical ones;
the test suite pins only the exactly-known tree values (delta = 0,
Lipschitz constant 1).

The pair scans (CS2, properties (3), (4) and (7), and eta) stay
exhaustive over every pair of the ball, but they make one traversal per
source point instead of one walk per pair.  Each scan builds one graph
on integer ids, ``_Region``: a set P of seed points closed under
canonical prefixes (the ball B(o, r), or an orbit sample and its
prefixes), plus every vertex on a geodesic arc of one cycle between two
vertices of P on that cycle.  A cycle is a coset v<x_i> of a factor of
order m > 2; in F_k there is none, and the region is P itself.

Lemma: the region holds every geodesic between two points of P.  In
F_k the Cayley graph is a tree, and the geodesic from x to y runs through
prefixes of x and of y.  The Cayley graph of a free product is a tree of
cycles, so a geodesic from x to y crosses each cycle C on its way along a
geodesic arc of C, entering at the vertex a of C nearest to x and
leaving at the vertex b nearest to y.  Both lie in P.  If a is not the
vertex of C nearest to o, every path from o to x passes through a, the
canonical one included; otherwise b is not, and every path from o to y
passes through a.  The same holds for b.  The vertices of P on C form an
arc around the vertex nearest to o, reaching s steps one way and s' the
other; a far arc between two of them is geodesic exactly when
2(s + s') >= m, and then the far arcs together cover C.  On Z4*Z4 at
r = 4 the region has 121 vertices against 97 in the ball.

So the BFS over the region from a source x reaches each y in P at depth
d(x, y), and the paths of its DAG from x to y are exactly the geodesics
from x to y.  Along that DAG:
 - CS2: A_x[v] = min(d(v, pi x), max of A_x over v's DAG predecessors)
   is the best, over geodesics from x to v, of their least distance to
   pi x; the worst approach of a pair is max(A_x[y], A_y[x]).  d(., p)
   is one column per distinct projection vertex p.  That BFS per source
   serves free products.  In F_k no traversal per source is needed: in a
   tree the least distance from p to [x, y] is the Gromov product
   (d(x, p) + d(y, p) - d(x, y)) / 2 (Bridson-Haefliger III.H.1), so one
   two-pass DP over the ball's prefix tree per projection vertex p gives,
   for every y, its largest value over the sources x with pi x = p.
 - (3) and (4): canonical spellings (``Word.letters``) are prefix-closed,
   so they form a spanning tree of the DAG, and the canonical geodesic's
   length, projection range and first and last on-axis index ride down
   that tree.  Only this walk reads the tree, so only the properties audit
   builds it, once, from the region's rows and ``_canonical_steps``.
 - eta: the DAG vertices from which a later orbit point can be reached
   are the vertices on geodesics from x to later orbit points.
The traversals only fill per-pair values.  The pairs are then scanned in
the order of a per-pair scan (ball order, x before y), so every maximum
and every first-argmax witness is that scan's.  The per-pair scan, which
spells every geodesic of each pair from x^-1 y, is the reference in
``tests/oracles.py``.

Every audit has one fixed design: a scan of n points refuses n * n past
``balls.PAIR_CAP`` pairs; properties (6) and (7) sample with seed 0.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .axes import ProjectionMap
from .balls import ball_elements, refuse_pairs, sphere_counts
from .groups import Word, _cost, distance

QG_GRID = ((1, 0), (1, 2), (2, 2), (2, 4))  # (kappa, lambda) quasi-geodesic constants
QG_SAMPLES = 40  # perturbed axis geodesics per grid point
PERTURBATIONS = (0, 1)  # random steps applied to each axis vertex


def _signed_letters(orders: tuple[int, ...]) -> list[int]:
    """x_i and x_i^-1 per factor, in traversal order; x_i alone when m_i = 2."""
    return [s * (i + 1) for i, m in enumerate(orders) for s in (1, -1) if s > 0 or m != 2]


def _canonical_steps(orders: tuple[int, ...]) -> list[list[int]]:
    """The canonical-extension table over ``_signed_letters(orders)``.

    A state is the last run of a canonical spelling, (letter, run
    length), or None for the empty spelling; state 0 is None.
    ``step[s][j]`` is the state after appending letter j, or -1 when
    the longer spelling is not the canonical spelling of its word.  A run
    of x_i on a factor of order m may grow to m/2 letters forwards (the
    tie arc is spelled forwards) and to fewer than m/2 backwards; a free
    run never ends, so its length stays 1.  An order-2 factor has the
    one letter x_i = x_i^-1.
    """
    letters = _signed_letters(orders)

    def extend(state, l):
        if state is None or abs(state[0]) != abs(l):
            return (l, 1)
        last, run = state
        m = orders[abs(l) - 1]
        if last != l:
            return None
        if m == 0:
            return state
        if 2 * (run + 1) < m or (l > 0 and 2 * (run + 1) == m):
            return (l, run + 1)
        return None

    states: list = [None]
    index = {None: 0}
    step = []
    for state in states:  # grows as new states appear
        row = []
        for l in letters:
            nxt = extend(state, l)
            if nxt is not None and nxt not in index:
                index[nxt] = len(states)
                states.append(nxt)
            row.append(-1 if nxt is None else index[nxt])
        step.append(row)
    return step


class _Region:
    """The graph of one pair scan (module docstring), on integer ids.

    ``points`` must be closed under canonical prefixes; they get ids 0 to
    ``n`` - 1 in their given order, and the far arcs of their cycles come
    after.  ``rows[v][j]`` is the id of v times ``_signed_letters``[j], or
    -1 outside the region, and ``nbrs[v]`` lists the neighbours of v inside
    it; building them costs one word product per directed edge.
    """

    def __init__(self, group, points: list[Word]):
        self.group = group
        self.n = len(points)
        words = list(points)
        ids = {w: i for i, w in enumerate(words)}
        for c in points:
            # c is the vertex nearest to o of its cycle on each factor
            # other than the one of its last syllable
            last = c.syllables[-1][0] if c.syllables else -1
            for i, m in enumerate(group.orders):
                if m <= 2 or i == last:
                    continue
                cycle = [Word(group, c.syllables + ((i, e),), c.length + _cost(m, e))
                         for e in range(1, m)]
                ahead = next((f for f in range(m // 2) if cycle[f] not in ids), m // 2)
                back = next((f for f in range((m - 1) // 2) if cycle[-1 - f] not in ids),
                            (m - 1) // 2)
                if 2 * (ahead + back) >= m:
                    for w in cycle:
                        if w not in ids:
                            ids[w] = len(words)
                            words.append(w)
        self.words = words
        gens = [group.letter_table[l] for l in _signed_letters(group.orders)]
        self.rows = [[ids.get(w * g, -1) for g in gens] for w in words]
        self.nbrs = [[v for v in row if v >= 0] for row in self.rows]


def _with_prefixes(points: list[Word]) -> list[Word]:
    """``points`` followed by the canonical prefixes of them it lacks."""
    out = list(points)
    seen = set(out)
    for w in points:
        step = w.group.letter_table
        cur = w.group.identity()
        for l in w.letters():
            if cur not in seen:
                seen.add(cur)
                out.append(cur)
            cur = cur * step[l]
    return out


def _bottleneck(region: _Region, x: int, col: list[int]) -> list[int]:
    """A_x over the region: A_x[v] is the largest, over the paths of the
    BFS DAG from x to v, of the least ``col`` value along the path.

    The BFS fills it in passing: A_x[v] = min(col[v], max of A_x over v's
    DAG predecessors), and every predecessor leaves the queue before v.
    """
    nbrs = region.nbrs
    depth = [-1] * len(nbrs)
    reach = col[:]  # min(col[v], best over the predecessors seen so far)
    depth[x] = 0
    queue = [x]
    for v in queue:  # grows as the search goes
        a = reach[v]
        d = depth[v] + 1
        for w in nbrs[v]:
            dw = depth[w]
            if dw < 0:
                depth[w] = d
                queue.append(w)
                reach[w] = a if a < col[w] else col[w]
            elif dw == d and a > reach[w]:
                reach[w] = a if a < col[w] else col[w]
    return reach


def _tree_approach(order: list[int], parent: list[int], xs: list[int],
                   col: list[int]) -> list[int]:
    """The largest, over the sources ``xs``, of the least distance from p
    to the geodesic [x, y], for every y of a tree region; ``col`` is d(., p).

    That distance is the Gromov product (col[x] + col[y] - d(x, y)) / 2,
    an integer, since a triangle's perimeter is even in a tree.  So only
    far[y] = max over xs of col[x] - d(x, y) is needed, and it takes two
    passes over the tree: ``order`` lists its vertices but the root, each
    after its parent.
    """
    far = [-len(col)] * len(col)  # below any col[x] - d(x, y)
    for x in xs:
        far[x] = col[x]
    for v in reversed(order):  # leaves up: the sources below v
        u = parent[v]
        if far[v] - 1 > far[u]:
            far[u] = far[v] - 1
    for v in order:  # root down: the sources beyond v's parent
        u = parent[v]
        if far[u] - 1 > far[v]:
            far[v] = far[u] - 1
    return [(c + f) // 2 for c, f in zip(col, far)]


def _cs2_delta(region: _Region, proj: list[Word], gaps) -> int:
    """Least delta certifying CS2 over all pairs of the region's points.

    ``proj[i]`` is the projection vertex of point i, and ``gaps(x)`` lists
    the projected distance from point x to every point; it must depend on
    x only through ``proj[x]``.  A pair with projections delta-close is a
    vacuous case, never a violation, so the least certifying delta of a
    pair is min(gap, worst approach), where the approach of a geodesic is
    the larger of its distances to the two projection vertices and the
    worst is taken over every geodesic.  The worst approach is
    max(A_x[y], A_y[x]), with A_x[y] the best, over geodesics from x to y,
    of their least distance to proj[x], and gap is symmetric, so the
    answer is the largest min(gap, A_x[y]) over ordered pairs.

    Per projection vertex p, every source x with proj[x] = p shares one
    gap row, so only the largest A_x over them counts.  In F_k the region
    is a tree and ``_tree_approach`` gives that largest A_x at once; in a
    free product, A_x is the ``_bottleneck`` BFS of d(., p) from each x.
    """
    sources: dict[Word, list[int]] = {}  # projection vertex p -> its points
    for x in range(region.n):
        sources.setdefault(proj[x], []).append(x)
    if region.group.is_free:
        parent = [-1] * region.n
        parent[0] = 0
        order = [0]
        for v in order:  # grows as the search goes
            for w in region.nbrs[v]:
                if parent[w] < 0:
                    parent[w] = v
                    order.append(w)
        del order[0]
    needed = 0
    for p, xs in sources.items():
        row = gaps(xs[0])
        top = max(row)
        if top <= needed:
            continue  # no pair from p's points can raise the running maximum
        col = [distance(w, p) for w in region.words]
        if region.group.is_free:
            needed = max(needed, max(map(min, row, _tree_approach(order, parent, xs, col))))
            continue
        for x in xs:
            needed = max(needed, max(map(min, row, _bottleneck(region, x, col))))
            if needed >= top:
                break
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
    refuse_pairs(sum(sphere_counts(group, sample_radius)) ** 2)
    points = list(ball_elements(group, sample_radius))
    n = len(points)

    # CS1: points of the axis must project to themselves.
    delta_cs1 = 0
    for _, v in pm.axis.vertices_in_ball(sample_radius):
        delta_cs1 = max(delta_cs1, pm.project(v).dist)

    projected = [pm.project(x) for x in points]
    ts = [p.position for p in projected]
    needed = _cs2_delta(_Region(group, points), [p.vertex for p in projected],
                        lambda x: [abs(ts[x] - t) for t in ts])
    return ConstrictionReport(delta_cs1=delta_cs1, delta_cs2=needed,
                              samples=n * (n - 1) // 2)


def quasiconvexity_audit(orbit, sample_radius: int) -> int:
    """Empirical quasi-convexity constant eta of an orbit.

    Max over endpoint pairs in Y & B(o, r) and over all geodesics between
    them of the distance from a geodesic vertex to Y (exact distances).
    """
    refuse_pairs(orbit.size_in_ball(sample_radius) ** 2)
    points = orbit.sample_in_ball(sample_radius)
    region = _Region(orbit.group, _with_prefixes(points))
    n, nbrs = len(points), region.nbrs
    seen: set[int] = set()  # vertices on geodesics between orbit points
    for x in range(n - 1):
        depth = [-1] * len(nbrs)
        depth[x] = 0
        order = [x]
        for v in order:  # grows as the search goes
            for w in nbrs[v]:
                if depth[w] < 0:
                    depth[w] = depth[v] + 1
                    order.append(w)
        later = [False] * len(nbrs)  # a later orbit point is reachable in the DAG
        for v in reversed(order):
            d = depth[v] + 1
            if x < v < n or any(later[w] for w in nbrs[v] if depth[w] == d):
                later[v] = True
                seen.add(v)
    return max((orbit.distance_to(region.words[v]) for v in seen), default=0)


def _canonical_tree(region: _Region, children, x: int, pos: list[int], on: list[bool]):
    """(length, image) per point y of the region: d(x, y), and
    |diam(A & gamma) - diam_A(gamma)| along the canonical geodesic gamma
    from x to y, by one walk down the tree of canonical spellings from x.

    ``children[s][v]`` lists the (neighbour, state) pairs extending a
    canonical spelling that ends at v in state s (``_canonical_steps``).
    ``pos[v]`` is the projection position of vertex v and ``on[v]``
    whether v lies on the axis.  Along gamma the walk carries the least
    and largest position and the first and last on-axis index (-1 while
    there is none, so that their difference reads 0).
    """
    n = region.n
    length = [0] * n
    image = [0] * n
    t = pos[x]
    f = 0 if on[x] else -1
    stack = [(x, 0, 0, t, t, f, f)]
    while stack:
        v, s, k, lo, hi, first, last = stack.pop()
        if v < n:
            length[v] = k
            image[v] = abs(last - first - (hi - lo))
        k += 1
        for w, s2 in children[s][v]:
            t = pos[w]
            lo2 = t if t < lo else lo
            hi2 = t if t > hi else hi
            if on[w]:
                stack.append((w, s2, k, lo2, hi2, k if first < 0 else first, k))
            else:
                stack.append((w, s2, k, lo2, hi2, first, last))
    return length, image


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
    """Exact nearest-point map onto a finite vertex set (lex tie-break).
    It keeps no memo: property (7) projects each point once per set."""

    def __init__(self, points: list[Word]):
        self.points = sorted(set(points), key=str)

    def project(self, x: Word) -> tuple[Word, int]:
        # points are in label order and min keeps the first of equals
        d, best = min(((distance(p, x), p) for p in self.points), key=lambda dp: dp[0])
        return best, d


def _quasi_geodesic_ok(path: list[Word], kappa: float, lam: float) -> bool:
    # a pair with j - i <= lam cannot fail, since kappa * d >= 0
    gap = max(1, math.floor(lam) + 1)
    for i in range(len(path)):
        for j in range(i + gap, len(path)):
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
    refuse_pairs(sum(sphere_counts(group, sample_radius)) ** 2)
    points = list(ball_elements(group, sample_radius))
    region = _Region(group, points)
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
            d = distance(lhs, rhs)
            if d > theta2 or "equivariance" not in witnesses:
                theta2 = max(theta2, d)
                witnesses["equivariance"] = f"h={h}, x={x}"

    # (3) coarse Lipschitz and (4) intersection-image, per pair, along
    # the canonical geodesic
    theta3 = 0
    theta4 = 0
    words = region.words
    projected = [pm_a.project(w) for w in words]
    pos = [p.position for p in projected]
    on = [p.dist == 0 for p in projected]
    n = region.n
    step = _canonical_steps(group.orders)
    children = [[[(v, s) for v, s in zip(row, after) if v >= 0 and s >= 0]
                 for row in region.rows] for after in step]
    for x in range(n):
        length, image = _canonical_tree(region, children, x, pos, on)
        tx = pos[x]
        for y in range(x + 1, n):
            excess = abs(tx - pos[y]) - length[y]  # length[y] = d(x, y)
            if excess > theta3 or "lipschitz" not in witnesses:
                theta3 = max(theta3, excess)
                witnesses["lipschitz"] = f"x={words[x]}, y={words[y]}"
            if image[y] > theta4 or "intersection_image" not in witnesses:
                theta4 = max(theta4, image[y])
                witnesses["intersection_image"] = f"x={words[x]}, y={words[y]}"

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
    small = region if sample_radius <= 3 else _Region(group, list(ball_elements(group, 3)))
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
        proj = [sp.project(x)[0] for x in small.words[:small.n]]
        keys: dict[Word, int] = {}  # projection vertex -> row of the gap table
        ks = [keys.setdefault(b, len(keys)) for b in proj]
        gap = [[distance(p, q) for q in keys] for p in keys]
        zeta_rows.append((eps, _cs2_delta(small, proj, lambda x: [gap[ks[x]][k] for k in ks]),
                          small.n))

    return AuditTable(radius=sample_radius, samples=len(points),
                      theta_nearest_point=theta1, theta_equivariance=theta2,
                      theta_lipschitz=max(theta3, 0),
                      theta_intersection_image=theta4,
                      theta_behrstock=theta5,
                      sigma_table=tuple(sigma_rows),
                      zeta_table=tuple(zeta_rows),
                      witnesses=tuple(sorted(witnesses.items())))
