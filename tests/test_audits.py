"""Projection-geometry audits: constriction, quasi-convexity and the
seven elementary properties.  Oracles: independent CS2 re-scan on oracle
graphs, the per-pair scans of ``oracles``, closure membership,
hand-verified gate arguments (noted inline)."""

import dataclasses
import functools
import itertools
import math
import random
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from growthlab import (Axis, MarkedGroup, ProjectionMap, Word, all_geodesics, audits,
                       ball_elements, cyclic_reduce, distance, is_torsion, stallings_fold)
from growthlab.audits import (constriction_audit, elementary_properties_audit,
                              quasiconvexity_audit)
from growthlab.errors import BudgetExceeded
from growthlab.orbits import SubgroupOrbit
from growthlab.schreier import coset_distance

from oracles import (FiniteSubgroup, ProductCayley, closure_membership, free_ball,
                     free_inverse, free_reduce, product_canonical_display, product_reduce)


def fold(group, words):
    return stallings_fold(group, [group.parse(w) for w in words])


# -- constriction -------------------------------------------------------------

def test_tree_axes_delta_zero(f2):
    for text in ("a", "ab", "baB"):
        rep = constriction_audit(ProjectionMap(Axis(f2.parse(text))), 4)
        assert rep.delta_cs1 == 0
        assert rep.delta_cs2 == 0


def _string_model(orders):
    """(ball, dist, geodesics, label, reduce) on strings, sharing no code
    with the package.  ``orders`` None is F2 (free reduction; the geodesic is
    unique); otherwise a free product whose distances and geodesics are
    read off the BFS Cayley graph of radius 8 (a distance beyond it reads
    as infinity, which only ever stands in for a value no minimum takes)."""
    if orders is None:
        def dist(u, v):
            return len(free_reduce(free_inverse(u) + v))

        def geodesics(x, y):
            w = free_reduce(free_inverse(x) + y)
            return [[free_reduce(x + w[:k]) for k in range(len(w) + 1)]]

        return (lambda r: free_ball(2, r)[1], dist, geodesics, lambda s: s or "1",
                free_reduce)

    oracle = ProductCayley(orders, 8)

    def reduce(s):
        return product_reduce(s, orders)

    def dist(u, v):
        return oracle.dist.get(reduce(free_inverse(u) + v), math.inf)

    def geodesics(x, y):
        # left translation by x is an isometry: x times the BFS geodesics to x^-1 y
        return [[reduce(x + v) for v in path]
                for path in oracle.geodesics("", reduce(free_inverse(x) + y))]

    return (lambda r: [w for w, d in oracle.dist.items() if d <= r], dist, geodesics,
            lambda s: product_canonical_display(s, orders) or "1", reduce)


def _oracle_cs2(points, project, gap, geodesics, dist):
    needed = 0
    for x, y in itertools.combinations(points, 2):
        px, py = project(x), project(y)
        worst = max(max(min(dist(v, px) for v in path), min(dist(v, py) for v in path))
                    for path in geodesics(x, y))
        needed = max(needed, min(gap(px, py), worst))
    return needed


@pytest.mark.parametrize("orders, g, delta_cs2", [
    ({"x": 2, "y": 3}, "xy", 1),
    ({"x": 4, "y": 4}, "yx", 1),     # tie geodesics around the 4-cycles
    ({"x": 4, "y": 2}, "xxy", 1),
    ({"x": 4, "y": 2}, "xy", 1),     # (4) reads 1, not 2, along the other tie arcs
    (None, "ab", 0),
], ids=["z23-xy", "z44-yx", "z42-xxy", "z42-xy", "f2-ab"])
def test_axis_audit_oracle(orders, g, delta_cs2, monkeypatch):
    """Independent re-derivation of the pair scans over B(o, 3).

    The oracle rebuilds the axis, its projection (least (dist, |t|, label)),
    all geodesics and the canonical one (the short arc, the positive one on
    a tie) on strings, then recomputes CS2, properties (3) and (4) and the
    zeta rows of (7) over every pair; (7) re-scans the perturbed sets the
    audit drew.
    """
    r = 3
    ball, dist, geodesics, label, reduce = _string_model(orders)
    group = (MarkedGroup.free(2) if orders is None
             else MarkedGroup.free_product(list(orders.values())))
    pm = ProjectionMap(Axis(group.parse(g)))
    drawn = []

    class RecordingProjection(audits.SetProjection):
        def __init__(self, points):
            drawn.append(sorted({reduce(str(p).replace("1", "")) for p in points}))
            super().__init__(points)

    monkeypatch.setattr(audits, "SetProjection", RecordingProjection)
    rep = constriction_audit(pm, r)
    table = elementary_properties_audit(pm, None, r)

    # the axis is the line of prefixes of g^oo and of (g^-1)^oo, each spelled
    # canonically; g is cyclically reduced, so vertex(0) is the origin
    fwd, bwd = label(reduce(g)), label(reduce(free_inverse(g)))
    line = {t: reduce((fwd * 20)[:t] if t >= 0 else (bwd * 20)[:-t]) for t in range(-20, 21)}
    projections = {}

    def project(w):
        # a vertex of |w| <= 6 projects within |t| <= 12
        if w not in projections:
            t = min(line, key=lambda t: (dist(line[t], w), abs(t), label(line[t])))
            projections[w] = (t, dist(line[t], w))
        return projections[w]

    def canonical(x, y):
        w = label(reduce(free_inverse(x) + y)).replace("1", "")
        return [reduce(x + w[:k]) for k in range(len(w) + 1)]

    points = ball(r)
    cs2 = _oracle_cs2(points, lambda w: line[project(w)[0]],
                      lambda px, py: abs(project(px)[0] - project(py)[0]), geodesics, dist)
    theta3 = theta4 = 0
    for x, y in itertools.combinations(points, 2):
        theta3 = max(theta3, abs(project(x)[0] - project(y)[0]) - dist(x, y))
        path = [project(v) for v in canonical(x, y)]
        on_axis = [i for i, (_, d) in enumerate(path) if d == 0]
        diam_inter = on_axis[-1] - on_axis[0] if on_axis else 0
        diam_proj = max(t for t, _ in path) - min(t for t, _ in path)
        theta4 = max(theta4, abs(diam_inter - diam_proj))
    zeta = []
    for (eps, _, _), b_set in zip(table.zeta_table, drawn):
        def nearest(w):
            return min(b_set, key=lambda b: (dist(b, w), label(b)))
        zeta.append((eps, _oracle_cs2(points, nearest, dist, geodesics, dist), len(points)))

    assert rep.delta_cs2 == cs2 == delta_cs2
    assert (table.theta_lipschitz, table.theta_intersection_image) == (theta3, theta4)
    assert len(drawn) == len(table.zeta_table) == 2
    assert table.zeta_table == tuple(zeta)


def test_constriction_scan_makes_few_products(f2, monkeypatch):
    # one traversal per source over an interned graph: one product per
    # directed edge of B(o, 4) plus one per projection, 813 here, where
    # a scan that forms x^-1 y makes at least one per pair.  Counts repeat
    # exactly, so the bound cannot flake.
    products = 0
    mul = Word.__mul__

    def counting(u, v):
        nonlocal products
        products += 1
        return mul(u, v)

    monkeypatch.setattr(Word, "__mul__", counting)
    rep = constriction_audit(ProjectionMap(Axis(f2.parse("ab"))), 4)
    assert rep.samples == 12_880
    assert products < rep.samples / 4


@pytest.mark.parametrize("descriptor, axis", [("free:2", "ab"), ("product:4,4", "xy")])
def test_only_the_properties_walk_builds_canonical_rows(descriptor, axis, monkeypatch):
    """The canonical rows (the ``_canonical_steps`` table on a region) feed
    only the walk of properties (3) and (4): its audit builds them once, at
    r = 4 too, where (7) scans a region of its own, and the constriction
    and eta scans build none."""
    builds = [0]
    steps = audits._canonical_steps

    def counting(orders):
        builds[0] += 1
        return steps(orders)

    monkeypatch.setattr(audits, "_canonical_steps", counting)
    group = MarkedGroup.from_descriptor(descriptor)
    pm = ProjectionMap(Axis(group.parse(axis)))
    constriction_audit(pm, 3)
    if group.is_free:
        quasiconvexity_audit(SubgroupOrbit(fold(group, ["a", "baB"])), 4)
    assert builds[0] == 0
    elementary_properties_audit(pm, None, 4)
    assert builds[0] == 1


def test_set_projection_breaks_ties_by_label(f2):
    """Of the points nearest to x, the least label wins (A < B < a < b)."""
    o = f2.identity()
    sp = audits.SetProjection([f2.parse("b"), f2.parse("a"), f2.parse("A"), f2.parse("ab")])
    assert sp.project(o) == (f2.parse("A"), 1)
    assert audits.SetProjection([f2.parse("b"), f2.parse("B")]).project(o) == (f2.parse("B"), 1)


def test_over_budget_ball_is_refused_before_listing(f2, monkeypatch):
    # |B(o, 11)| = 354,293 in F2: 1.26e11 pairs against a cap of 2,000,000
    def listing(*args):
        raise AssertionError("the ball was listed")

    monkeypatch.setattr(audits, "ball_elements", listing)
    pm = ProjectionMap(Axis(f2.parse("ab")))
    with pytest.raises(BudgetExceeded, match="pairs exceed cap"):
        constriction_audit(pm, 11)
    with pytest.raises(BudgetExceeded, match="pairs exceed cap"):
        elementary_properties_audit(pm, None, 11)


def test_over_budget_orbit_is_refused_before_listing(f2, monkeypatch):
    # H = <a, b> is F2: |H & B(o, 11)| = 354,293, again 1.26e11 pairs
    def listing(*args):
        raise AssertionError("the orbit sample was listed")

    monkeypatch.setattr(SubgroupOrbit, "sample_in_ball", listing)
    orbit = SubgroupOrbit(stallings_fold(f2, [f2.parse("a"), f2.parse("b")]))
    with pytest.raises(BudgetExceeded, match="125523529849 pairs exceed cap"):
        quasiconvexity_audit(orbit, 11)


GROUPS = ("free:2", "free:3", "product:2,3", "product:4,4", "product:4,2", "product:6,4",
          "product:2,2,5")


@st.composite
def axes(draw):
    """A cyclically reduced infinite-order word of length 1 to 4 in one of
    GROUPS, and a radius of 2 or 3."""
    group = MarkedGroup.from_descriptor(draw(st.sampled_from(GROUPS)))
    signed = [s * (i + 1) for i in range(group.rank) for s in (1, -1)]
    word = group.from_letters(draw(st.lists(st.sampled_from(signed), min_size=1, max_size=4)))
    assume(word.length >= 1 and cyclic_reduce(word)[0].is_identity and not is_torsion(word))
    return word, draw(st.integers(2, 3))


def _table_and_zeta_by_pairs(word, r):
    """The AuditTable of the axis of ``word`` over B(o, r), and its zeta rows
    re-scanned pair by pair on the perturbed sets that the audit drew."""
    drawn = []

    class Recording(audits.SetProjection):
        def __init__(self, points):
            super().__init__(points)
            drawn.append(self)

    with mock.patch.object(audits, "SetProjection", Recording):
        table = elementary_properties_audit(ProjectionMap(Axis(word)), None, r)
    points = list(ball_elements(word.group, min(r, 3)))
    zeta = []
    for (eps, _, _), sp in zip(table.zeta_table, drawn):
        proj = {x: (sp.project(x)[0],) * 2 for x in points}
        zeta.append((eps, oracles.cs2_by_pairs(points, proj, distance), len(points)))
    assert len(drawn) == len(table.zeta_table) == 2
    return table, tuple(zeta)


@given(axes())
# the tie arcs of a 4-cycle: the case a canonical table without them gets wrong
@example((MarkedGroup.from_descriptor("product:4,4").parse("xy"), 3))
@settings(max_examples=25, deadline=None)
def test_pair_scans_match_the_per_pair_oracle(case):
    """The per-source traversals give the per-pair scan's ConstrictionReport
    and AuditTable, witnesses included: CS2 and (7) over every geodesic,
    (3) and (4) along the canonical one."""
    word, r = case
    assert constriction_audit(ProjectionMap(Axis(word)), r) == \
        oracles.constriction_by_pairs(ProjectionMap(Axis(word)), r)

    table, zeta = _table_and_zeta_by_pairs(word, r)
    theta3, theta4, witnesses = oracles.lipschitz_image_by_pairs(ProjectionMap(Axis(word)), r)
    assert table == dataclasses.replace(
        table, theta_lipschitz=theta3, theta_intersection_image=theta4, zeta_table=zeta,
        witnesses=tuple(sorted({**dict(table.witnesses), **witnesses}.items())))


def test_free_cs2_makes_no_traversal_per_source(f2, monkeypatch):
    """In F_k, CS2 and the zeta rows of (7) come from the tree DP alone: with
    ``_bottleneck`` refused, the audits still equal the per-pair oracles, on
    a conjugated axis too (whose eps = 1 row needs the DP's root-down
    pass).  A free product still runs the BFS."""
    bottleneck = audits._bottleneck

    def refused(*args):
        raise AssertionError("a BFS per source in a tree")

    monkeypatch.setattr(audits, "_bottleneck", refused)
    for axis, r in (("ab", 4), ("baB", 3)):
        pm = ProjectionMap(Axis(f2.parse(axis)))
        assert constriction_audit(pm, r) == oracles.constriction_by_pairs(pm, r)
        table, zeta = _table_and_zeta_by_pairs(f2.parse(axis), r)
        assert table.zeta_table == zeta

    calls = []

    def counting(*args):
        calls.append(args[1])
        return bottleneck(*args)

    monkeypatch.setattr(audits, "_bottleneck", counting)
    z44 = MarkedGroup.from_descriptor("product:4,4")
    assert constriction_audit(ProjectionMap(Axis(z44.parse("xy"))), 4).delta_cs2 == 1
    assert calls


@functools.lru_cache(maxsize=None)
def _free_ball(rank, r):
    return list(ball_elements(MarkedGroup.free(rank), r))


@st.composite
def projection_data(draw):
    """B(o, r) of F2 or F3, r in {2, 3}, and an arbitrary map of its points
    onto 1 to 6 vertices of B(o, r + 2): not a nearest-point map."""
    rank, r = draw(st.sampled_from((2, 3))), draw(st.integers(2, 3))
    points = _free_ball(rank, r)
    targets = draw(st.lists(st.sampled_from(_free_ball(rank, r + 2)), min_size=1,
                            max_size=6, unique=True))
    return points, [draw(st.sampled_from(targets)) for _ in points]


def _split_at_length_one():
    """B(o, 2) of F2 with the points of length <= 1 sent to bbb, the rest to
    aa: delta = 4, reached only by pairs of which neither is a prefix of
    the other (a DP without its root-down pass reads 3)."""
    f2 = MarkedGroup.free(2)
    points = _free_ball(2, 2)
    return points, [f2.parse("bbb" if x.length <= 1 else "aa") for x in points]


@given(projection_data())
@example(_split_at_length_one())
@settings(max_examples=30, deadline=None)
def test_tree_cs2_matches_the_pair_scan_on_any_projection(data):
    """_cs2_delta in F_k, with gaps the distances between the assigned
    vertices, equals the per-pair scan over every geodesic."""
    points, proj = data
    region = audits._Region(points[0].group, points)
    delta = audits._cs2_delta(region, proj, lambda x: [distance(proj[x], q) for q in proj])
    assert delta == oracles.cs2_by_pairs(points, {x: (p, p) for x, p in zip(points, proj)},
                                         distance)


def _off_region(group, ball, region):
    """The vertices of geodesics between ball points that are not in region."""
    return {v for x, y in itertools.combinations(ball, 2)
            for path in all_geodesics(x, y) for v in path if v not in region}


@pytest.mark.parametrize("descriptor, r, size", [
    ("product:4,4", 4, 121),   # tie arcs of the 4-cycles leave the ball (97)
    ("product:6,4", 3, 53),    # the 6-cycles' far arcs too (45)
    ("product:2,3", 5, 34),
    ("product:2,2,5", 3, 51),
    ("free:2", 3, 53),         # in F_k the region is the ball
])
def test_region_holds_every_geodesic_between_ball_points(descriptor, r, size):
    group = MarkedGroup.from_descriptor(descriptor)
    ball = list(ball_elements(group, r))
    region = audits._Region(group, ball)
    assert len(region.words) == size
    assert _off_region(group, ball, set(region.words)) == set()
    # the lemma's content: where the region outgrows the ball, the bare
    # ball misses geodesics
    assert bool(_off_region(group, ball, set(ball))) == (size > len(ball))


@pytest.mark.parametrize("descriptor", ["product:4,4", "product:6,4", "product:6,6"])
def test_bottleneck_is_the_best_geodesic(descriptor):
    """A_x[y] is the largest, over every geodesic from x to y, of its least
    distance to p.  p runs over every fifth vertex of the region, far arcs
    included, so some p lie on one of the two tie arcs of a pair, which
    approach p differently."""
    group = MarkedGroup.from_descriptor(descriptor)
    ball = list(ball_elements(group, 3))
    region = audits._Region(group, ball)
    for p in region.words[::5]:
        col = [distance(w, p) for w in region.words]
        for x in range(region.n):
            reach = audits._bottleneck(region, x, col)
            for y in range(region.n):
                best = max(min(distance(v, p) for v in path)
                           for path in all_geodesics(ball[x], ball[y]))
                assert reach[y] == best


@pytest.mark.parametrize("descriptor", ["free:2", "product:2,3", "product:4,4", "product:6,4"])
def test_canonical_spellings_are_prefix_closed_and_stepped(descriptor):
    """Word.letters() is prefix-closed on B(o, 6), and the traversal's
    extension table accepts exactly the letters l with
    (w l).letters() == w.letters() + [l]."""
    group = MarkedGroup.from_descriptor(descriptor)
    letters = audits._signed_letters(group.orders)
    step = audits._canonical_steps(group.orders)
    signed = [s * (i + 1) for i in range(group.rank) for s in (1, -1)]
    for w in ball_elements(group, 6):
        spelling = w.letters()
        assert group.from_letters(spelling[:-1]).letters() == spelling[:-1]
        state = 0
        for l in spelling:
            state = step[state][letters.index(l)]
            assert state >= 0
        for l in signed:
            canonical = (w * group.letter_table[l]).letters() == spelling + [l]
            assert (l in letters and step[state][letters.index(l)] >= 0) == canonical


def test_vacuous_pairs_never_violate(f2):
    # pairs with d_A(x, y) <= delta are excluded by the CS2 hypothesis:
    # two points projecting together cannot raise the needed delta
    pm = ProjectionMap(Axis(f2.parse("a")))
    rep = constriction_audit(pm, 3)
    assert rep.delta_cs2 == 0


# -- quasi-convexity -----------------------------------------------------------

def test_eta_cyclic_orbit(f2):
    assert quasiconvexity_audit(SubgroupOrbit(fold(f2, ["a"])), 5) == 0


def test_eta_bridge_subgroup(f2):
    # geodesics between a-powers and baB-conjugates traverse the b-edge,
    # which sits at distance 1 from the orbit (hand-verified gate argument:
    # the path a -> 1 -> b -> ba -> bab^-1 has b, ba at distance 1)
    sub = fold(f2, ["a", "baB"])
    assert coset_distance(sub, f2.parse("b")) == 1
    assert coset_distance(sub, f2.parse("ba")) == 1
    assert quasiconvexity_audit(SubgroupOrbit(sub), 5) == 1


def test_eta_whole_group(f2):
    assert quasiconvexity_audit(SubgroupOrbit(fold(f2, ["a", "b"])), 4) == 0


@pytest.mark.parametrize("seed, expected", [(1, 1), (3, 2)])
def test_eta_matches_string_oracle(f2, seed, expected):
    """eta over B(o, 6) against strings, on a seeded random 2-generator
    subgroup of F2 (<aBB, aBaB> and <bAB, aaBAb>).  Orbit points come
    from the string fold of the generators; a nearest orbit point of a
    vertex v lies in B(o, 2|v|), so the members to radius 12 give every
    distance to the orbit.  Geodesics are free reductions."""
    rng = random.Random(seed)
    gens = []
    for _ in range(2):
        n, w = rng.randint(3, 5), ""
        while len(w) < n:
            w = free_reduce(w + rng.choice("abAB"))
        gens.append(w)
    r = 6
    members = closure_membership(2, gens, 2 * r)
    points = [h for h in members if len(h) <= r]
    visited = set()
    for x, y in itertools.combinations(points, 2):
        w = free_reduce(free_inverse(x) + y)
        visited.update(free_reduce(x + w[:k]) for k in range(len(w) + 1))
    eta = max(min(len(free_reduce(free_inverse(h) + v)) for h in members) for v in visited)
    orbit = SubgroupOrbit(fold(f2, gens))
    assert len(orbit.sample_in_ball(r)) == len(points)
    assert quasiconvexity_audit(orbit, r) == eta == expected


class _FiniteOrbit:
    """The orbit of a finite subgroup of a free product, for the eta scan."""

    def __init__(self, group, generators):
        self.group = group
        self.sub = FiniteSubgroup(group, generators)

    def sample_in_ball(self, radius):
        return list(self.sub.elements_in_ball(radius))

    def size_in_ball(self, radius):
        return len(self.sample_in_ball(radius))

    def distance_to(self, x):
        return min(distance(h, x) for h in self.sub.elements)


@st.composite
def orbits(draw):
    """A subgroup orbit of F2, or the orbit of a conjugate u <x_i> u^-1 of
    a factor in a free product, where tie arcs join the orbit points."""
    if draw(st.booleans()):
        f2 = MarkedGroup.free(2)
        return SubgroupOrbit(fold(f2, draw(oracles.SUBGROUPS)))
    group = MarkedGroup.from_descriptor(draw(st.sampled_from(GROUPS[2:])))
    signed = [s * (i + 1) for i in range(group.rank) for s in (1, -1)]
    u = group.from_letters(draw(st.lists(st.sampled_from(signed), max_size=3)))
    x = group.letter_table[draw(st.sampled_from(signed))]
    return _FiniteOrbit(group, [x.conjugated_by(u)])


@given(orbits(), st.integers(2, 5))
@settings(max_examples=40, deadline=None)
def test_eta_matches_the_per_pair_oracle(orbit, r):
    assert quasiconvexity_audit(orbit, r) == oracles.eta_by_pairs(orbit, r)


# -- elementary properties -------------------------------------------------------

@pytest.fixture(scope="module")
def audit_pair():
    f2 = MarkedGroup.free(2)
    pm_a = ProjectionMap(Axis(f2.parse("a")))
    pm_b = ProjectionMap(Axis(f2.parse("baB")))
    return elementary_properties_audit(pm_a, pm_b, 4)


def test_property_1_exact_nearest_point(audit_pair):
    assert audit_pair.theta_nearest_point == 0


def test_property_2_equivariance_tree(audit_pair):
    assert audit_pair.theta_equivariance == 0


def test_property_3_lipschitz_tree(audit_pair):
    assert audit_pair.theta_lipschitz == 0


def test_property_4_intersection_image(audit_pair):
    assert audit_pair.theta_intersection_image == 0


def test_property_5_behrstock_single_gates(audit_pair):
    # pi_A(axis(baB)) = {1} and pi_B(axis(a)) = {b}: single points, theta 0
    assert audit_pair.theta_behrstock == 0


def test_property_6_sigma_table(audit_pair):
    rows = {(k, l): (s, n) for k, l, s, n in audit_pair.sigma_table}
    assert rows[(1, 0)][0] == 0          # honest geodesics stay on the axis
    for (k, l), (sigma, accepted) in rows.items():
        assert accepted > 0
        assert sigma <= l // 2 + k       # spur depth bounded by the qg slack


def test_property_7_zeta_table(audit_pair):
    rows = {eps: z for eps, z, _ in audit_pair.zeta_table}
    assert rows[0] == 0
    assert 0 <= rows[1] <= 3


def test_property_4_along_axis_geodesic(f2):
    # gamma from a^3 to a^-3 runs along the axis: both diameters are 6
    pm = ProjectionMap(Axis(f2.parse("a")))
    from growthlab import all_geodesics
    path = next(all_geodesics(f2.parse("aaa"), f2.parse("AAA")))
    on_axis = [i for i, v in enumerate(path) if pm.project(v).dist == 0]
    assert on_axis[-1] - on_axis[0] == 6
    positions = [pm.position(v) for v in path]
    assert max(positions) - min(positions) == 6
