"""Projection-geometry audits: constriction, quasi-convexity and the
seven elementary properties.  Oracles: independent CS2 re-scan on oracle
graphs, closure membership, hand-verified gate arguments (noted inline)."""

import itertools
import math
import random

import pytest

from growthlab import Axis, MarkedGroup, ProjectionMap, Word, audits, stallings_fold
from growthlab.audits import (constriction_audit, elementary_properties_audit,
                              quasiconvexity_audit)
from growthlab.orbits import FreeSubgroup, SubgroupOrbit
from growthlab.schreier import coset_distance

from oracles import (ProductCayley, closure_membership, free_ball, free_inverse, free_reduce,
                     product_canonical_display, product_reduce)


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


def test_constriction_scan_spells_each_pair_once(f2, monkeypatch):
    # the CS2 scan takes one product x^-1 y per pair and walks the interned
    # vertex table; a walk that multiplies words per step made 69,820
    # products here.  Counts repeat exactly, so the bound cannot flake.
    products = 0
    mul = Word.__mul__

    def counting(u, v):
        nonlocal products
        products += 1
        return mul(u, v)

    monkeypatch.setattr(Word, "__mul__", counting)
    rep = constriction_audit(ProjectionMap(Axis(f2.parse("ab"))), 4)
    assert rep.samples == 12_880
    assert products <= 2 * rep.samples


def test_vacuous_pairs_never_violate(f2):
    # pairs with d_A(x, y) <= delta are excluded by the CS2 hypothesis:
    # two points projecting together cannot raise the needed delta
    pm = ProjectionMap(Axis(f2.parse("a")))
    rep = constriction_audit(pm, 3)
    assert rep.delta_cs2 == 0


# -- quasi-convexity -----------------------------------------------------------

def test_eta_cyclic_orbit(f2):
    assert quasiconvexity_audit(SubgroupOrbit(FreeSubgroup(fold(f2, ["a"]))), 5) == 0


def test_eta_bridge_subgroup(f2):
    # geodesics between a-powers and baB-conjugates traverse the b-edge,
    # which sits at distance 1 from the orbit (hand-verified gate argument:
    # the path a -> 1 -> b -> ba -> bab^-1 has b, ba at distance 1)
    sub = FreeSubgroup(fold(f2, ["a", "baB"]))
    assert coset_distance(sub.core, f2.parse("b")) == 1
    assert coset_distance(sub.core, f2.parse("ba")) == 1
    assert quasiconvexity_audit(SubgroupOrbit(sub), 5) == 1


def test_eta_whole_group(f2):
    assert quasiconvexity_audit(SubgroupOrbit(FreeSubgroup(fold(f2, ["a", "b"]))), 4) == 0


@pytest.mark.parametrize("seed, expected", [(1, 1), (3, 2)])
def test_eta_matches_string_oracle(f2, seed, expected):
    """eta over B(o, 6) against strings, on a seeded random 2-generator
    subgroup of F2 (<aBB, aBaB> and <bAB, aaBAb>).  Orbit points come
    from the padded string closure of the generators; a nearest orbit
    point of a vertex v lies in B(o, 2|v|), so the closure to radius 12
    gives every distance to the orbit.  Geodesics are free reductions."""
    rng = random.Random(seed)
    gens = []
    for _ in range(2):
        n, w = rng.randint(3, 5), ""
        while len(w) < n:
            w = free_reduce(w + rng.choice("abAB"))
        gens.append(w)
    r = 6
    members = closure_membership(2, gens, 2 * r, pad=6)
    points = [h for h in members if len(h) <= r]
    visited = set()
    for x, y in itertools.combinations(points, 2):
        w = free_reduce(free_inverse(x) + y)
        visited.update(free_reduce(x + w[:k]) for k in range(len(w) + 1))
    eta = max(min(len(free_reduce(free_inverse(h) + v)) for h in members) for v in visited)
    orbit = SubgroupOrbit(FreeSubgroup(fold(f2, gens)))
    assert len(orbit.sample_in_ball(r)) == len(points)
    assert quasiconvexity_audit(orbit, r) == eta == expected


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
    from growthlab import geodesic
    path = geodesic(f2.parse("aaa"), f2.parse("AAA"))
    on_axis = [i for i, v in enumerate(path) if pm.project(v).dist == 0]
    assert on_axis[-1] - on_axis[0] == 6
    positions = [pm.position(v) for v in path]
    assert max(positions) - min(positions) == 6
