"""Projection-geometry audits: constriction, quasi-convexity, the seven
elementary properties, intersection-image, symmetry, translation lengths.
Oracles: independent CS2 re-scan on oracle graphs, closure membership,
hand-verified gate arguments (noted inline)."""

import itertools

import pytest

from growthlab import (Axis, MarkedGroup, ProjectionMap, ball_elements, distance,
                       stallings_fold)
from growthlab.audits import (constriction_audit, elementary_properties_audit,
                              intersection_image_audit, projection_symmetry_audit,
                              qi_embedding_check, quasiconvexity_audit,
                              translation_length_check)
from growthlab.orbits import FreeSubgroup, SubgroupOrbit

from oracles import ProductCayley, product_canonical_display


def fold(group, words):
    return stallings_fold(group, [group.parse(w) for w in words])


# -- constriction -------------------------------------------------------------

def test_tree_axes_delta_zero(f2):
    for text in ("a", "ab", "baB"):
        rep = constriction_audit(ProjectionMap(Axis(f2.parse(text))), 4)
        assert rep.delta_cs1 == 0
        assert rep.delta_cs2 == 0


def oracle_geodesics_between(oracle, x, y):
    """All geodesic paths x -> y by BFS from x on the oracle graph."""
    from oracles import product_reduce
    dist = {x: 0}
    parents = {x: []}
    frontier = [x]
    target_d = oracle.distance(x, y)
    for d in range(target_d):
        new = []
        for w in frontier:
            for l in oracle.letters:
                v = product_reduce(w + l, oracle.orders)
                if v not in dist:
                    dist[v] = d + 1
                    parents[v] = [w]
                    new.append(v)
                elif dist[v] == d + 1 and w not in parents[v]:
                    parents[v].append(w)
        frontier = new
    paths = []

    def back(w, acc):
        if w == x:
            paths.append([x] + list(reversed(acc)))
            return
        for p in parents[w]:
            back(p, acc + [w])

    back(product_reduce(y, oracle.orders), [])
    return paths


def test_z23_axis_delta_oracle(z23):
    """Independent re-derivation of the constriction constant of axis(xy).

    The oracle rebuilds projections and geodesics on the string-rewriting
    Cayley graph of Z2 * Z3 (positive normal forms throughout), then scans
    CS2 over all pairs in B(o, 3).
    """
    from oracles import product_reduce
    orders = {"x": 2, "y": 3}
    oracle = ProductCayley(orders, 9)
    ax = Axis(z23.parse("xy"))
    axis_strings = {}
    # |t| <= 6 suffices: a point at distance d from the origin projects
    # within position 2d, and the sample ball has radius 3
    for t in range(-6, 7):
        v = product_reduce(str(ax.vertex(t)).replace("1", ""), orders)
        if v not in axis_strings or abs(t) < abs(axis_strings[v]):
            axis_strings[v] = t

    def project_oracle(w):
        return min(axis_strings, key=lambda a: (oracle.distance(a, w), abs(axis_strings[a]), a))

    points = [w for w, d in oracle.dist.items() if d <= 3]
    needed = 0
    for x, y in itertools.combinations(points, 2):
        px, py = project_oracle(x), project_oracle(y)
        gap = abs(axis_strings[px] - axis_strings[py])
        if gap == 0:
            continue
        worst = 0
        for path in oracle_geodesics_between(oracle, x, y):
            ax_d = min(oracle.distance(v, px) for v in path)
            ay_d = min(oracle.distance(v, py) for v in path)
            worst = max(worst, ax_d, ay_d)
        needed = max(needed, min(gap, worst))
    rep = constriction_audit(ProjectionMap(ax), 3)
    assert rep.delta_cs2 == needed == 1


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
    aut = sub.automaton()
    assert aut.coset_distance(f2.parse("b")) == 1
    assert aut.coset_distance(f2.parse("ba")) == 1
    assert quasiconvexity_audit(SubgroupOrbit(sub), 5) == 1


def test_eta_whole_group(f2):
    assert quasiconvexity_audit(SubgroupOrbit(FreeSubgroup(fold(f2, ["a", "b"]))), 4) == 0


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


# -- intersection-image and symmetry ----------------------------------------------

def test_intersection_image_on_axis_orbit(f2):
    pm = ProjectionMap(Axis(f2.parse("a")))
    rec = intersection_image_audit(pm, SubgroupOrbit(FreeSubgroup(fold(f2, ["a"]))),
                                   0, 0, 5, theta=1)
    assert rec.difference == 0


def test_intersection_image_translated_orbit(f2):
    # Y = b <a> o within B(o, 6): projects to a single point; the thickened
    # intersection contains only b-adjacent vertices, diameter 0
    pm = ProjectionMap(Axis(f2.parse("a")))
    orbit = SubgroupOrbit(FreeSubgroup(fold(f2, ["a"])), translate=f2.parse("b"))
    rec = intersection_image_audit(pm, orbit, 0, 0, 6, theta=1)
    assert rec.diam_projection == 0
    assert rec.difference == 0


def test_intersection_image_tracks_large_orbit(f2):
    pm = ProjectionMap(Axis(f2.parse("a")))
    orbit = SubgroupOrbit(FreeSubgroup(fold(f2, ["a", "baB"])))
    rec = intersection_image_audit(pm, orbit, 0, 0, 5, theta=2, zeta_bound=4)
    assert rec.diam_projection == 10  # a^{+-5} in the sample
    assert not rec.flagged


def test_projection_symmetry(f2):
    pm_a = ProjectionMap(Axis(f2.parse("a")))
    assert projection_symmetry_audit(pm_a, pm_a, 5)["difference"] == 0
    pm_b = ProjectionMap(Axis(f2.parse("baB")))
    rec = projection_symmetry_audit(pm_a, pm_b, 5)
    assert (rec["diam_A_of_B"], rec["diam_B_of_A"], rec["difference"]) == (0, 0, 0)
    pm_ab = ProjectionMap(Axis(f2.parse("ab")))
    rec2 = projection_symmetry_audit(pm_a, pm_ab, 5)
    assert rec2["difference"] <= 1


# -- translation lengths and qi embeddings ------------------------------------------

def test_translation_length_ab(f2):
    rec = translation_length_check(f2.parse("ab"), 10)
    assert rec.step_lengths == tuple(2 * m for m in range(1, 11))
    assert rec.increments_exact and rec.lower_bound_ok and rec.upper_bound_ok


def test_translation_length_conjugate(f2):
    rec = translation_length_check(f2.parse("baB"), 10)
    assert rec.step_lengths == tuple(m + 2 for m in range(1, 11))
    assert rec.translation_length == 1
    assert rec.increments_exact


def test_translation_length_z23(z23):
    rec = translation_length_check(z23.parse("xy"), 8)
    assert rec.translation_length == 2
    assert rec.step_lengths == tuple(2 * m for m in range(1, 9))


def test_qi_embedding_element(f2):
    assert qi_embedding_check(f2.parse("a")) == {"kappa": 1.0, "lambda": 0.0, "samples": 8}
    rec = qi_embedding_check(f2.parse("baB"))
    assert rec["kappa"] == 3.0  # worst ratio at m = 1: d = 3


def test_qi_embedding_subgroup(f2):
    rec = qi_embedding_check(fold(f2, ["a", "baB"]), 8)
    assert rec["samples"] > 0
    assert 1.0 <= rec["kappa"] <= 3.0
