"""Axes, translation lengths, and exact nearest-point projections.
Oracles: brute-force distance tables over ball enumerations, the window
scan along an axis, and the PSL(2,Z) matrix model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growthlab import Axis, MarkedGroup, ProjectionMap, ball_elements, distance, is_torsion
from growthlab.errors import FiniteOrderElement

from oracles import PslCayley, nearest_by_window

ORACLE_GROUPS = [MarkedGroup.free(2), MarkedGroup.free(3)] + [
    MarkedGroup.free_product(orders)
    for orders in ([2, 3], [4, 4], [4, 2], [6, 4], [2, 2, 5])]


def test_axis_examples(f2):
    ax = Axis(f2.parse("a"))
    assert str(ax.core) == "a" and ax.translation_length == 1
    ax2 = Axis(f2.parse("baB"))
    assert (str(ax2.conjugator), str(ax2.core)) == ("b", "a")


def test_axis_z23_translation_length(z23):
    # oracle: d(o, (xy)^m o) = 2m in the matrix model
    oracle = PslCayley(8)
    for m in range(1, 4):
        assert oracle.word_distance("xy" * m) == 2 * m
    assert Axis(z23.parse("xy")).translation_length == 2


def test_axis_rejects_torsion(z23):
    for text in ("x", "y", "xyx"):
        with pytest.raises(FiniteOrderElement):
            Axis(z23.parse(text))


def test_axis_vertices_form_geodesic_line(f2, z23):
    for group, text in ((f2, "ab"), (f2, "baB"), (z23, "xy")):
        ax = Axis(group.parse(text))
        for t in range(-6, 6):
            for s in range(t, 6):
                assert distance(ax.vertex(t), ax.vertex(s)) == s - t


def test_axis_invariance_under_element(f2):
    ax = Axis(f2.parse("ab"))
    g = f2.parse("ab")
    # g shifts the line by exactly the translation length
    for t in range(-4, 5):
        assert g * ax.vertex(t) == ax.vertex(t + ax.translation_length)


def test_project_point_on_axis(f2):
    pm = ProjectionMap(Axis(f2.parse("a")))
    r = pm.project(f2.parse("aaaaa"))
    assert r.vertex == f2.parse("aaaaa") and r.dist == 0


def test_project_off_axis_brute_force(f2):
    pm = ProjectionMap(Axis(f2.parse("a")))
    # oracle: distances d(b a^3, a^n) = |a^-n b a^3| minimized at n = 0
    x = f2.parse("baaa")
    table = {n: distance(f2.parse("a") ** n, x) for n in range(-6, 7)}
    assert min(table.values()) == table[0] == 4
    r = pm.project(x)
    assert r.vertex == f2.identity() and r.dist == 4


def test_project_b_inverse_lies_on_ab_axis(f2):
    # B is the position -1 vertex of the ab-line, so it projects to itself
    pm = ProjectionMap(Axis(f2.parse("ab")))
    r = pm.project(f2.parse("B"))
    assert r.dist == 0 and r.vertex == f2.parse("B") and r.position == -1


@given(st.lists(st.sampled_from("abAB"), max_size=7).map("".join))
@settings(max_examples=150, deadline=None)
def test_projection_is_nearest_point(s):
    f2 = MarkedGroup.free(2)
    pm = ProjectionMap(Axis(f2.parse("ab")))
    x = f2.parse(s)
    r = pm.project(x)
    # oracle: sweep a wide parameter window by brute force
    brute = min(distance(pm.axis.vertex(t), x) for t in range(-25, 26))
    assert r.dist == brute
    assert distance(r.vertex, x) == r.dist


def test_projection_tie_break_deterministic(z42):
    # around an even cycle two axis vertices can be equally near x; the
    # rule is the least (dist, |t|, vertex label).  Oracle: the brute
    # minimum of that key over a window far wider than the projection's.
    # The nearest vertices of a tie lie on one arc of one cycle, which
    # never has vertex(0) strictly inside (the core is cyclically reduced),
    # so |t| always decides and the label never does.
    z44 = MarkedGroup.free_product([4, 4])
    ties = 0
    for group, g in ((z42, "xxy"), (z44, "yx")):
        pm = ProjectionMap(Axis(group.parse(g)))
        vertex = pm.axis.vertex
        for x in ball_elements(group, 4):
            keys = sorted((distance(vertex(t), x), abs(t), str(vertex(t)), t)
                          for t in range(-30, 31))
            d, _, _, t = keys[0]
            ties += keys[1][0] == d
            r = pm.project(x)
            assert (r.position, r.dist, r.vertex) == (t, d, vertex(t))
    assert ties > 0


def _words(group, max_size, min_size=0):
    letters = [s * (i + 1) for i in range(group.rank) for s in (1, -1)]
    return st.lists(st.sampled_from(letters), min_size=min_size,
                    max_size=max_size).map(group.from_letters)


@st.composite
def _axes(draw):
    """Axes of random elements, half of them conjugated, in ORACLE_GROUPS."""
    group = draw(st.sampled_from(ORACLE_GROUPS))
    g = draw(_words(group, 6, min_size=1).filter(lambda w: not is_torsion(w)))
    u = draw(_words(group, 3))
    return Axis(g.conjugated_by(u))


def _assert_matches_window_scan(axis, radius=4):
    pm = ProjectionMap(axis)
    for x in ball_elements(axis.group, radius):
        r = pm.project(x)
        assert (r.position, r.dist, r.vertex) == nearest_by_window(axis, x), (axis, x)


@given(_axes())
@settings(max_examples=100, deadline=None)
def test_projection_matches_window_scan(axis):
    _assert_matches_window_scan(axis)


@pytest.mark.parametrize("g, x, position", [("a", "A", -1), ("AAA", "A", 1),
                                            ("bAAAB", "bA", 1)])
def test_projection_one_syllable_free_core(f2, g, x, position):
    # w^infty is one unbounded syllable, so the read-off compares letters
    axis = Axis(f2.parse(g))
    r = ProjectionMap(axis).project(f2.parse(x))
    assert (r.position, r.dist, r.vertex) == (position, 0, f2.parse(x))
    _assert_matches_window_scan(axis)


def test_projected_distance_and_diameter(f2):
    pm = ProjectionMap(Axis(f2.parse("a")))
    x = f2.parse("baa")
    assert pm.projected_distance(x, x) == 0
    # all b a^n project to the origin: diameter 0
    pts = [f2.parse("b") * f2.parse("a") ** n for n in range(-5, 6)]
    assert pm.projected_diameter(pts) == 0
    # mixed set spans the interval of positions
    pts2 = [f2.parse("aaa"), f2.parse("AA"), f2.parse("baaaa")]
    assert pm.projected_diameter(pts2) == 5


def test_projected_set_distance(f2):
    pm = ProjectionMap(Axis(f2.parse("a")))
    xs = [f2.parse("aaa"), f2.parse("aaaa")]
    ys = [f2.parse("A"), f2.parse("bA")]
    # oracle: positions are {3, 4} and {-1, 0} (bA projects to the origin:
    # d(bA, 1) = 2 beats d(bA, a^n) = |n| + 2), so the gap is 3
    assert distance(f2.parse("bA"), f2.identity()) == 2
    assert distance(f2.parse("bA"), f2.parse("A")) == 3
    assert pm.projected_set_distance(xs, ys) == 3
    assert pm.projected_set_distance(xs, xs) == 0


def test_projection_lipschitz_in_tree(f2):
    pm = ProjectionMap(Axis(f2.parse("ab")))
    pts = list(ball_elements(f2, 4))
    pos = {x: pm.position(x) for x in pts}
    import itertools
    for x, y in itertools.combinations(pts[:120], 2):
        assert abs(pos[x] - pos[y]) <= distance(x, y)


def test_translated_projection(f2, z42):
    # pi_{uA}(x) = u . pi_A(u^-1 x), with the base map's positions and memo
    for group, g, u in ((f2, "ab", "bA"), (z42, "xxy", "yX")):
        base = ProjectionMap(Axis(group.parse(g)))
        u = group.parse(u)
        pm = base.translated(u)
        for x in ball_elements(group, 4):
            r, b = pm.project(x), base.project(u.inverse() * x)
            assert (r.position, r.vertex, r.dist) == (b.position, u * b.vertex, b.dist)
        assert pm._cache is base._cache
    # oracle in the tree: uA is the axis of u g u^-1, so the distances agree
    g, u = f2.parse("ab"), f2.parse("bA")
    pm = ProjectionMap(Axis(g)).translated(u)
    direct = ProjectionMap(Axis(g.conjugated_by(u)))
    assert all(pm.dist_to_axis(x) == direct.dist_to_axis(x) for x in ball_elements(f2, 4))
