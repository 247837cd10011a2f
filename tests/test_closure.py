"""Elementary closures, transversal conjugates, separation powers and
selectors.  Oracles: primitive-root centralizers in free groups, the ball
scan ``oracles.closure_by_scan`` and direct conjugation arithmetic."""

import oracles
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from growthlab import (Axis, MarkedGroup, ProjectionMap, ball_elements, closure, is_torsion,
                       primitive_root, stallings_fold)
from growthlab.closure import (SeparationSelector, elementary_closure, find_selector_power,
                               find_transversal_conjugate, geometric_separation_power,
                               subgroup_closure_intersection)
from growthlab.errors import (BudgetExceeded, CrossCheckFailed, FiniteOrderElement,
                              NotFoundWithinBound, PreconditionFailed)


def fold(group, words):
    return stallings_fold(group, [group.parse(w) for w in words])


# -- closures -------------------------------------------------------------------

def test_closure_of_primitive_element(f2):
    desc = elementary_closure(f2.parse("ab"), 6)
    assert desc.M == 1
    assert desc.index_over_cyclic == 1
    assert desc.E_plus_index == 1
    assert desc.verify()
    # oracle: in a free group E(g) = <primitive root>; compare ball slices
    root, _ = primitive_root(f2.parse("ab"))
    oracle = {root**k for k in range(-3, 4) if (root**k).length <= 6}
    assert set(desc.elements) == oracle


def test_closure_of_proper_power(f2):
    desc = elementary_closure(f2.parse("aa"), 6)
    assert desc.index_over_cyclic == 2  # [<a> : <a^2>] = 2
    assert desc.E_plus_index == 1
    assert [str(g) for g in desc.E_generators] == ["a"]
    oracle = {f2.parse("a") ** k for k in range(-6, 7)}
    assert set(desc.elements) == oracle


def test_closure_certificate_products_are_linear(f2, products):
    # the 301 elements a^i, |i| <= 150: the certificate stands on the
    # presentation, so listing takes one product per power; a scan of every
    # ordered pair, as the certificate once was, makes 90,601
    desc = elementary_closure(f2.parse("a"), 150)
    assert len(desc.elements) == 301
    assert products[0] <= 2 * len(desc.elements)
    assert oracles.unclosed_product(desc.elements, 150) is None


def test_closure_past_the_letter_cap_is_refused_before_listing(f2, products):
    # the powers a^i, |i| <= 20,001, would take 20,001 * 20,002 letters
    with pytest.raises(BudgetExceeded, match="400060002 letters exceed cap 2000000"):
        elementary_closure(f2.parse("a"), 20_000)
    assert products[0] < 10


def test_closure_certificate_rejects_a_wrong_reflection(monkeypatch):
    # x has order 4 in Z4*Z4, so t = x fails t t = 1
    z44 = MarkedGroup.free_product([4, 4])
    monkeypatch.setattr(closure, "_axis_reflection", lambda root: z44.parse("x"))
    with pytest.raises(CrossCheckFailed, match="not an involution"):
        elementary_closure(z44.parse("xy"), 6)


def test_closure_certificate_rejects_a_short_exponent_bound(f2, monkeypatch):
    # a core of 3 letters for z = a cuts the exponents to |i| <= 3 at radius 6
    monkeypatch.setattr(closure, "cyclic_reduce", lambda w: (f2.identity(), f2.parse("aaa")))
    with pytest.raises(CrossCheckFailed, match="exponent bound 3 stops inside"):
        elementary_closure(f2.parse("a"), 6)


def test_closure_torsion_rejected(z23):
    with pytest.raises(FiniteOrderElement):
        elementary_closure(z23.parse("x"), 4)


def test_closure_in_z23(z23):
    desc = elementary_closure(z23.parse("xy"), 5)
    assert desc.index_over_cyclic == 1
    assert desc.E_plus_index == 1
    assert desc.verify()


def test_closure_infinite_dihedral(z22):
    # x inverts xy: x(xy)x = yx = (xy)^-1, so E = D_inf with E+ of index 2
    g = z22.parse("xy")
    assert g.conjugated_by(z22.parse("x")) == g.inverse()
    desc = elementary_closure(g, 6)
    assert desc.E_plus_index == 2
    assert desc.index_over_cyclic == 2
    assert desc.verify()
    # inverters pairwise multiply into E+ (their products fix g^M)
    gm = g**desc.M
    inverters = [u for u in desc.elements if gm.conjugated_by(u) == gm.inverse()]
    assert inverters
    for u in inverters[:5]:
        for v in inverters[:5]:
            assert gm.conjugated_by(u * v) == gm


def test_find_m_examples(f2, z22):
    assert oracles.find_M(f2.parse("ab"), [f2.parse("ab")]) == 1
    assert oracles.find_M(f2.parse("aa"), [f2.parse("a")]) == 1
    assert oracles.find_M(z22.parse("xy"), [z22.parse("x"), z22.parse("xy")]) == 1


def test_is_power_of(f2):
    g = f2.parse("ab")
    assert oracles.is_power_of(f2.identity(), g)
    assert oracles.is_power_of(g**3, g)
    assert oracles.is_power_of((g**2).inverse(), g)
    assert not oracles.is_power_of(f2.parse("a"), g)
    assert not oracles.is_power_of(f2.parse("abab") * f2.parse("a"), g)


CLOSURE_GROUPS = ("free:2", "free:3", "product:2,3", "product:2,2", "product:2,4",
                  "product:4,4", "product:6,4", "product:2,2,5")


@st.composite
def closure_cases(draw):
    """An infinite-order word of length 1 to 5 in one of CLOSURE_GROUPS, and
    a radius of 1 to 5."""
    group = MarkedGroup.from_descriptor(draw(st.sampled_from(CLOSURE_GROUPS)))
    signed = [s * (i + 1) for i in range(group.rank) for s in (1, -1)]
    g = group.from_letters(draw(st.lists(st.sampled_from(signed), min_size=1, max_size=5)))
    assume(not is_torsion(g))
    return g, draw(st.integers(1, 5))


F2 = MarkedGroup.free(2)
_Z225 = MarkedGroup.free_product([2, 2, 5])


@given(closure_cases())
@example((MarkedGroup.free_product([2, 2]).parse("xy"), 5))
@example((_Z225.parse("zxyZ"), 5))    # a conjugated axis, reflected by zxZ
@example((_Z225.parse("xyxzxZ"), 5))  # reflected by xyx, centred off o
@example((_Z225.parse("xzxz"), 5))    # (xz)^2: cyclic, index 2 over <g>
@example((F2.parse("babbab"), 5))     # (bab)^2: a root that starts and ends on b
@settings(max_examples=60, deadline=None)
def test_closure_matches_the_ball_scan(case):
    """The closure read off the axis lists exactly the scanned elements of
    B(o, r), and its generators span them there.  Its indexes match those
    of the scan of B(o, 5), which meets every coset of <g> for each g of
    length <= 5 here: in F_k the cosets z^j <g>, |j| <= n/2, lie within |g|,
    and for the free products all such g were checked one by one."""
    g, r = case
    desc = elementary_closure(g, r)
    scan = oracles.closure_by_scan(g, 5)
    in_ball = {u for u in scan.elements if u.length <= r}
    assert set(desc.elements) == in_ball and len(desc.elements) == len(in_ball)
    assert oracles.subgroup_in_ball(desc.E_generators, r) == in_ball
    assert (desc.M, desc.E_plus_index, desc.index_over_cyclic) == \
        (scan.M, scan.E_plus_index, scan.index_over_cyclic)
    assert desc.verify()


@given(closure_cases(), st.integers(0, 10 ** 6))
@example((MarkedGroup.free_product([2, 2]).parse("xy"), 6), 3)  # dihedral
@example((MarkedGroup.free_product([4, 4]).parse("xxyy"), 8), 1)  # dihedral, t = x^2
@settings(max_examples=60, deadline=None)
def test_closure_is_closed_under_in_ball_products(case, k):
    """The pair scan finds every in-ball product of listed elements listed.
    It is not vacuous: it misses the identity once it is dropped, since
    u u^-1 = 1, and a nontrivial u once it is dropped when u^2 != 1 lies in
    the ball, since u = u^2 u^-1."""
    g, r = case
    elements = elementary_closure(g, r).elements
    assert oracles.unclosed_product(elements, r) is None
    if len(elements) > 1:  # elements[0] == 1
        assert oracles.unclosed_product(elements[1:], r) is not None
    u = elements[k % len(elements)]
    if not u.is_identity and (u * u).length <= r and not (u * u).is_identity:
        assert oracles.unclosed_product([v for v in elements if v != u], r) is not None


# -- transversal conjugates ----------------------------------------------------------

def test_transversal_same_generator(f2):
    sub = fold(f2, ["a"])
    rec = find_transversal_conjugate(sub, f2.parse("a"), 3, theta=0)
    assert rec.diameter == 0
    assert rec.k.length == 1 and str(rec.k) in ("b", "B")


def test_transversal_trivial_case(f2):
    sub = fold(f2, ["a"])
    rec = find_transversal_conjugate(sub, f2.parse("b"), 3, theta=0)
    assert rec.k.is_identity and rec.diameter == 0


def test_transversal_finite_index_not_found(f2):
    rose = fold(f2, ["a", "b"])
    with pytest.raises(NotFoundWithinBound) as exc:
        find_transversal_conjugate(rose, p0 := f2.parse("a"), 2, theta=0, orbit_radius=4)
    assert exc.value.best["diameter"] > 0


# -- separation powers and selectors ---------------------------------------------------

def test_separation_power_theta_two(f2):
    # projections of <a> and b^{3j} <a> sit 3|j| apart on the b-axis
    sub = fold(f2, ["a"])
    rec = geometric_separation_power(sub, f2.parse("b"), epsilon=0, theta=2)
    assert rec["M"] == 3
    assert rec["h_cap_e"] == ["1"]


def test_separation_power_theta_zero(f2):
    sub = fold(f2, ["a"])
    assert geometric_separation_power(sub, f2.parse("b"), epsilon=0, theta=0)["M"] == 1


def test_separation_power_monotone(f2):
    """Enlarging M keeps the separation property (checked at M and 2M)."""
    from growthlab.closure import _coset_words
    sub = fold(f2, ["a"])
    pm = ProjectionMap(Axis(f2.parse("b")))
    y = [h for h in sub.elements_in_ball(5)]
    for m in (3, 6):
        for u in _coset_words(f2.parse("b"), m, [f2.identity()], 3):
            assert pm.projected_set_distance(y, [u * p for p in y]) > 2


def test_coset_words_are_distinct_when_h_meets_the_closure(f2):
    """For H = <bb> and g = b, H & E(g) holds the even powers of b, so many
    products p f q coincide; each element is sampled once, first-seen first.
    Integer model: b^e for e = j, or j1 + 2i + j2 with 0 < |j|, |j1|, |j2| <= 4
    and b^{2i} in the scanned intersection, less the intersection itself."""
    from growthlab.closure import (SEPARATION_J_MAX, _coset_words,
                                   subgroup_closure_intersection)
    sub, b = fold(f2, ["bb"]), f2.parse("b")
    f_elements = subgroup_closure_intersection(sub.elements_in_ball(6), b)
    f_exps = {2 * i for i in range(-3, 4)}
    assert {str(f) for f in f_elements} == {str(b**e) for e in f_exps}
    js = [j for j in range(-4, 5) if j]
    exps = set(js) | {j1 + f + j2 for j1 in js for f in f_exps - {0} for j2 in js}
    words = _coset_words(b, 1, f_elements, 4)
    assert len(words) == len(set(words)) == 22
    assert set(words) == {b**e for e in exps - f_exps}
    assert words[:4] == [b**e for e in js if e % 2]

    rec = geometric_separation_power(sub, b, epsilon=100, theta=1)
    f_elements = subgroup_closure_intersection(sub.elements_in_ball(5), b)
    assert rec["samples"] == len(set(_coset_words(b, rec["M"], f_elements, SEPARATION_J_MAX)))
    assert (rec["M"], rec["samples"]) == (14, 54)


@st.composite
def subgroups_and_elements(draw):
    """A random subgroup of F2, and g a random word of length 1 to 4 or a
    power of the primitive root of the subgroup's first generator."""
    gens = draw(oracles.SUBGROUPS)
    if draw(st.booleans()):
        g = F2.parse(draw(st.integers(1, 4).flatmap(oracles.reduced_words)))
    else:
        g = primitive_root(F2.parse(gens[0]))[0] ** draw(st.sampled_from([-2, -1, 1, 2, 3]))
    return gens, g


@given(subgroups_and_elements())
@settings(max_examples=40, deadline=None)
def test_closure_intersection_matches_the_scan(case):
    """The single criterion u g u^-1 = g^{+-1} keeps exactly the subgroup
    elements that the scan's m <= M_SCAN keeps."""
    gens, g = case
    sub = fold(F2, gens)
    assert subgroup_closure_intersection(sub.elements_in_ball(6), g) == \
        oracles.closure_members(g, sub.elements_in_ball(6))


def _separates(sub, g, m, theta) -> bool:
    """Whether every sampled u in <g^m, H&E> - H&E has d_A(Y, uY) > theta."""
    pm = ProjectionMap(Axis(g))
    radius = closure.SEPARATION_ORBIT_RADIUS
    y = list(sub.elements_in_ball(radius))
    f_elements = subgroup_closure_intersection(y, g)
    return all(pm.projected_set_distance(y, [u * p for p in y]) > theta
               for u in closure._coset_words(g, m, f_elements, closure.SEPARATION_J_MAX))


@pytest.mark.parametrize("gens, g, epsilon, theta, want", [
    (["a"], "b", 0, 2, 3), (["a"], "b", 0, 0, 1), (["bb"], "b", 100, 1, 14),
    (["a", "baB"], "b", 1, 2, 4), (["aa", "bb"], "ab", 100, 3, 3),
    (["abAB"], "ba", 100, 2, 3)])
def test_separation_power_is_the_least_that_separates(f2, gens, g, epsilon, theta, want):
    """M separates and M - 1 does not, recomputed on the same samples."""
    sub, g = fold(f2, gens), f2.parse(g)
    m = geometric_separation_power(sub, g, epsilon=epsilon, theta=theta)["M"]
    assert m == want
    assert _separates(sub, g, m, theta)
    assert m == 1 or not _separates(sub, g, m - 1, theta)


def test_separation_power_precondition(f2):
    sub = fold(f2, ["a"])
    with pytest.raises(PreconditionFailed):
        geometric_separation_power(sub, f2.parse("a"), epsilon=0, theta=1)


def test_separation_power_excludes_h_cap_e(z23):
    # H = <x> is finite; H & E(g) can be nontrivial yet is excluded from
    # the separation quantifier
    g = z23.parse("xy") * z23.parse("yx")  # infinite order
    sub = oracles.FiniteSubgroup(z23, [z23.parse("x")])
    f_els = subgroup_closure_intersection(sub.elements_in_ball(3), g)
    assert all(f.is_identity or not oracles.is_power_of(f, g) for f in f_els)


def test_selector_rows_satisfy_bound(f2):
    """Checked through a map of the test's own, not the selector's."""
    sel = SeparationSelector(ProjectionMap(Axis(f2.parse("b"))), 4, 1)
    pm = ProjectionMap(Axis(f2.parse("b")))
    assert sel.power == f2.parse("b") ** 4
    for u in ball_elements(f2, 4):
        f_u = sel.power if sel.moves(u.inverse()) else f2.identity()
        assert pm.projected_distance(u.inverse(), f_u) > sel.threshold


def test_selector_branches(f2):
    sel = SeparationSelector(ProjectionMap(Axis(f2.parse("b"))), 4, 1)
    assert (sel.g, sel.power) == (f2.parse("b"), f2.parse("b") ** 4)
    # u = b^-3: u^-1 = b^3 projects far from 1: first branch, f = 1
    assert not sel.moves(f2.parse("BBB").inverse())
    # u = 1 projects to the basepoint itself: second branch, f = g^M
    assert sel.moves(f2.identity())


def test_selector_power_search(f2):
    sel = find_selector_power(f2.parse("b"), epsilon=0, theta=1, sample_radius=4)
    assert (sel.g, sel.M, sel.threshold) == (f2.parse("b"), 3, 1)
    assert oracles.selector_certifies(f2.parse("b"), 3, 1, 4)
    assert not any(oracles.selector_certifies(f2.parse("b"), k, 1, 4) for k in (1, 2))


def test_selector_power_past_the_cap_is_refused(f2, monkeypatch):
    """Past POWER_CAP the search names the first u of the ball, in its
    depth-first order, that fails there, and its distance: u = abaB, whose
    u^-1 = bABA projects to position 1, within the bound 1 of g^2 at 2."""
    monkeypatch.setattr(closure, "POWER_CAP", 2)
    with pytest.raises(NotFoundWithinBound) as exc:
        find_selector_power(f2.parse("b"), epsilon=0, theta=1, sample_radius=4)
    assert exc.value.best == ("abaB", 1)


SELECTOR_GROUPS = ("free:2", "free:3", "product:2,3", "product:4,4")


@st.composite
def selector_cases(draw):
    """An infinite-order word of length 1 to 4, conjugated by one of length
    0 to 2, in one of SELECTOR_GROUPS; epsilon, theta and a radius."""
    group = MarkedGroup.from_descriptor(draw(st.sampled_from(SELECTOR_GROUPS)))
    signed = [s * (i + 1) for i in range(group.rank) for s in (1, -1)]
    g = group.from_letters(draw(st.lists(st.sampled_from(signed), min_size=1, max_size=4)))
    assume(not is_torsion(g))
    u = group.from_letters(draw(st.lists(st.sampled_from(signed), max_size=2)))
    return g.conjugated_by(u), draw(st.integers(0, 2)), draw(st.integers(0, 3)), \
        draw(st.integers(1, 4))


@given(selector_cases())
@settings(max_examples=40, deadline=None)
def test_selector_power_is_the_least_the_walk_certifies(case):
    """The power read from the ball's positions is the least M that the
    walk of the ball at one power certifies."""
    g, epsilon, theta, r = case
    sel = find_selector_power(g, epsilon, theta, r)
    m = sel.M
    assert (sel.g, sel.threshold) == (g, theta + epsilon)
    assert oracles.selector_certifies(g, m, theta + epsilon, r)
    assert not any(oracles.selector_certifies(g, k, theta + epsilon, r) for k in range(1, m))


@pytest.mark.parametrize("text", ["ab", "aab", "baB", "abAB", "bb"])
def test_closure_matches_primitive_root_oracle(f2, text):
    """In a free group E(g) = <primitive root of g>: ball slices agree."""
    g = f2.parse(text)
    desc = elementary_closure(g, 5)
    root, _ = primitive_root(g)
    oracle = set()
    k = 0
    while (root ** k).length <= 5:
        oracle.add(root ** k)
        oracle.add((root ** k).inverse())
        k += 1
    assert set(desc.elements) == oracle
