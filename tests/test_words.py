"""Word arithmetic: normal forms, multiplication, cyclic reduction,
geodesics.  Oracle: string reduction and BFS Cayley graphs."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from growthlab import MarkedGroup, all_geodesics, cyclic_reduce, distance, is_torsion, primitive_root
from growthlab.errors import GroupMismatch, UnknownSymbol

from oracles import (PslCayley, free_ball, free_inverse, free_reduce,
                     product_canonical_display, product_reduce)

Z23_ORDERS = {"x": 2, "y": 3}
# even-order ties (exponent m/2) and three factors, two of them of order 2
PRODUCT_ORDERS = [Z23_ORDERS, {"x": 4, "y": 4}, {"x": 2, "y": 2, "z": 5}]


def letters_strategy(rank=2, size=12):
    syms = "abcdefgh"[:rank]
    alphabet = list(syms) + [s.upper() for s in syms]
    return st.lists(st.sampled_from(alphabet), max_size=size).map("".join)


def product_letters(orders, size=8):
    alphabet = list(orders) + [s.upper() for s, m in orders.items() if m > 2]
    return st.lists(st.sampled_from(alphabet), max_size=size).map("".join)


def oracle_length(s, orders):
    """Word length of the string s read by the string oracles; orders None
    means the free group."""
    if orders is None:
        return len(free_reduce(s))
    return len(product_canonical_display(s, orders))


def fresh_inverse(u):
    """u^-1 normalised from scratch by MarkedGroup.word."""
    return u.group.word([(i, -e) for i, e in reversed(u.syllables)])


# -- reduce ------------------------------------------------------------------

def test_free_cancellation(f2):
    assert str(f2.parse("a A")) == "1"
    assert str(f2.parse("a b B a")) == "aa"


def test_product_relator(z23):
    assert str(z23.parse("x x y")) == "y"


def test_unknown_symbol(f2):
    with pytest.raises(UnknownSymbol):
        f2.parse("a q")


@given(letters_strategy())
@settings(max_examples=300)
def test_reduce_matches_string_oracle(s):
    f2 = MarkedGroup.free(2)
    assert str(f2.parse(s)) == (free_reduce(s) or "1")


@given(st.lists(st.sampled_from("xyY"), max_size=10).map("".join))
@settings(max_examples=300)
def test_product_reduce_matches_string_oracle(s):
    z23 = MarkedGroup.free_product([2, 3])
    expected = product_canonical_display(s, Z23_ORDERS) or "1"
    assert str(z23.parse(s)) == expected


# -- mul / inv ----------------------------------------------------------------

def test_mul_examples(f2):
    assert str(f2.parse("ab") * f2.parse("Ba")) == "aa"
    assert str(f2.parse("ab").inverse()) == "BA"


@given(st.data())
@settings(max_examples=300)
def test_mul_associative_and_inverse(data):
    orders = data.draw(st.sampled_from([None] + PRODUCT_ORDERS[1:]))
    if orders is None:
        group, letters = MarkedGroup.free(2), letters_strategy(size=8)
    else:
        group, letters = MarkedGroup.free_product(list(orders.values())), product_letters(orders)
    s, t = data.draw(letters), data.draw(letters)
    u, v = group.parse(s), group.parse(t)
    assert u * u.inverse() == group.identity()
    assert u.inverse().inverse() == u
    assert (u * v).inverse() == v.inverse() * u.inverse()
    # triangle inequality of the word metric
    assert (u * v).length <= u.length + v.length
    # carried lengths equal those of fresh normal forms and of the oracle
    fresh = group.word(u.syllables + v.syllables)
    assert (u * v).length == fresh.length == oracle_length(s + t, orders)
    assert u.inverse().length == fresh_inverse(u).length == oracle_length(free_inverse(s), orders)
    assert distance(u, v) == oracle_length(free_inverse(s) + t, orders)


@given(st.data())
@settings(max_examples=300)
def test_product_mul_matches_oracle(data):
    orders = data.draw(st.sampled_from(PRODUCT_ORDERS))
    group = MarkedGroup.free_product(list(orders.values()))
    s, t = data.draw(product_letters(orders)), data.draw(product_letters(orders))
    u, v = group.parse(s), group.parse(t)
    expected = product_canonical_display(s + t, orders) or "1"
    assert str(u * v) == expected
    assert (u * v).length <= u.length + v.length
    fresh = group.word(u.syllables + v.syllables)
    assert (u * v).length == fresh.length == oracle_length(s + t, orders)
    assert u.inverse().length == fresh_inverse(u).length == oracle_length(free_inverse(s), orders)
    assert distance(u, v) == oracle_length(free_inverse(s) + t, orders)


def test_group_mismatch(f2, z23):
    with pytest.raises(GroupMismatch):
        f2.parse("a") * z23.parse("x")


# -- word length is the BFS distance -----------------------------------------

def test_length_is_graph_distance_psl():
    oracle = PslCayley(6)
    z23 = MarkedGroup.free_product([2, 3])
    import itertools
    for n in range(0, 5):
        for s in itertools.product("xyY", repeat=n):
            w = z23.parse("".join(s))
            if w.length <= 6:
                assert w.length == oracle.word_distance("".join(s))


# -- cyclic reduction ----------------------------------------------------------

def test_cyclic_reduce_examples(f2):
    conj, core = cyclic_reduce(f2.parse("baB"))
    assert (str(conj), str(core)) == ("b", "a")
    conj, core = cyclic_reduce(f2.parse("ab"))
    assert (str(conj), str(core)) == ("1", "ab")
    conj, core = cyclic_reduce(f2.parse("ababA"))  # a (bab) a^-1
    assert (str(conj), str(core)) == ("a", "bab")


@given(letters_strategy(size=10))
@settings(max_examples=300)
def test_cyclic_reduce_contract(s):
    f2 = MarkedGroup.free(2)
    w = f2.parse(s)
    conj, core = cyclic_reduce(w)
    assert conj * core * conj.inverse() == w
    # idempotence and minimality over short conjugators
    conj2, core2 = cyclic_reduce(core)
    assert conj2.is_identity and core2 == core
    for t in ["a", "b", "A", "B", "ab", "ba"]:
        u = f2.parse(t)
        assert (u.inverse() * w * u).length >= core.length


@given(st.lists(st.sampled_from("xyY"), max_size=10).map("".join))
@settings(max_examples=200)
def test_cyclic_reduce_product_contract(s):
    z23 = MarkedGroup.free_product([2, 3])
    w = z23.parse(s)
    conj, core = cyclic_reduce(w)
    assert conj * core * conj.inverse() == w
    if len(core.syllables) >= 2:
        assert core.syllables[0][0] != core.syllables[-1][0]


def test_torsion_detection(z23):
    assert is_torsion(z23.parse("x"))
    assert is_torsion(z23.parse("y"))
    assert is_torsion(z23.parse("xyx"))  # conjugate of y
    assert not is_torsion(z23.parse("xy"))
    assert is_torsion(z23.identity())


# -- geodesics -----------------------------------------------------------------

def test_geodesic_examples(f2):
    path = next(all_geodesics(f2.parse("a"), f2.parse("ab")))
    assert [str(v) for v in path] == ["a", "ab"]
    path = next(all_geodesics(f2.parse("a"), f2.parse("b")))
    assert [str(v) for v in path] == ["a", "1", "b"]


def test_geodesic_z23_through_origin(z23):
    # oracle: BFS distance of x to y^2 is 2 and the midpoint is the origin
    oracle = PslCayley(4)
    assert oracle.word_distance("x") == 1 and oracle.word_distance("yy") == 1
    path = next(all_geodesics(z23.parse("x"), z23.parse("yy")))
    assert len(path) == 3
    assert str(path[1]) == "1"


@given(letters_strategy(size=6), letters_strategy(size=6))
@settings(max_examples=150)
def test_geodesic_properties(s, t):
    f2 = MarkedGroup.free(2)
    x, y = f2.parse(s), f2.parse(t)
    path = next(all_geodesics(x, y))
    assert len(path) - 1 == distance(x, y) == (x.inverse() * y).length
    # adjacency and two-letter subwords geodesic
    for i in range(len(path) - 1):
        assert distance(path[i], path[i + 1]) == 1
    for i in range(len(path) - 2):
        assert distance(path[i], path[i + 2]) == 2


def test_all_geodesics_even_cycle(z42):
    # exponent m/2 around a Z4 cycle: exactly two geodesics
    paths = list(all_geodesics(z42.identity(), z42.parse("xx")))
    assert len(paths) == 2
    assert sorted(str(p[1]) for p in paths) == ["X", "x"]
    # and in a tree the geodesic is unique
    f2 = MarkedGroup.free(2)
    assert len(list(all_geodesics(f2.parse("a"), f2.parse("bab")))) == 1


# -- primitive roots -------------------------------------------------------------

def test_primitive_root_examples(f2):
    r, n = primitive_root(f2.parse("aaaa"))
    assert (str(r), n) == ("a", 4)
    r, n = primitive_root(f2.parse("ab"))
    assert (str(r), n) == ("ab", 1)
    r, n = primitive_root(f2.parse("abab"))
    assert (str(r), n) == ("ab", 2)


def test_primitive_root_divisor_oracle(f2):
    # brute force: abab is h^2 for h = ab and for no longer exponent
    w = f2.parse("abab")
    powers = [(h, k) for k in range(2, 5)
              for h in [f2.parse(x) for x in ["a", "b", "ab", "ba", "aB"]]
              if h**k == w]
    assert powers == [(f2.parse("ab"), 2)]


def test_primitive_root_conjugated(f2):
    r, n = primitive_root(f2.parse("baaB"))  # b a^2 b^-1
    assert (str(r), n) == ("baB", 2)


@pytest.mark.parametrize("text, root, n", [
    ("bab", "bab", 1),
    ("babbab", "bab", 2),          # the core bab starts and ends on b
    ("abaaba" * 2, "aba", 4),
    ("cabaabaC", "cabaC", 2),
])
def test_primitive_root_of_cores_on_one_generator(text, root, n):
    f3 = MarkedGroup.free(3)
    assert primitive_root(f3.parse(text)) == (f3.parse(root), n)


@given(st.sampled_from(["free:2", "free:3", "product:2,3", "product:4,4", "product:2,2,5"]),
       st.lists(st.integers(0, 5), min_size=1, max_size=5), st.integers(1, 4))
@settings(max_examples=80, deadline=None)
def test_primitive_root_of_a_power(descriptor, picks, k):
    """For w = h^k, primitive_root(w) = (z, n) has z^n = w, k divides n and
    h = z^(n/k)."""
    group = MarkedGroup.from_descriptor(descriptor)
    signed = [s * (i + 1) for i in range(group.rank) for s in (1, -1)]
    h = group.from_letters(signed[p % len(signed)] for p in picks)
    assume(not is_torsion(h))
    z, n = primitive_root(h**k)
    assert z**n == h**k and n % k == 0
    assert z**(n // k) == h


def test_group_descriptors():
    g = MarkedGroup.from_descriptor("free:2")
    assert g.is_free and g.rank == 2 and g.descriptor == "free:2"
    h = MarkedGroup.from_descriptor("product:2,3")
    assert not h.is_free and h.orders == (2, 3) and h.descriptor == "product:2,3"
    with pytest.raises(ValueError):
        MarkedGroup.from_descriptor("braid:3")

