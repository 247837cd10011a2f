"""Marked groups and exact word arithmetic.

Two families are supported: free groups F_k and free products of finite
cyclic groups Z_{m_1} * ... * Z_{m_j}.  Words are stored in syllable normal
form, a tuple of (generator index, exponent) pairs with adjacent syllables
on distinct generators.  Exponents are arbitrary nonzero integers for a
free generator and canonical residues in [1, m-1] for a cyclic factor of
order m.

The word metric is realized by normal-form length: a free syllable (i, e)
costs |e| and a cyclic syllable costs min(e, m_i - e).  With that cost the
normal-form length of u^-1 v equals the Cayley-graph distance d(u, v) for
the generating set {x_i^{+-1}}, exactly.

The kernel never re-normalises or re-measures a word it already holds in
normal form.  Because adjacent syllables are on distinct generators and
exponents are canonical, a product u * v of two normal forms can only
change at the seam: the last syllable of u and the first of v merge when
they share a generator, and only a merge to the identity exposes the next
pair.  So ``Word.__mul__`` merges from the seam outward, stops at the first
nonzero merge, and carries |u| + |v| minus the seam's cost change as the
length.  Every maker of a ``Word`` passes the length it already knows.

``distance`` builds no word either.  If u = p u' and v = p v' with p the
longest common syllable prefix, then u^-1 v = u'^-1 v', and the first
syllables a of u' and b of v' differ.  When they are on different
generators nothing merges and d(u, v) = |u| + |v| - 2|p|; when they share
a generator, a^-1 b is one nonzero syllable whose neighbours are on other
generators, so that single merge is the only correction.
"""

from __future__ import annotations

import itertools
import string
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import CrossCheckFailed, FiniteOrderElement, GroupMismatch, UnknownSymbol

Syllable = tuple[int, int]

_FREE_SYMBOLS = string.ascii_lowercase
_PRODUCT_SYMBOLS = "xyzuvw" + string.ascii_lowercase


@dataclass(frozen=True)
class MarkedGroup:
    """A group with a fixed ordered generating set.

    ``orders[i]`` is the order of generator i, with 0 meaning infinite
    (a free factor).  The two supported families are all-zero orders
    (free group) and all orders >= 2 (free product of finite cyclics).
    """

    orders: tuple[int, ...]
    symbols: tuple[str, ...]

    def __post_init__(self):
        if not self.orders:
            raise ValueError("a marked group needs at least one generator")
        if len(self.orders) != len(self.symbols):
            raise ValueError("orders and symbols must have equal length")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("generator symbols must be distinct")
        for m in self.orders:
            if m != 0 and m < 2:
                raise ValueError(f"cyclic factor order must be >= 2, got {m}")
        for s in self.symbols:
            if len(s) != 1 or not s.isalpha() or not s.islower():
                raise ValueError(f"symbols must be single lowercase letters, got {s!r}")

    # -- constructors -------------------------------------------------

    @staticmethod
    def free(rank: int) -> "MarkedGroup":
        if rank < 1:
            raise ValueError("free group rank must be >= 1")
        return MarkedGroup(orders=(0,) * rank, symbols=tuple(_FREE_SYMBOLS[:rank]))

    @staticmethod
    def free_product(orders: Sequence[int]) -> "MarkedGroup":
        orders = tuple(orders)
        if len(orders) < 2:
            raise ValueError("a free product needs at least two factors")
        if any(m < 2 for m in orders):
            raise ValueError("all factor orders must be >= 2")
        return MarkedGroup(orders=orders, symbols=tuple(_PRODUCT_SYMBOLS[: len(orders)]))

    @staticmethod
    def from_descriptor(text: str) -> "MarkedGroup":
        """Parse ``free:2`` or ``product:2,3`` into a marked group."""
        kind, _, rest = text.strip().partition(":")
        if kind == "free":
            return MarkedGroup.free(int(rest))
        if kind == "product":
            return MarkedGroup.free_product([int(p) for p in rest.split(",")])
        raise ValueError(f"unknown group descriptor {text!r}")

    # -- basic queries -------------------------------------------------

    @property
    def is_free(self) -> bool:
        return all(m == 0 for m in self.orders)

    @property
    def rank(self) -> int:
        return len(self.orders)

    @property
    def descriptor(self) -> str:
        if self.is_free:
            return f"free:{self.rank}"
        return "product:" + ",".join(str(m) for m in self.orders)

    def identity(self) -> "Word":
        return Word(self, (), 0)

    # -- syllable plumbing ---------------------------------------------

    def word(self, syllables: Iterable[Syllable]) -> "Word":
        """Normalize an arbitrary syllable sequence (merges and drops)."""
        orders = self.orders
        rank = len(orders)
        out: list[Syllable] = []
        for i, e in syllables:
            if not 0 <= i < rank:
                raise UnknownSymbol(f"generator index {i} out of range")
            m = orders[i]
            if m:
                e %= m
            if not e:
                continue
            # out is a normal form, so at most its last syllable shares i
            if out and out[-1][0] == i:
                e += out.pop()[1]
                if m:
                    e %= m
                if not e:
                    continue
            out.append((i, e))
        length = 0
        for i, e in out:
            length += _cost(orders[i], e)
        return Word(self, tuple(out), length)

    @cached_property
    def letter_table(self) -> dict[int, "Word"]:
        """Each signed letter +-(i+1) as a word; built on first use."""
        return {s * (i + 1): self.word([(i, s)]) for i in range(self.rank) for s in (1, -1)}

    def from_letters(self, letters: Iterable[int]) -> "Word":
        """Build a word from signed letters (+-(i+1))."""
        return self.word((abs(l) - 1, 1 if l > 0 else -1) for l in letters)

    def parse(self, text: str) -> "Word":
        """Parse an ASCII word: lowercase = generator, uppercase = inverse.

        Tokens may be separated by whitespace or juxtaposed, e.g. ``a b A``
        or ``abA``.  ``1`` or the empty string denote the identity.
        """
        letters: list[int] = []
        for token in text.split():
            for ch in token:
                if ch == "1":
                    continue
                low = ch.lower()
                if low not in self.symbols:
                    raise UnknownSymbol(f"symbol {ch!r} not in alphabet {''.join(self.symbols)}")
                idx = self.symbols.index(low)
                letters.append((idx + 1) if ch.islower() else -(idx + 1))
        return self.from_letters(letters)


class Word:
    """An element of a marked group in syllable normal form.

    Invariant: adjacent syllables are on distinct generators and every
    exponent is canonical (nonzero, and in [1, m-1] on a factor of order m).
    ``length`` is the word length, passed in by whoever built the word and
    never recounted.  Immutable and hashable; safe to share across threads.
    """

    __slots__ = ("group", "syllables", "length", "_hash")

    def __init__(self, group: MarkedGroup, syllables: tuple[Syllable, ...], length: int):
        self.group = group
        self.syllables = syllables
        self.length = length
        self._hash = None

    # -- arithmetic ------------------------------------------------------

    def __mul__(self, other: "Word") -> "Word":
        g = self.group
        if other.group is not g and other.group != g:
            raise GroupMismatch("cannot multiply words from different groups")
        a, b = self.syllables, other.syllables
        if not b:
            return self
        if not a:
            return other
        length = self.length + other.length
        p, q, nb = len(a) - 1, 0, len(b)
        orders = g.orders
        while a[p][0] == b[q][0]:
            i, e = a[p]
            f = b[q][1]
            m = orders[i]
            s = (e + f) % m if m else e + f
            length -= _cost(m, e) + _cost(m, f) - _cost(m, s)
            if s:
                return Word(g, a[:p] + ((i, s),) + b[q + 1:], length)
            p -= 1
            q += 1
            if p < 0 or q == nb:
                break
        return Word(g, a[:p + 1] + b[q:], length)

    def inverse(self) -> "Word":
        g = self.group
        inv = []
        for i, e in reversed(self.syllables):
            m = g.orders[i]
            inv.append((i, -e if m == 0 else m - e))
        return Word(g, tuple(inv), self.length)

    def __pow__(self, n: int) -> "Word":
        if n == 0:
            return self.group.identity()
        base = self if n > 0 else self.inverse()
        out = base
        for _ in range(abs(n) - 1):
            out = out * base
        return out

    def conjugated_by(self, u: "Word") -> "Word":
        """u * self * u^-1."""
        return u * self * u.inverse()

    # -- views -----------------------------------------------------------

    def letters(self) -> list[int]:
        """Canonical geodesic spelling as signed letters.

        A cyclic syllable is spelled along the shorter arc of its cycle;
        on a tie (even order m, exponent m/2) the positive direction is
        the canonical choice.
        """
        out: list[int] = []
        for i, e in self.syllables:
            m = self.group.orders[i]
            if m == 0:
                out.extend([(i + 1) if e > 0 else -(i + 1)] * abs(e))
            elif e <= m - e:
                out.extend([i + 1] * e)
            else:
                out.extend([-(i + 1)] * (m - e))
        return out

    def syllable_spellings(self) -> list[list[list[int]]]:
        """Per-syllable geodesic spellings, including both arcs on ties.

        For order-2 factors the two arcs are the same edge, so only one
        spelling is reported.
        """
        out = []
        for i, e in self.syllables:
            m = self.group.orders[i]
            options: list[list[int]] = []
            if m == 0:
                options.append([(i + 1) if e > 0 else -(i + 1)] * abs(e))
            else:
                if e <= m - e:
                    options.append([i + 1] * e)
                if m - e <= e and m > 2:
                    options.append([-(i + 1)] * (m - e))
                elif m == 2 and not options:
                    options.append([i + 1])
            out.append(options)
        return out

    @property
    def is_identity(self) -> bool:
        return not self.syllables

    def __str__(self) -> str:
        if not self.syllables:
            return "1"
        chars = []
        for l in self.letters():
            s = self.group.symbols[abs(l) - 1]
            chars.append(s if l > 0 else s.upper())
        return "".join(chars)

    def __repr__(self) -> str:
        return f"<{self}>"

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, Word)
            and self.syllables == other.syllables
            and (self.group is other.group or self.group == other.group)
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash((self.group.orders, self.syllables))
        return h


# -- free-standing operations ------------------------------------------


def _cost(m: int, e: int) -> int:
    """Length of a syllable with canonical exponent e on a factor of order m."""
    if m == 0:
        return e if e > 0 else -e
    return e if 2 * e <= m else m - e


def distance(u: Word, v: Word) -> int:
    """Cayley-graph distance d(u, v) = |u^-1 v|, without building u^-1 v.

    The common syllable prefix cancels; at most one merge follows it (see
    the module docstring).
    """
    g = u.group
    if v.group is not g and v.group != g:
        raise GroupMismatch("cannot measure between words from different groups")
    a, b = u.syllables, v.syllables
    orders = g.orders
    d = u.length + v.length
    n = min(len(a), len(b))
    k = 0
    while k < n and a[k] == b[k]:
        i, e = a[k]
        d -= 2 * _cost(orders[i], e)
        k += 1
    if k < n:
        (i, e), (j, f) = a[k], b[k]
        if i == j:
            m = orders[i]
            s = (f - e) % m if m else f - e
            d -= _cost(m, e) + _cost(m, f) - _cost(m, s)
    return d


def cyclic_reduce(w: Word) -> tuple[Word, Word]:
    """Split w = conj * core * conj^-1 with core cyclically reduced.

    The core is the minimal-length conjugate reachable by rotating
    boundary syllables.  It is empty iff w is trivial; in a free product
    it is a single syllable iff w is conjugate into a finite factor
    (i.e. has finite order).
    """
    g = w.group
    sylls = list(w.syllables)
    conj: list[Syllable] = []
    while len(sylls) >= 2:
        (i, e), (j, f) = sylls[0], sylls[-1]
        if i != j:
            break
        m = g.orders[i]
        if m == 0:
            if (e > 0) == (f > 0):
                break  # e.g. aba: already cyclically reduced
            t = min(abs(e), abs(f))
            s = 1 if e > 0 else -1
            conj.append((i, s * t))
            e2, f2 = e - s * t, f + s * t
            sylls = ([(i, e2)] if e2 else []) + sylls[1:-1] + ([(i, f2)] if f2 else [])
        else:
            # rotate the leading syllable past the end and merge mod m
            conj.append((i, e))
            merged = (f + e) % m
            sylls = sylls[1:-1] + ([(i, merged)] if merged else [])
    conj_word = g.word(conj)
    core_word = g.word(sylls)
    return conj_word, core_word


def is_torsion(w: Word) -> bool:
    """True iff w has finite order (identity included)."""
    _, core = cyclic_reduce(w)
    if core.is_identity:
        return True
    if len(core.syllables) == 1:
        i, _ = core.syllables[0]
        return w.group.orders[i] != 0
    return False


def all_geodesics(x: Word, y: Word) -> Iterator[list[Word]]:
    """All geodesic vertex paths from x to y.

    In a free group the geodesic is unique.  In a free product a syllable
    with exponent exactly m/2 (m even, m > 2) can be spelled along either
    arc of its cycle, and each independent choice yields one geodesic.
    The first path spells the canonical normal form (``Word.letters``).
    """
    if x.group != y.group:
        raise GroupMismatch("endpoints live in different groups")
    step = x.group.letter_table
    w = x.inverse() * y
    per_syllable = w.syllable_spellings()
    for choice in itertools.product(*per_syllable):
        path = [x]
        cur = x
        for block in choice:
            for l in block:
                cur = cur * step[l]
                path.append(cur)
        yield path


def primitive_root(w: Word) -> tuple[Word, int]:
    """Write w = z^n with n maximal; returns (z, n).

    Requires w of infinite order.  Works by cyclic reduction followed by
    the least period of the core's spelling read as a cyclic word.  Letters
    are compared, not syllables: a free core such as bab or a^3 starts and
    ends on one generator, so its syllables are not periodic even where
    its letters are.  In a free product the core starts and ends on
    different generators, so a letter period is a syllable period.
    """
    if is_torsion(w):
        raise FiniteOrderElement(f"{w} has finite order; no primitive root")
    conj, core = cyclic_reduce(w)
    letters = core.letters()
    q = len(letters)
    d = next(d for d in range(1, q + 1) if q % d == 0 and letters[d:] + letters[:d] == letters)
    root = conj * w.group.from_letters(letters[:d]) * conj.inverse()
    n = q // d
    if root**n != w:
        raise CrossCheckFailed(f"primitive root {root} to the power {n} is not {w}")
    return root, n
