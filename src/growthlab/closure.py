"""Elementary closures, transversal conjugates, and geometric separation.

The elementary closure E(g) of an infinite-order g is the stabiliser of
the pair of ends of its axis.  In free groups and free products of finite
cyclics the edges of the Bass-Serre tree have trivial stabilisers (Serre,
Trees, 1980), so E(g) acts faithfully on the axis line: it is either <z>,
with z the primitive root of g, or the infinite dihedral group <z, t>,
with t an involution that reverses the axis (cf. Dahmani-Guirardel-Osin,
Mem. AMS 2017, Lemma 6.5).  Every u in E(g) therefore satisfies
u g u^-1 = g^{+-1}: the uniform power M is 1, and that single identity is
the membership test, and the presentation certifies the list of
``elementary_closure``, which a letter budget bounds.  The separation and
selector powers have no closed form; each is the least M <= POWER_CAP that
passes its check on the sample, trying M = 1, 2, ... in turn.  Each sample
is read once: the selector carries its search's projections, and H & E(g)
is filtered from the caller's listing of H.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .axes import Axis, ProjectionMap
from .balls import CLOSURE_LETTER_CAP, ball_elements
from .errors import (BudgetExceeded, CrossCheckFailed, FiniteOrderElement, NotFoundWithinBound,
                     PreconditionFailed)
from .groups import Word, cyclic_reduce, is_torsion, primitive_root

POWER_CAP = 64  # the least-power scans try M = 1 .. POWER_CAP
SEPARATION_ORBIT_RADIUS = 5  # the orbit sample Y of geometric_separation_power
SEPARATION_J_MAX = 3  # its coset sample uses the powers g^{Mj}, 0 < |j| <= SEPARATION_J_MAX


def _criterion(h: Word):
    """The closure criterion as a function of u: the sign s of
    u h u^-1 = h^s, or 0 when u h u^-1 is neither h nor h^-1."""
    h_inv = h.inverse()

    def sign(u: Word) -> int:
        c = h.conjugated_by(u)
        if c == h:
            return 1
        return -1 if c == h_inv else 0
    return sign


@dataclass(frozen=True)
class ClosureDescriptor:
    """E(g) = <E_generators>, with its elements in a ball."""

    g: Word
    M: int
    E_generators: tuple[Word, ...]
    E_plus_index: int
    index_over_cyclic: int
    elements: tuple[Word, ...] = field(repr=False, default=())

    def verify(self) -> bool:
        """Re-check u g^M u^-1 in {g^M, g^-M} for every listed element."""
        return all(map(_criterion(self.g**self.M), self.elements))


def _axis_reflection(root: Word) -> Word | None:
    """An involution t with t root t = root^-1, or None when there is none.

    A reflection of the axis fixes a vertex v<x_i> of the Bass-Serre tree
    that lies on the axis, so t = v x_i^(m_i/2) v^-1 for a vertex v of the
    Cayley-graph axis and a factor of even order m_i.  The reflections of
    <z, t> have their centres every half period, so the vertices of one
    period of the core meet one of them.  F_k has no involution.
    """
    group = root.group
    halves = [group.word([(i, m // 2)]) for i, m in enumerate(group.orders)
              if m and m % 2 == 0]
    if not halves:
        return None
    conj, core = cyclic_reduce(root)
    root_inv = root.inverse()
    step = group.letter_table
    v = conj
    for letter in core.letters():
        for half in halves:
            t = half.conjugated_by(v)
            if root.conjugated_by(t) == root_inv:
                return t
        v = v * step[letter]
    return None


def elementary_closure(g: Word, search_radius: int) -> ClosureDescriptor:
    """E(g) read off the axis of g, and its elements in B(o, search_radius).

    E(g) is <z> or <z, t> (module docstring), with z the primitive root,
    g = z^n, and t the reflection found by ``_axis_reflection``.  So M = 1,
    [E(g) : E+(g)] is 1 or 2, and [E(g) : <g>] is n or 2n.  The z^i and z^i t
    in the ball are listed, |i| <= bound, as z = c w c^-1 with w cyclically
    reduced gives |z^i| >= |i||w| - 2|c| and |z^i t| >= |z^i| - |t|.  Word
    arithmetic certifies t t = 1, t z t = z^-1, z^{+-bound} (and z^{+-bound} t)
    outside the ball, closure under inverses, and ``verify``.  Closure under
    in-ball products follows, as z^i t^a z^j t^b = z^{i+(-1)^a j} t^{a+b}.
    Listing more than ``balls.CLOSURE_LETTER_CAP`` letters, sum (|i||w| + 2|c|
    (+ |t|)) in closed form, is refused before it starts (BudgetExceeded).
    """
    if is_torsion(g):
        raise FiniteOrderElement(f"{g} has finite order; closure undefined here")
    root, n = primitive_root(g)
    t = _axis_reflection(root)
    gens = (root,) if t is None else (root, t)
    conj, core = cyclic_reduce(root)
    tl = t.length if t else 0
    bound = (search_radius + 2 * conj.length + tl) // core.length + 1
    letters = (2 * bound + 1) * (2 * len(gens) * conj.length + tl) \
        + len(gens) * bound * (bound + 1) * core.length
    if letters > CLOSURE_LETTER_CAP:
        raise BudgetExceeded(f"{letters} letters exceed cap {CLOSURE_LETTER_CAP}")
    if t is not None and not ((t * t).is_identity and (t * root) * t == root.inverse()):
        raise CrossCheckFailed(f"{t} is not an involution inverting {root}")
    candidates = [g.group.identity()]
    for z in (root, root.inverse()):
        p = candidates[0]
        for _ in range(bound):
            p = p * z
            candidates.append(p)
    if t is not None:
        candidates += [p * t for p in candidates]
    # z^bound, z^-bound and, with t, z^bound t and z^-bound t end the runs
    if any(candidates[i].length <= search_radius for i in {bound, 2 * bound, -bound - 1, -1}):
        raise CrossCheckFailed(f"exponent bound {bound} stops inside B(o, {search_radius})")
    found = [u for u in candidates if u.length <= search_radius]
    found_set = set(found)
    for u in found:
        if u.inverse() not in found_set:
            raise CrossCheckFailed(f"closure not closed under inverses: {u}")
    return ClosureDescriptor(g=g, M=1, E_generators=gens, E_plus_index=len(gens),
                             index_over_cyclic=len(gens) * n, elements=tuple(found))


@dataclass(frozen=True)
class TransversalResult:
    k: Word
    diameter: int
    theta: int


def find_transversal_conjugate(subgroup, g0: Word, search_radius: int,
                               theta: int, orbit_radius: int = 6) -> TransversalResult:
    """Least-length k with diam_{k A}(H-orbit sample) <= theta.

    For a finite-index subgroup no such k exists and the bounded search
    reports NotFoundWithinBound with the best diameter achieved, which is
    the expected outcome (the statement's hypothesis fails).
    """
    group = g0.group
    base_pm = ProjectionMap(Axis(g0))
    y_sample = [h for h in subgroup.elements_in_ball(orbit_radius)]
    best: tuple[int, Word] | None = None
    for k in sorted(ball_elements(group, search_radius),
                    key=lambda w: (w.length, str(w))):
        pm_k = base_pm.translated(k)
        diam = pm_k.projected_diameter(y_sample)
        if best is None or diam < best[0]:
            best = (diam, k)
        if diam <= theta:
            return TransversalResult(k=k, diameter=diam, theta=theta)
    raise NotFoundWithinBound(
        f"no k in B(o,{search_radius}) with projected diameter <= {theta}",
        best={"k": str(best[1]), "diameter": best[0]})


def subgroup_closure_intersection(elements, g: Word) -> list[Word]:
    """H & E(g) among ``elements``, a listing of H & B(o, R): the u there
    with u g u^-1 = g^{+-1}, exact by the theorem in the module docstring."""
    return list(filter(_criterion(g), elements))


def _coset_words(g: Word, M: int, f_elements: list[Word], j_max: int) -> list[Word]:
    """Sample of <g^M, F> - F, each word once in first-seen order: the
    powers p = g^{Mj} with 0 < |j| <= j_max, then the products p f q with
    f in F nontrivial and q a power."""
    gM = g**M
    powers = [gM**j for j in range(-j_max, j_max + 1) if j != 0]
    words = dict.fromkeys(powers)
    for p in powers:
        for f in f_elements:
            if not f.is_identity:
                for q in powers:
                    words.setdefault(p * f * q)
    f_set = set(f_elements)
    return [w for w in words if w not in f_set and not w.is_identity]


def geometric_separation_power(subgroup, g: Word, epsilon: int, theta: int) -> dict:
    """Least M <= POWER_CAP separating Y from its <g^M, H&E>-translates on
    the axis of g, trying M = 1, 2, ... in turn.

    Precondition: diam_A(Y-sample) <= epsilon.  Every sampled
    u in <g^M, H&E> - H&E must satisfy d_A(Y, uY) > theta.
    """
    pm = ProjectionMap(Axis(g))
    y_sample = list(subgroup.elements_in_ball(SEPARATION_ORBIT_RADIUS))
    diam = pm.projected_diameter(y_sample)
    if diam > epsilon:
        raise PreconditionFailed(f"diam_A(Y) = {diam} > epsilon = {epsilon}")
    f_elements = subgroup_closure_intersection(y_sample, g)
    for M in range(1, POWER_CAP + 1):
        words = _coset_words(g, M, f_elements, SEPARATION_J_MAX)
        if all(pm.projected_set_distance(y_sample, [u * y for y in y_sample]) > theta
               for u in words):
            return {"M": M, "epsilon": epsilon, "theta": theta, "samples": len(words),
                    "h_cap_e": [str(f) for f in f_elements]}
    raise NotFoundWithinBound(f"no separating power M <= {POWER_CAP}")


class SeparationSelector:
    """The coarse quotient's selector, at the basepoint 1: f(u) = 1 when
    d_A(u^-1, 1) > threshold, read on ``pm`` (the search's map), else g^M."""

    def __init__(self, pm: ProjectionMap, M: int, threshold: int):
        self.pm, self.M, self.threshold = pm, M, threshold
        self.g, self.power = pm.axis.element, pm.axis.element**M
        self._origin = pm.position(self.g.group.identity())

    def moves(self, u_inv: Word) -> bool:
        """Whether f(u) = g^M, read off pi_A(u^-1)."""
        return abs(self.pm.position(u_inv) - self._origin) <= self.threshold


def find_selector_power(g: Word, epsilon: int, theta: int,
                        sample_radius: int) -> SeparationSelector:
    """The selector of the least M <= POWER_CAP that certifies on B(o, r).

    Certification: every u in B(o, r) satisfies
    d_A(u^-1, f(u)) > theta + epsilon.  Where f(u) = 1 the rule itself says
    so; where f(u) = g^M, pi(u^-1) lies within theta + epsilon of pi(1).
    So M certifies exactly when no such position also lies within
    theta + epsilon of pi(g^M).  The positions are read in one pass over
    the ball, each with the first u that reaches it, and M = 1, 2, ... is
    tried against them; the selector keeps the map.  Past POWER_CAP it
    raises NotFoundWithinBound with the first u of the ball that fails at
    POWER_CAP and its distance.
    """
    pm = ProjectionMap(Axis(g))
    bound = theta + epsilon
    origin = pm.position(g.group.identity())
    near: dict[int, Word] = {}
    for u in ball_elements(g.group, sample_radius):
        t = pm.position(u.inverse())
        if abs(t - origin) <= bound:
            near.setdefault(t, u)
    for M in range(1, POWER_CAP + 1):
        target = pm.position(g**M)
        failing = [(str(u), abs(t - target)) for t, u in near.items()
                   if abs(t - target) <= bound]
        if not failing:
            return SeparationSelector(pm, M, bound)
    raise NotFoundWithinBound(f"no selector power <= {POWER_CAP}", best=failing[0])
