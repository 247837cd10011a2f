"""Elementary closures, transversal conjugates, and geometric separation.

The elementary closure E(g) of an infinite-order element consists of the
u with u g^m u^-1 = g^{+-m} for some m != 0 (in free groups and free
products of finite cyclics, conjugation preserves translation length, so
the exponents can only match up to sign).  All existential constants
(M, thresholds, powers) are found by bounded searches with certified
re-verification on the scanned sample, since the theory provides no
closed forms.  The bounds of those searches are the named constants below.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .axes import Axis, ProjectionMap
from .balls import ball_elements
from .errors import (CrossCheckFailed, FiniteOrderElement, NotFoundWithinBound,
                     PreconditionFailed)
from .groups import Word, is_torsion, primitive_root

M_SCAN = 4  # a closure element satisfies the criterion for some m <= M_SCAN
UNIFORM_M_CAP = 24  # find_M tries M = 1 .. UNIFORM_M_CAP
POWER_CAP = 64  # the doubling searches try M <= POWER_CAP
ELEMENT_CAP = 500_000  # elements the closure scan may enumerate
SEPARATION_ORBIT_RADIUS = 5  # the orbit sample Y of geometric_separation_power
SEPARATION_J_MAX = 3  # its coset sample uses the powers g^{Mj}, 0 < |j| <= SEPARATION_J_MAX


def is_power_of(w: Word, g: Word) -> bool:
    """True iff w = g^k for some integer k (k = 0 allowed)."""
    if w.is_identity:
        return True
    if is_torsion(w):
        return False
    zg, ng = primitive_root(g)
    zw, nw = primitive_root(w)
    if zw == zg:
        return nw % ng == 0
    if zw == zg.inverse():
        return nw % ng == 0
    return False


def _criterion(g: Word, m: int):
    """The closure criterion for one m, as a function of u: the sign s of
    u g^m u^-1 = g^{s m}, or 0 when u g^m u^-1 is neither g^m nor g^-m."""
    gm = g**m
    gminv = gm.inverse()

    def sign(u: Word) -> int:
        c = gm.conjugated_by(u)
        if c == gm:
            return 1
        return -1 if c == gminv else 0
    return sign


def _closure_members(g: Word, candidates) -> list[Word]:
    """The candidates u with u g^m u^-1 = g^{+-m} for some m <= M_SCAN."""
    signs = [_criterion(g, m) for m in range(1, M_SCAN + 1)]
    return [u for u in candidates if any(sign(u) for sign in signs)]


@dataclass(frozen=True)
class ClosureDescriptor:
    """E(g) as discovered by a ball scan, with re-verified certificates."""

    g: Word
    M: int
    E_generators: tuple[Word, ...]
    E_plus_index: int
    index_over_cyclic: int
    elements: tuple[Word, ...] = field(repr=False, default=())
    search_radius: int = 0

    def verify(self) -> bool:
        """Re-check u g^M u^-1 in {g^M, g^-M} for every scanned element."""
        return all(map(_criterion(self.g, self.M), self.elements))


def find_M(g: Word, candidates) -> int:
    """Least M >= 1 with u g^M u^-1 = g^{+-M} for every candidate u."""
    cands = list(candidates)
    for m in range(1, UNIFORM_M_CAP + 1):
        if all(map(_criterion(g, m), cands)):
            return m
    raise NotFoundWithinBound(f"no uniform M <= {UNIFORM_M_CAP} for the candidate set")


def elementary_closure(g: Word, search_radius: int) -> ClosureDescriptor:
    """Scan B(o, search_radius) for closure elements of g.

    Tests the algebraic criterion u g^m u^-1 = g^{+-m} for m <= M_SCAN
    directly instead of estimating Hausdorff distances; exact word
    arithmetic beats coarse geometry at desk scale.
    """
    if is_torsion(g):
        raise FiniteOrderElement(f"{g} has finite order; closure undefined here")
    found = _closure_members(g, ball_elements(g.group, search_radius,
                                              max_elements=ELEMENT_CAP))
    M = find_M(g, found)

    # group the scan by <g>-coset; shortest representative per class
    reps: list[Word] = []
    for u in sorted(found, key=lambda w: (w.length, str(w))):
        if not any(is_power_of(u * r.inverse(), g) for r in reps):
            reps.append(u)
    index_over_cyclic = len(reps)
    sign = _criterion(g, M)
    has_inverter = any(sign(u) == -1 for u in found)
    e_plus_index = 2 if has_inverter else 1

    root, _ = primitive_root(g)
    gens: list[Word] = [root]
    for r in reps:
        if not r.is_identity and not is_power_of(r, root):
            gens.append(r)

    # closure certificate: products and inverses of scanned elements stay in
    # the scan whenever they fit in the ball
    found_set = set(found)
    for u in found:
        if u.inverse() not in found_set:
            raise CrossCheckFailed(f"scan not closed under inverses: {u}")
    for u, v in itertools.islice(itertools.combinations(found, 2), 20_000):
        uv = u * v
        if uv.length <= search_radius and uv not in found_set:
            raise CrossCheckFailed(f"scan not closed under products: {u} * {v}")

    return ClosureDescriptor(g=g, M=M, E_generators=tuple(gens),
                             E_plus_index=e_plus_index,
                             index_over_cyclic=index_over_cyclic,
                             elements=tuple(found), search_radius=search_radius)


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


def subgroup_closure_intersection(subgroup, g: Word, radius: int) -> list[Word]:
    """H & E(g) by scanning the subgroup ball with the algebraic criterion."""
    return _closure_members(g, subgroup.elements_in_ball(radius))


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


def _doubling_search(attempt, failure: str):
    """(M, attempt(M)) for the least M <= POWER_CAP whose attempt does not
    raise NotFoundWithinBound: M doubles from 1 until an attempt passes,
    then the least passing M in (M/2, M] is taken.  Past POWER_CAP it raises
    NotFoundWithinBound(``failure``) with the last failure's ``best``."""
    m = 1
    while True:
        try:
            result = attempt(m)
            break
        except NotFoundWithinBound as exc:
            best = exc.best
        m *= 2
        if m > POWER_CAP:
            raise NotFoundWithinBound(failure, best=best)
    for candidate in range(m // 2 + 1, m):
        try:
            return candidate, attempt(candidate)
        except NotFoundWithinBound:
            continue
    return m, result


def geometric_separation_power(subgroup, g: Word, epsilon: int, theta: int) -> dict:
    """Least M (doubling search, then refine) separating Y from its
    <g^M, H&E>-translates on the axis of g.

    Precondition: diam_A(Y-sample) <= epsilon.  Every sampled
    u in <g^M, H&E> - H&E must satisfy d_A(Y, uY) > theta.
    """
    pm = ProjectionMap(Axis(g))
    y_sample = [h for h in subgroup.elements_in_ball(SEPARATION_ORBIT_RADIUS)]
    diam = pm.projected_diameter(y_sample)
    if diam > epsilon:
        raise PreconditionFailed(f"diam_A(Y) = {diam} > epsilon = {epsilon}")
    f_elements = subgroup_closure_intersection(subgroup, g, SEPARATION_ORBIT_RADIUS)

    def attempt(m: int) -> int:
        words = _coset_words(g, m, f_elements, SEPARATION_J_MAX)
        for u in words:
            translated = [u * y for y in y_sample]
            if pm.projected_set_distance(y_sample, translated) <= theta:
                raise NotFoundWithinBound(f"M = {m} does not separate")
        return len(words)

    M, samples = _doubling_search(attempt, f"no separating power M <= {POWER_CAP}")
    return {"M": M, "epsilon": epsilon, "theta": theta, "samples": samples,
            "h_cap_e": [str(f) for f in f_elements]}


@dataclass(frozen=True)
class SeparationSelector:
    """The two-valued selector u -> {1, g^M} built for one basepoint."""

    g: Word
    M: int
    threshold: int
    basepoint: Word
    rule: dict = field(repr=False, default_factory=dict)

    def choose(self, pm: ProjectionMap, u: Word) -> Word:
        cached = self.rule.get(u)
        if cached is not None:
            return cached
        y = self.basepoint
        if pm.projected_distance(u.inverse() * y, y) > self.threshold:
            value = self.g.group.identity()
        else:
            value = self.g**self.M
        self.rule[u] = value
        return value


def separation_selector(g: Word, M: int, epsilon: int, theta: int, y: Word,
                        sample_radius: int) -> SeparationSelector:
    """Build and certify the selector of the coarse-quotient construction.

    Rule: f(u) = 1 when d_A(u^-1 y, y) > theta + epsilon, else g^M.
    Certification: every u in B(o, r) must satisfy
    d_A(u^-1 y, f(u) y) > theta + epsilon; when some u fails, M was too
    small and NotFoundWithinBound is raised.
    """
    pm = ProjectionMap(Axis(g))
    bound = theta + epsilon
    selector = SeparationSelector(g=g, M=M, threshold=bound, basepoint=y)
    worst = None
    for u in ball_elements(g.group, sample_radius):
        f_u = selector.choose(pm, u)
        achieved = pm.projected_distance(u.inverse() * y, f_u * y)
        if achieved <= bound:
            worst = (str(u), achieved)
            break
    if worst is not None:
        raise NotFoundWithinBound(
            f"selector bound {bound} violated at u = {worst[0]} (achieved {worst[1]}); "
            "increase M", best=worst)
    return selector


def find_selector_power(g: Word, epsilon: int, theta: int, y: Word,
                        sample_radius: int) -> tuple[int, SeparationSelector]:
    """Doubling search for the least power M whose selector certifies.

    The certification requirement grows like 2(theta + epsilon) over the
    translation length; no closed form is used, the search simply doubles
    M until the exhaustive check passes, then refines downward.
    """
    return _doubling_search(
        lambda m: separation_selector(g, m, epsilon, theta, y, sample_radius),
        f"no selector power <= {POWER_CAP}")
