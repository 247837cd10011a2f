"""Elementary closures, transversal conjugates, and geometric separation.

The elementary closure E(g) of an infinite-order element consists of the
u with u g^m u^-1 = g^{+-m} for some m != 0 (in free groups and free
products of finite cyclics, conjugation preserves translation length, so
the exponents can only match up to sign).  All existential constants
(M, thresholds, powers) are found by bounded searches with certified
re-verification on the scanned sample, since the theory provides no
closed forms.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .axes import Axis, ProjectionMap
from .balls import ball_elements
from .errors import (CrossCheckFailed, FiniteOrderElement, NotFoundWithinBound,
                     PreconditionFailed)
from .groups import Word, is_torsion, primitive_root


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
        gm = self.g**self.M
        gminv = gm.inverse()
        for u in self.elements:
            c = gm.conjugated_by(u)
            if c != gm and c != gminv:
                return False
        return True


def find_M(g: Word, candidates, m_cap: int = 24) -> int:
    """Least M >= 1 with u g^M u^-1 = g^{+-M} for every candidate u."""
    powers = {}
    for m in range(1, m_cap + 1):
        gm = g**m
        powers[m] = (gm, gm.inverse())
    cands = list(candidates)
    for m in range(1, m_cap + 1):
        gm, gminv = powers[m]
        if all(gm.conjugated_by(u) in (gm, gminv) for u in cands):
            return m
    raise NotFoundWithinBound(f"no uniform M <= {m_cap} for the candidate set")


def elementary_closure(g: Word, search_radius: int, m_scan: int = 4,
                       element_cap: int = 500_000) -> ClosureDescriptor:
    """Scan B(o, search_radius) for closure elements of g.

    Tests the algebraic criterion u g^m u^-1 = g^{+-m} for m <= m_scan
    directly instead of estimating Hausdorff distances; exact word
    arithmetic beats coarse geometry at desk scale.
    """
    if is_torsion(g):
        raise FiniteOrderElement(f"{g} has finite order; closure undefined here")
    group = g.group
    powers = [(g**m, (g**m).inverse()) for m in range(1, m_scan + 1)]
    found: list[Word] = []
    for u in ball_elements(group, search_radius, max_elements=element_cap):
        for gm, gminv in powers:
            c = gm.conjugated_by(u)
            if c == gm or c == gminv:
                found.append(u)
                break
    M = find_M(g, found)
    gM = g**M
    gMinv = gM.inverse()

    # group the scan by <g>-coset; shortest representative per class
    reps: list[Word] = []
    for u in sorted(found, key=lambda w: (w.length, str(w))):
        if not any(is_power_of(u * r.inverse(), g) for r in reps):
            reps.append(u)
    index_over_cyclic = len(reps)
    has_inverter = any(gM.conjugated_by(u) == gMinv for u in found)
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


def subgroup_closure_intersection(subgroup, g: Word, radius: int,
                                  m_scan: int = 4) -> list[Word]:
    """H & E(g) by scanning the subgroup ball with the algebraic criterion."""
    powers = [(g**m, (g**m).inverse()) for m in range(1, m_scan + 1)]
    out = []
    for h in subgroup.elements_in_ball(radius):
        for gm, gminv in powers:
            c = gm.conjugated_by(h)
            if c == gm or c == gminv:
                out.append(h)
                break
    return out


def _coset_words(g: Word, M: int, f_elements: list[Word], j_max: int,
                 max_factors: int) -> list[Word]:
    """Sample of <g^M, F> - F: alternating products of g^{Mj} and F-elements."""
    group = g.group
    gM = g**M
    powers = [gM**j for j in range(-j_max, j_max + 1) if j != 0]
    f_nontrivial = [f for f in f_elements if not f.is_identity]
    samples: list[Word] = list(powers)
    frontier = list(powers)
    for _ in range(max_factors - 1):
        new = []
        for w in frontier:
            for f in f_nontrivial:
                for p in powers:
                    cand = w * f * p
                    if cand not in samples:
                        new.append(cand)
        samples.extend(new)
        frontier = new
        if not f_nontrivial:
            break
    f_set = set(f_elements)
    return [w for w in samples if w not in f_set and not w.is_identity]


def geometric_separation_power(subgroup, g: Word, epsilon: int, theta: int,
                               orbit_radius: int = 5, j_max: int = 3,
                               max_factors: int = 2, m_cap: int = 64) -> dict:
    """Least M (doubling search, then refine) separating Y from its
    <g^M, H&E>-translates on the axis of g.

    Precondition: diam_A(Y-sample) <= epsilon.  Every sampled
    u in <g^M, H&E> - H&E must satisfy d_A(Y, uY) > theta.
    """
    pm = ProjectionMap(Axis(g))
    y_sample = [h for h in subgroup.elements_in_ball(orbit_radius)]
    diam = pm.projected_diameter(y_sample)
    if diam > epsilon:
        raise PreconditionFailed(f"diam_A(Y) = {diam} > epsilon = {epsilon}")
    f_elements = subgroup_closure_intersection(subgroup, g, orbit_radius)

    def passes(m: int) -> bool:
        for u in _coset_words(g, m, f_elements, j_max, max_factors):
            translated = [u * y for y in y_sample]
            if pm.projected_set_distance(y_sample, translated) <= theta:
                return False
        return True

    m = 1
    while m <= m_cap and not passes(m):
        m *= 2
    if m > m_cap:
        raise NotFoundWithinBound(f"no separating power M <= {m_cap}")
    lo = m // 2 + 1 if m > 1 else 1
    for candidate in range(lo, m + 1):
        if passes(candidate):
            return {"M": candidate, "epsilon": epsilon, "theta": theta,
                    "samples": len(_coset_words(g, candidate, f_elements, j_max, max_factors)),
                    "h_cap_e": [str(f) for f in f_elements]}
    raise NotFoundWithinBound("doubling search inconsistency")


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
                        sample_radius: int, theta0: int = 0) -> SeparationSelector:
    """Build and certify the selector of the coarse-quotient construction.

    Rule: f(u) = 1 when d_A(u^-1 y, y) > theta + epsilon + 4 theta0, else
    g^M.  Certification: every u in B(o, r) must satisfy
    d_A(u^-1 y, f(u) y) > theta + epsilon + 4 theta0; when some u fails,
    M was too small and NotFoundWithinBound is raised.
    """
    pm = ProjectionMap(Axis(g))
    bound = theta + epsilon + 4 * theta0
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
                        sample_radius: int, theta0: int = 0,
                        m_cap: int = 64) -> tuple[int, SeparationSelector]:
    """Doubling search for the least power M whose selector certifies.

    The certification requirement grows like 2(theta + epsilon + 4 theta0)
    over the translation length; no closed form is used, the search simply
    doubles M until the exhaustive check passes, then refines downward.
    """
    m = 1
    last_error = None
    while m <= m_cap:
        try:
            separation_selector(g, m, epsilon, theta, y, sample_radius, theta0)
            break
        except NotFoundWithinBound as exc:
            last_error = exc
            m *= 2
    if m > m_cap:
        raise NotFoundWithinBound(f"no selector power <= {m_cap}",
                                  best=getattr(last_error, "best", None))
    lo = m // 2 + 1 if m > 1 else 1
    for candidate in range(lo, m + 1):
        try:
            sel = separation_selector(g, candidate, epsilon, theta, y,
                                      sample_radius, theta0)
            return candidate, sel
        except NotFoundWithinBound:
            continue
    raise NotFoundWithinBound("doubling search inconsistency")
