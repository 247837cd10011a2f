"""End-to-end pipelines: growth-gap, quotient-growth, amalgam injectivity,
free-subgroup witnesses, and the coarse-quotient counting argument.

Each pipeline produces a machine-readable report that splits its
hypotheses in two.  ``hypotheses`` holds the checks that some input can
make false, each computed once and exactly; ``assumed`` names what the
theory guarantees for every input the pipeline accepts, with the reason.
A report PASSes only when every checked hypothesis holds and the
conclusion clears the configured margin; a failed hypothesis yields
INAPPLICABLE (and optionally a named HypothesisFailed error), never PASS.

The growth-gap and quotient-growth pipelines fold a Stallings core and
decide from it alone, with no sampled audit and no fitted rate.  The
ambient group is the free group F_k, so omega_G = log(2k - 1); the
subgroup is quasi-convex with the exact constant eta read off the core
(``CoreGraph.depths``); omega_H is the log Perron root of the core; a
nontrivial subgroup is divergent; and the coset space grows at exactly
log(2k - 1) when the index is infinite.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, asdict

from .axes import Axis, ProjectionMap
from .balls import ball_elements, sphere_counts
from .closure import (SeparationSelector, subgroup_closure_intersection,
                      _coset_words)
from .errors import (CounterexampleFound, CQViolation, HypothesisFailed,
                     PreconditionFailed)
from .groups import MarkedGroup, Word, distance, is_torsion
from .orbits import FreeSubgroup
from .schreier import coset_key, coset_sphere_sizes, schreier_growth
from .stallings import relative_growth

QUASI_CONVEX_REASON = ("finitely generated subgroups of F_k are quasi-convex; "
                       "eta is the largest core depth")
DIVERGENCE_REASON = ("a nontrivial finitely generated subgroup of F_k has purely "
                     "exponential growth, so it is of divergence type (Coornaert 1993); "
                     "equally, its growth series is rational with nonnegative "
                     "coefficients, so by Pringsheim's theorem it has a pole at 1/rho")


@dataclass(frozen=True)
class ExperimentConfig:
    group: str
    subgroup: tuple[str, ...] = ()
    g0: str = ""
    r_ball: int = 12
    r_schreier: int = 14
    r_audit: int = 4
    gap_margin: float = 0.01
    quotient_tolerance: float = 0.05

    def __post_init__(self):
        if min(self.r_ball, self.r_schreier) < 3 or self.r_audit < 3:
            raise PreconditionFailed("radii must be >= 3")
        if self.gap_margin <= 0 or self.quotient_tolerance <= 0:
            raise PreconditionFailed("margins must be > 0")

    def marked_group(self) -> MarkedGroup:
        return MarkedGroup.from_descriptor(self.group)

    def free_subgroup(self) -> FreeSubgroup:
        g = self.marked_group()
        return FreeSubgroup.from_words(g, [g.parse(w) for w in self.subgroup])

    def g0_word(self) -> Word:
        group = self.marked_group()
        return group.parse(self.g0) if self.g0 else group.generators()[-1]


@dataclass
class TheoremReport:
    theorem: str
    verdict: str  # PASS | FAIL | INAPPLICABLE
    hypotheses: dict  # checked: name -> bool, each can fail on some input
    assumed: dict = field(default_factory=dict)  # guaranteed: name -> reason
    omega_g: float | None = None
    omega_h: float | None = None
    omega_quotient: float | None = None
    gap: float | None = None
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def _subgroup_facts(cfg: ExperimentConfig) -> tuple[FreeSubgroup, dict, dict, float]:
    """The facts both growth pipelines share: the folded subgroup, its index,
    the exact eta, and omega_G = log(2k - 1) of the free ambient group."""
    sub = cfg.free_subgroup()
    idx = sub.index()
    hypotheses = {"infinite_index": idx == math.inf}
    details = {"index": "infinite" if idx == math.inf else int(idx),
               "eta": max(sub.core.depths.values())}
    return sub, hypotheses, details, math.log(2 * sub.group.rank - 1)


def _hypothesis_failed(report: TheoremReport) -> HypothesisFailed:
    exc = HypothesisFailed(", ".join(k for k, v in report.hypotheses.items() if not v))
    exc.report = report
    return exc


def verify_growth_gap(cfg: ExperimentConfig, raise_on_hypothesis: bool = True) -> TheoremReport:
    """Growth-gap pipeline: an infinite-index divergent quasi-convex subgroup
    H of a group with a constricting element has omega_H < omega_G.

    Checked (each fails on some input): ``infinite_index`` (the core misses
    a half-edge; fails for <a, b>), ``divergent`` (the core has an edge;
    fails for the trivial subgroup, whose Poincare series is the single
    term 1) and ``constricting_element`` (g0 has infinite order, the
    precondition of ``Axis``; fails for g0 = 1).  Assumed: ``quasi_convex``,
    with the exact eta in ``details``, that an infinite-order element of
    F_k has a 0-constricting axis in the Cayley tree, and
    ``divergence_type``: every nontrivial subgroup diverges at omega_H.
    omega_H is the log Perron root of the core and omega_G = log(2k - 1),
    both exact.
    """
    sub, hypotheses, details, omega_g = _subgroup_facts(cfg)
    assumed = {"quasi_convex": QUASI_CONVEX_REASON,
               "axis_constriction": "the axis of an infinite-order element of F_k "
                                    "is 0-constricting in the Cayley tree",
               "divergence_type": DIVERGENCE_REASON}

    rel = relative_growth(sub.core, cfg.r_ball)
    omega_h = rel.rate
    details["omega_h_spectral"] = rel.spectral.rate
    details["h_counts"] = list(rel.counts.sphere_sizes)
    hypotheses["divergent"] = bool(sub.core.edges)

    g0 = cfg.g0_word()
    hypotheses["constricting_element"] = not is_torsion(g0)
    details["g0"] = str(g0)

    all_hyp = all(hypotheses.values())
    conclusion = omega_h + cfg.gap_margin < omega_g
    verdict = "PASS" if (all_hyp and conclusion) else ("INAPPLICABLE" if not all_hyp else "FAIL")
    report = TheoremReport(theorem="growth_gap", verdict=verdict, hypotheses=hypotheses,
                           assumed=assumed, omega_g=omega_g, omega_h=omega_h,
                           gap=omega_g - omega_h, details=details)
    if raise_on_hypothesis and not all_hyp:
        raise _hypothesis_failed(report)
    return report


def verify_quotient_growth(cfg: ExperimentConfig, raise_on_hypothesis: bool = True,
                           max_states: int | None = None) -> TheoremReport:
    """Quotient-growth pipeline: coset counts of an infinite-index
    quasi-convex subgroup grow at the full rate omega_G.

    Checked: ``infinite_index``.  Assumed: ``quasi_convex`` (exact eta in
    ``details``).  omega_{G/H} is exact: log(2k - 1) at infinite index and
    0 at finite index, from the coset sphere identity that
    ``schreier_growth`` checks past eta.  ``max_states`` caps the cosets
    within radius r_schreier (BudgetExceeded)."""
    sub, hypotheses, details, omega_g = _subgroup_facts(cfg)
    assumed = {"quasi_convex": QUASI_CONVEX_REASON}

    sg = schreier_growth(sub.core, cfg.r_schreier, max_states=max_states)
    omega_quotient = sg.rate.rate
    details["coset_counts"] = list(sg.counts.cumulative)

    if not hypotheses["infinite_index"]:
        # finite index: quotient growth is 0 <= omega_G; theorem inapplicable
        details["note"] = "finite index: omega_{G/H} = 0 <= omega_G"
        report = TheoremReport(theorem="quotient_growth", verdict="INAPPLICABLE",
                               hypotheses=hypotheses, assumed=assumed, omega_g=omega_g,
                               omega_quotient=omega_quotient, details=details)
        if raise_on_hypothesis:
            raise _hypothesis_failed(report)
        return report

    gap = abs(omega_quotient - omega_g)
    return TheoremReport(theorem="quotient_growth",
                         verdict="PASS" if gap <= cfg.quotient_tolerance else "FAIL",
                         hypotheses=hypotheses, assumed=assumed, omega_g=omega_g,
                         omega_quotient=omega_quotient, gap=gap, details=details)


@dataclass(frozen=True)
class AmalgamReport:
    verdict: str
    words_checked: int
    max_syllables: int
    letter_cap: int
    M: int
    pool_h: int
    pool_k: int
    h_cap_e: tuple[str, ...]


def amalgam_injectivity(subgroup, g: Word, M: int, n_syllables: int,
                        letter_cap: int = 4, j_max: int = 4) -> AmalgamReport:
    """Exhaustively refute injectivity of H * <g^M, H&E> -> G on a sample.

    Enumerates every alternating word (both starting types) whose letters
    are ball-bounded elements of H - (H&E) and <g^M, H&E> - (H&E), maps it
    through word arithmetic, and requires a nontrivial image.  With H&E
    trivial, distinct alternating words are distinct amalgam elements, so
    image collisions are counterexamples too.

    The search is depth-first, H-letters first, each pool in its order,
    and spends one product per word.  Images are kept as normal-form
    tuples (``Word.syllables``), which name an element of the group
    exactly; the letters of the current word sit on one trail stack.
    Only a collision needs the earlier word, and ``_first_with_image``
    rebuilds it by replaying the same order, so nothing but the image is
    stored per word.
    """
    group = g.group
    f_elements = subgroup_closure_intersection(subgroup, g, letter_cap + 2)
    f_set = set(f_elements)
    f_trivial = all(f.is_identity for f in f_elements)
    pool_h = [h for h in subgroup.elements_in_ball(letter_cap)
              if not h.is_identity and h not in f_set]
    pool_k = [w for w in _coset_words(g, M, f_elements, j_max=j_max, max_factors=2)
              if w.length <= letter_cap]
    if not pool_h or not pool_k:
        raise PreconditionFailed("empty letter pool; enlarge letter_cap or shrink M")

    pools = (pool_h, pool_k)
    last = n_syllables - 1
    words_checked = 0
    images: set[tuple] = set()
    trail: list[Word] = []

    def spelled(letter: Word) -> list[str]:
        return [str(x) for x in trail] + [str(letter)]

    def dfs(prefix: Word, kind: int, depth: int):
        nonlocal words_checked
        for letter in pools[kind]:
            w = prefix * letter
            words_checked += 1
            image = w.syllables
            if not image:
                raise CounterexampleFound("alternating word maps to the identity",
                                          witness=spelled(letter))
            if f_trivial:  # one hash per word: add, then see if the set grew
                size = len(images)
                images.add(image)
                if len(images) == size:
                    first = _first_with_image(group, pools, n_syllables, image)
                    raise CounterexampleFound(
                        "two distinct alternating words share an image",
                        witness=([str(x) for x in first], spelled(letter)))
            if depth < last:
                trail.append(letter)
                dfs(w, 1 - kind, depth + 1)
                trail.pop()

    if n_syllables > 0:
        dfs(group.identity(), 0, 0)
        dfs(group.identity(), 1, 0)
    return AmalgamReport(verdict="PASS", words_checked=words_checked,
                         max_syllables=n_syllables, letter_cap=letter_cap, M=M,
                         pool_h=len(pool_h), pool_k=len(pool_k),
                         h_cap_e=tuple(str(f) for f in f_elements))


def _first_with_image(group: MarkedGroup, pools: tuple[list[Word], list[Word]],
                      n_syllables: int, image: tuple) -> list[Word]:
    """The letters of the first alternating word, in the search order of
    ``amalgam_injectivity``, whose normal form is ``image``."""
    trail: list[Word] = []

    def walk(prefix: Word, kind: int, depth: int) -> bool:
        for letter in pools[kind]:
            w = prefix * letter
            trail.append(letter)
            if w.syllables == image or (
                    depth + 1 < n_syllables and walk(w, 1 - kind, depth + 1)):
                return True
            trail.pop()
        return False

    walk(group.identity(), 0, 0) or walk(group.identity(), 1, 0)
    return trail


def free_subgroup_witness(g1: Word, g2: Word, M: int, n_letters: int,
                          projection_bound: int = 8) -> dict:
    """Ping-pong witness: alternating words in g1^{+-M}, g2^{+-M} stay nontrivial.

    Precondition: the two axes are distinct with bounded mutual projections
    (measured over windows; PreconditionFailed when the projected diameters
    exceed ``projection_bound``).

    The letters are g1^M, g1^-M, g2^M, g2^-M, so the inverse of letter i
    is letter i ^ 1 and a freely reduced word never follows i by i ^ 1.
    The search is depth-first in letter order and spends one product per
    word; the letter indices of the current word sit on one trail stack,
    copied only into a witness.
    """
    group = g1.group
    pm1, pm2 = ProjectionMap(Axis(g1)), ProjectionMap(Axis(g2))
    window = 3 * max(pm1.axis.translation_length, pm2.axis.translation_length) + \
        pm1.axis.conjugator.length + pm2.axis.conjugator.length + 6
    d12 = pm1.projected_diameter([v for _, v in pm2.axis.vertices_in_ball(window)])
    d21 = pm2.projected_diameter([v for _, v in pm1.axis.vertices_in_ball(window)])
    if max(d12, d21) > projection_bound:
        raise PreconditionFailed(
            f"mutual projections too large ({d12}, {d21}); axes not independent")

    letters = [g1**M, (g1**M).inverse(), g2**M, (g2**M).inverse()]
    last = n_letters - 1
    checked = 0
    trail: list[int] = []

    def dfs(prefix: Word, prev: int, depth: int):
        nonlocal checked
        for i, letter in enumerate(letters):
            if i == prev ^ 1:
                continue  # formally reducible; not a new group element
            w = prefix * letter
            checked += 1
            if w.is_identity:
                raise CounterexampleFound(
                    "freely reduced alternating power word maps to identity",
                    witness=tuple(trail) + (i,))
            if depth < last:
                trail.append(i)
                dfs(w, i, depth + 1)
                trail.pop()

    if n_letters > 0:
        dfs(group.identity(), -1, 0)
    return {"verdict": "PASS", "words_checked": checked, "M": M,
            "mutual_projections": (d12, d21)}


@dataclass(frozen=True)
class CoarseQuotientReport:
    verdict: str
    theta_cq1: int
    theta_cq2: int
    theta: int
    kappa: int
    counting: tuple  # per radius: (r, ball, kappa * cosets, ok)
    sample_radius: int


def coarse_quotient_check(subgroup, g: Word, selector: SeparationSelector,
                          sample_radius: int,
                          counting_radii: tuple[int, ...] = (3, 4, 5),
                          theta_cap: int | None = None) -> CoarseQuotientReport:
    """Exhaustive CQ1/CQ2 check of phi(u) = u f(u) plus the ball-counting
    inequality |B(o,r)| <= kappa |L(B(o,r+theta))| with kappa = |B(o,3 theta)|.
    """
    group = g.group
    pm = ProjectionMap(Axis(g))
    y = selector.basepoint

    points = list(ball_elements(group, sample_radius))
    phi: dict[Word, Word] = {}
    theta_cq2 = 0
    for u in points:
        f_u = selector.choose(pm, u)
        phi_u = u * f_u
        phi[u] = phi_u
        theta_cq2 = max(theta_cq2, distance(u * y, phi_u * y))

    # CQ1: group by LEFT coset phi(u)H; uH <-> Hu^-1, so the class key is
    # the coset key of the inverse word
    classes: dict[tuple, list[Word]] = {}
    for u in points:
        classes.setdefault(coset_key(subgroup.core, phi[u].inverse()), []).append(u)
    theta_cq1 = 0
    witness = None
    for members in classes.values():
        for u, v in itertools.combinations(members, 2):
            d = distance(phi[u] * y, phi[v] * y)
            if d > theta_cq1:
                theta_cq1 = d
                witness = (str(u), str(v), d)
    theta = max(theta_cq1, theta_cq2)
    if theta_cap is not None and theta > theta_cap:
        raise CQViolation(f"measured theta {theta} exceeds cap {theta_cap}",
                          witness=witness)

    kappa = sum(sphere_counts(group, 3 * theta)) if theta > 0 else 1
    rows = []
    ok = True
    for r in counting_radii:
        ball_r = sum(sphere_counts(group, r))
        cosets = sum(coset_sphere_sizes(subgroup.core, r + theta))
        bound = kappa * cosets
        rows.append((r, ball_r, bound, ball_r <= bound))
        ok = ok and ball_r <= bound
    return CoarseQuotientReport(verdict="PASS" if ok else "FAIL",
                                theta_cq1=theta_cq1, theta_cq2=theta_cq2,
                                theta=theta, kappa=kappa, counting=tuple(rows),
                                sample_radius=sample_radius)
