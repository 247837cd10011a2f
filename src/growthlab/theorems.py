"""End-to-end pipelines: growth-gap, quotient-growth, amalgam injectivity,
free-subgroup witnesses, and the coarse-quotient counting argument.

A finitely generated subgroup H of F_k is its folded Stallings core
(``CoreGraph``): the pipelines take the core, or any subgroup with
``elements_in_ball`` where only a ball sample is needed.

The growth-gap and quotient-growth reports split their hypotheses in
two.  ``hypotheses`` holds the checks that some input can make false,
each computed once and exactly; ``assumed`` names what the theory
guarantees for every input the pipeline accepts, with the reason.  One
verdict rule (``_conclude``) decides both: INAPPLICABLE when a checked
hypothesis fails (raised as HypothesisFailed when asked), otherwise PASS
or FAIL as the conclusion holds or not.

Both decide from the core alone, with no sampled audit and no fitted
rate.  The ambient group is the free group F_k, so omega_G = log(2k - 1);
the subgroup is quasi-convex with the exact constant eta read off the
core (``CoreGraph.depths``); omega_H is the log Perron root of the core;
a nontrivial subgroup is divergent; and the coset space grows at exactly
log(2k - 1) when the index is infinite.  The conclusions carry no margin:
omega_H < omega_G strictly, and omega_{G/H} == omega_G.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

from .axes import Axis, ProjectionMap
from .balls import ELEMENT_CAP, ball_elements, sphere_counts
from .closure import SeparationSelector, _coset_words, subgroup_closure_intersection
from .errors import (BudgetExceeded, CounterexampleFound, CrossCheckFailed, HypothesisFailed,
                     PreconditionFailed)
from .groups import MarkedGroup, Word, cyclic_reduce, distance, is_torsion
from .schreier import coset_sphere_sizes, schreier_growth
from .stallings import CoreGraph, _fold, coset_key, relative_growth, stallings_fold

QUASI_CONVEX_REASON = ("finitely generated subgroups of F_k are quasi-convex; "
                       "eta is the largest core depth")
DIVERGENCE_REASON = ("a nontrivial finitely generated subgroup of F_k has purely "
                     "exponential growth, so it is of divergence type (Coornaert 1993); "
                     "equally, its growth series is rational with nonnegative "
                     "coefficients, so by Pringsheim's theorem it has a pole at 1/rho")
AMALGAM_J_MAX = 4  # amalgam_injectivity's <g^M>-letters are g^{Mj}, 0 < |j| <= 4
PROJECTION_BOUND = 8  # largest mutual projection free_subgroup_witness accepts
COUNTING_RADII = (3, 4, 5)  # radii of the ball-counting inequality of coarse_quotient_check
EMPTY_POOL = "empty letter pool; enlarge letter_cap or shrink M"


@dataclass(frozen=True)
class ExperimentConfig:
    group: str
    subgroup: tuple[str, ...] = ()
    g0: str = ""
    r_ball: int = 12
    r_schreier: int = 14
    r_audit: int = 4  # unused; kept because perfbench/workloads.py passes it
    # the error in omega_{G/H} that perfbench's reference check allows;
    # the quotient verdict itself is exact
    quotient_tolerance: ClassVar[float] = 0.05

    def __post_init__(self):
        if min(self.r_ball, self.r_schreier) < 3:
            raise PreconditionFailed("radii must be >= 3")

    def marked_group(self) -> MarkedGroup:
        return MarkedGroup.from_descriptor(self.group)

    def core(self) -> CoreGraph:
        g = self.marked_group()
        return stallings_fold(g, [g.parse(w) for w in self.subgroup])

    def g0_word(self) -> Word:
        group = self.marked_group()
        return group.parse(self.g0) if self.g0 else group.word([(group.rank - 1, 1)])


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


def _subgroup_facts(cfg: ExperimentConfig) -> tuple[CoreGraph, dict, dict, float]:
    """The facts both growth pipelines share: the core, its index, the
    exact eta, and omega_G = log(2k - 1) of the free ambient group."""
    core = cfg.core()
    idx = core.index()
    hypotheses = {"infinite_index": idx == math.inf}
    details = {"index": "infinite" if idx == math.inf else int(idx),
               "eta": max(core.depths.values())}
    return core, hypotheses, details, math.log(2 * core.group.rank - 1)


def _conclude(theorem: str, hypotheses: dict, holds: bool, raise_on_hypothesis: bool,
              **fields) -> TheoremReport:
    """The report with its verdict: INAPPLICABLE when a checked hypothesis
    fails, raised as HypothesisFailed (carrying the report) when
    ``raise_on_hypothesis``; otherwise PASS or FAIL as ``holds``."""
    failed = [name for name, ok in hypotheses.items() if not ok]
    verdict = "INAPPLICABLE" if failed else ("PASS" if holds else "FAIL")
    report = TheoremReport(theorem=theorem, verdict=verdict, hypotheses=hypotheses, **fields)
    if failed and raise_on_hypothesis:
        exc = HypothesisFailed(", ".join(failed))
        exc.report = report
        raise exc
    return report


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
    omega_H is the log Perron root of the core and omega_G = log(2k - 1).
    The conclusion is omega_H < omega_G, strictly: a desk-scale gap at
    infinite index is far above the rounding of ``eigvals``.
    """
    core, hypotheses, details, omega_g = _subgroup_facts(cfg)
    assumed = {"quasi_convex": QUASI_CONVEX_REASON,
               "axis_constriction": "the axis of an infinite-order element of F_k "
                                    "is 0-constricting in the Cayley tree",
               "divergence_type": DIVERGENCE_REASON}

    rel = relative_growth(core, cfg.r_ball)
    omega_h = rel.spectral.rate
    details["omega_h_spectral"] = rel.spectral.rate
    details["h_counts"] = list(rel.counts.sphere_sizes)
    hypotheses["divergent"] = bool(core.edges)

    g0 = cfg.g0_word()
    hypotheses["constricting_element"] = not is_torsion(g0)
    details["g0"] = str(g0)

    return _conclude("growth_gap", hypotheses, omega_h < omega_g,
                     raise_on_hypothesis, assumed=assumed, omega_g=omega_g,
                     omega_h=omega_h, gap=omega_g - omega_h, details=details)


def verify_quotient_growth(cfg: ExperimentConfig,
                           raise_on_hypothesis: bool = True) -> TheoremReport:
    """Quotient-growth pipeline: coset counts of an infinite-index
    quasi-convex subgroup grow at the full rate omega_G.

    Checked: ``infinite_index``.  Assumed: ``quasi_convex`` (exact eta in
    ``details``).  omega_{G/H} is exact: log(2k - 1) at infinite index and
    0 at finite index, from the coset sphere identity that
    ``schreier_growth`` checks past eta.  The conclusion is
    omega_{G/H} == omega_G, with no tolerance; no budget applies (see
    ``schreier_growth``)."""
    core, hypotheses, details, omega_g = _subgroup_facts(cfg)
    assumed = {"quasi_convex": QUASI_CONVEX_REASON}

    sg = schreier_growth(core, cfg.r_schreier)
    omega_quotient = sg.rate.rate
    details["coset_counts"] = list(sg.counts.cumulative)
    infinite = hypotheses["infinite_index"]
    if not infinite:
        details["note"] = "finite index: omega_{G/H} = 0 <= omega_G"
    return _conclude("quotient_growth", hypotheses, omega_quotient == omega_g,
                     raise_on_hypothesis, assumed=assumed, omega_g=omega_g,
                     omega_quotient=omega_quotient,
                     gap=omega_g - omega_quotient if infinite else None, details=details)


@dataclass(frozen=True)
class AmalgamReport:
    verdict: str
    decided_by: str  # "fold" (the rank of <H, g^M> in F_k) or "search" (the word search)
    words_checked: int
    max_syllables: int
    letter_cap: int
    M: int
    pool_h: int
    pool_k: int
    h_cap_e: tuple[str, ...]


def amalgam_injectivity(subgroup, g: Word, M: int, n_syllables: int,
                        letter_cap: int = 4) -> AmalgamReport:
    """Decide whether H * <g^M, H&E> -> G is injective on a sample: every
    alternating word (both starting types) of 1..n letters, whose letters
    are the ball-bounded elements of H - (H&E) and <g^M, H&E> - (H&E), must
    map to a nontrivial image, and, with H&E trivial, distinct words to
    distinct images.  One listing of H & B(o, letter_cap + 2) gives H & E
    and, cut at letter_cap in order, the H-pool.  ``decided_by`` names what
    decided the verdict: "fold" or "search".

    In F_k one Stallings fold decides it (``_fold_certifies``).  Finitely
    generated free groups are Hopfian: H * <g^M> is free of rank
    rank(H) + 1 and maps onto K = <H, g^M>, so the map is injective exactly
    when rank(K) = rank(H) + 1, and the rank of K is E - V + 1 of the fold
    of H's core with one loop g^M at its base.  Then every alternating word
    of the sample is a distinct reduced element of H * <g^M>, so its image
    is nontrivial and distinct from the others': the call passes with
    ``words_checked`` the exact size of the sample, and searches nothing.
    No H & E guard is needed.  E(g) is cyclic, so a nontrivial H & E(g)
    meets <g^M> nontrivially; then the map is not injective, rank(K) is at
    most rank(H), and the search runs.  Any other rank, and every subgroup
    of a free product, goes to the search, which finds the witness or
    passes on the sample.

    The search (``_search``) walks the sample word by word, depth-first,
    H-letters first, each pool in its order, and keys each word by its
    normal-form syllables: the empty tuple is the identity and, with H&E
    trivial, a word whose syllables are already in the image set collides
    with an earlier one, which one more walk of the search finds.  A
    passing search visits exactly the sample, so ``words_checked`` is its
    size on both paths.

    Refusals come before the fold and the search.  g^M in H, which empties
    the <g^M>-pool, is refused before H is listed (PreconditionFailed), and
    more than ``ELEMENT_CAP`` words, counted from the pool sizes, after
    (BudgetExceeded).  In F_k, with g = c w c^-1 and w cyclically reduced,
    |g^M| = 2|c| + M|w| and every <g^M>-letter has length
    >= |g^M| - (letter_cap + 2), so a pool this bound empties is refused
    before g^M is built.
    """
    if g.group.is_free:
        conj, core = cyclic_reduce(g)
        if 2 * conj.length + M * core.length - (letter_cap + 2) > letter_cap:
            raise PreconditionFailed(EMPTY_POOL)
    power = g ** M
    if subgroup.contains(power):
        raise PreconditionFailed(EMPTY_POOL)
    listed = list(subgroup.elements_in_ball(letter_cap + 2))
    f_elements = subgroup_closure_intersection(listed, g)
    f_set = set(f_elements)
    collisions = all(f.is_identity for f in f_elements)
    pool_h = [h for h in listed if 0 < h.length <= letter_cap and h not in f_set]
    pool_k = [w for w in _coset_words(g, M, f_elements, AMALGAM_J_MAX)
              if w.length <= letter_cap]
    if not pool_h or not pool_k:
        raise PreconditionFailed(EMPTY_POOL)
    sample = _alternating_words(len(pool_h), len(pool_k), n_syllables)
    if sample > ELEMENT_CAP:
        raise BudgetExceeded(f"more than {ELEMENT_CAP} alternating words of at most "
                             f"{n_syllables} letters from pools of {len(pool_h)} and "
                             f"{len(pool_k)} letters")
    report = dict(verdict="PASS", words_checked=sample, max_syllables=n_syllables,
                  letter_cap=letter_cap, M=M, pool_h=len(pool_h), pool_k=len(pool_k),
                  h_cap_e=tuple(str(f) for f in f_elements))
    if isinstance(subgroup, CoreGraph) and _fold_certifies(subgroup, power):
        return AmalgamReport(decided_by="fold", **report)

    letters, h = pool_h + pool_k, len(pool_h)
    follows = [range(h, len(letters))] * h + [range(h)] * len(pool_k)
    images: set[tuple] = set()

    def spelled(trail: list[int]) -> list[str]:
        return [str(letters[i]) for i in trail]

    for syllables, trail in _search(letters, follows, n_syllables):
        if not syllables:
            raise CounterexampleFound("alternating word maps to the identity",
                                      witness=spelled(trail))
        if collisions:
            size = len(images)
            images.add(syllables)
            if len(images) == size:
                first = next(spelled(t) for s, t in _search(letters, follows, n_syllables)
                             if s == syllables)
                raise CounterexampleFound("two distinct alternating words share an image",
                                          witness=(first, spelled(trail)))
    return AmalgamReport(decided_by="search", **report)


def _fold_certifies(core: CoreGraph, power: Word) -> bool:
    """Whether H * <power> -> <H, power> is injective, H the subgroup of
    ``core`` in F_k: exactly when folding the core with one loop ``power``
    at its base gives rank(H) + 1 (Hopfian; see ``amalgam_injectivity``)."""
    return _fold(core.group, core.n_vertices, core.edges, [power]).rank == core.rank + 1


def _alternating_words(h: int, k: int, n: int) -> int:
    """The alternating words of 1..n letters from pools of h and k letters,
    either kind first, counted exactly up to the first length that takes
    the count past ``ELEMENT_CAP``."""
    total, ends_h, ends_k = 0, h, k
    for _ in range(n):
        total += ends_h + ends_k
        if total > ELEMENT_CAP:
            break
        ends_h, ends_k = ends_k * h, ends_h * k
    return total


def _search(letters: list[Word], follows, n: int):
    """Yield (syllables, trail) for each word letters[i_1] ... letters[i_d],
    1 <= d <= n, with each i_{t+1} in ``follows[i_t]``, depth-first, each
    word before its extensions: ``syllables`` is the word's normal form and
    ``trail`` the list of its indices, which the walk changes as it goes on.

    A word is its prefix's syllables and length concatenated with the
    letter's, unless the prefix's last generator is the letter's first:
    only such a seam can merge (``groups``), and only it costs a ``Word``
    product.
    """
    group = letters[0].group
    syllables = [w.syllables for w in letters]
    lengths = [w.length for w in letters]
    heads = [s[0][0] if s else -1 for s in syllables]
    trail: list[int] = []
    stack = [((), 0, iter(range(len(letters))))] if n > 0 else []
    while stack:
        syl, length, options = stack[-1]
        i = next(options, None)
        if i is None:
            stack.pop()
            if trail:
                trail.pop()
            continue
        if heads[i] != (syl[-1][0] if syl else -1):
            syl, length = syl + syllables[i], length + lengths[i]
        else:
            w = Word(group, syl, length) * letters[i]
            syl, length = w.syllables, w.length
        trail.append(i)
        yield syl, trail
        if len(trail) < n:
            stack.append((syl, length, iter(follows[i])))
        else:
            trail.pop()


def free_subgroup_witness(g1: Word, g2: Word, M: int, n_letters: int) -> dict:
    """Ping-pong witness: alternating words in g1^{+-M}, g2^{+-M} stay nontrivial.

    Precondition: the two axes are distinct with bounded mutual projections
    (measured over windows; PreconditionFailed when the projected diameters
    exceed ``PROJECTION_BOUND``).

    The letters are g1^M, g1^-M, g2^M, g2^-M, so the inverse of letter i
    is letter i ^ 1 and a freely reduced word never follows i by i ^ 1.
    Every freely reduced word of 1..n letters is decided, without walking
    them, by meeting in the middle.  Split a word of d letters as u v, with
    |u| = ceil(d/2) and |v| = floor(d/2).  Then u v = 1 exactly when u and
    v^-1 have the same normal form; v^-1 is itself a reduced word of |v|
    letters (reverse v and flip each index by ^ 1), and u v is reduced
    exactly when u and v^-1 end in different letters.  Normal forms are
    unique, so this is exact in F_k and in free products alike.  So one
    table per k <= ceil(n/2) maps the normal form of each reduced k-letter
    half-word, built by one ``Word`` product from its prefix, to the set
    of its last letters (the empty word ends in none, -1), and an identity
    of d letters exists exactly when a normal form lies in the tables of
    ceil(d/2) and floor(d/2) letters with two different last letters.
    For n = 9 that is 484 half-words against 39,364 words.

    ``words_checked`` counts the words this decides, from the same tables:
    with c_k[l] the k-letter words ending in l and |W_k| all of them, the
    reduced words of d letters number sum_l c_u[l] (|W_v| - c_v[l]), as
    v^-1 may end in any letter but u's.  As letter l follows any word that
    does not end in l ^ 1, c_k[l] = |W_{k-1}| - c_{k-1}[l ^ 1]: the
    half-words are counted before the first product, and more than
    ``ELEMENT_CAP`` of them are refused (BudgetExceeded).  Only when the
    tables meet does the call walk the words (``_search``), in depth-first
    letter order, to the first whose normal form is empty: its letter
    indices are the witness.  A walk that finds none contradicts the tables
    (CrossCheckFailed).
    """
    pm1, pm2 = ProjectionMap(Axis(g1)), ProjectionMap(Axis(g2))
    window = 3 * max(pm1.axis.translation_length, pm2.axis.translation_length) + \
        pm1.axis.conjugator.length + pm2.axis.conjugator.length + 6
    d12 = pm1.projected_diameter([v for _, v in pm2.axis.vertices_in_ball(window)])
    d21 = pm2.projected_diameter([v for _, v in pm1.axis.vertices_in_ball(window)])
    if max(d12, d21) > PROJECTION_BOUND:
        raise PreconditionFailed(
            f"mutual projections too large ({d12}, {d21}); axes not independent")

    half = max(0, n_letters - n_letters // 2)
    ends, sizes = [[0] * 4], [1]  # c_k and |W_k|; the empty word ends in no letter
    for k in range(1, half + 1):
        ends.append([sizes[-1] - ends[-1][j ^ 1] for j in range(4)])
        sizes.append(sum(ends[-1]))
        if sum(sizes) - 1 > ELEMENT_CAP:
            raise BudgetExceeded(f"more than {ELEMENT_CAP} half-words of at most {k} "
                                 f"letters for words of {n_letters}")

    letters = [g1**M, (g1**M).inverse(), g2**M, (g2**M).inverse()]
    follows = [[j for j in range(4) if j != i ^ 1] for i in range(4)]
    level = [(letters[0].group.identity(), range(4), -1)]
    tables = [{(): {-1}}]
    for _ in range(half):
        level = [(w * letters[j], follows[j], j) for w, options, _ in level for j in options]
        table: dict[tuple, set[int]] = {}
        for w, _, j in level:
            table.setdefault(w.syllables, set()).add(j)
        tables.append(table)

    checked = 0
    for d in range(1, n_letters + 1):
        u, v = d - d // 2, d // 2
        first, second = tables[u], tables[v]
        if any(len(lasts | first[form]) > 1 for form, lasts in second.items() if form in first):
            trail = next((tuple(t) for syllables, t in _search(letters, follows, n_letters)
                          if not syllables), None)
            if trail is None:
                raise CrossCheckFailed(f"half-words meet in an identity of {d} letters "
                                       "that the walk does not find")
            raise CounterexampleFound("freely reduced alternating power word maps to identity",
                                      witness=trail)
        checked += sum(c * (sizes[v] - e) for c, e in zip(ends[u], ends[v]))
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


def coarse_quotient_check(subgroup, selector: SeparationSelector,
                          sample_radius: int) -> CoarseQuotientReport:
    """Exhaustive CQ1/CQ2 check of phi(u) = u f(u) on B(o, r), at the
    basepoint 1, plus the ball-counting inequality
    |B(o,r)| <= kappa |L(B(o,r+theta))| with kappa = |B(o,3 theta)|, for r
    in COUNTING_RADII.  f reads each pi(u^-1) from the selector's map, where
    ``find_selector_power`` on the same ball left it.

    The check reads the core (``coset_key``, ``coset_sphere_sizes``), so it
    runs only in F_k, whose Cayley graph is a tree.  CQ2 is the largest
    d(u, phi(u)) = |f(u)|.  CQ1 is the largest diameter of a class
    {phi(u) : phi(u)H fixed}.  Each class keeps the ends a, b of a diameter
    of its points so far, as in a tree diam(S + v) = max(d(a, b), d(a, v),
    d(b, v)): O(#classes) words held and two ``distance`` calls per point.
    The counts come from one sphere DP and one coset count.
    """
    group = selector.g.group
    power, power_inv = selector.power, selector.power.inverse()

    # CQ1: group by LEFT coset phi(u)H; uH <-> Hu^-1, so the class key is the
    # coset key of phi(u)^-1 = f(u)^-1 u^-1, from one inverse per u
    classes: dict[tuple, tuple[int, Word, Word]] = {}  # key -> diameter, its ends
    theta_cq2 = 0
    for u in ball_elements(group, sample_radius):
        phi, phi_inv = u, u.inverse()
        if selector.moves(phi_inv):  # f(u) = g^M, and |f(u)| is CQ2
            phi, phi_inv, theta_cq2 = u * power, power_inv * phi_inv, power.length
        key = coset_key(subgroup, phi_inv)
        diam, a, b = classes.setdefault(key, (0, phi, phi))
        da, db = distance(a, phi), distance(b, phi)
        if max(da, db) > diam:
            classes[key] = (da, a, phi) if da >= db else (db, b, phi)
    theta_cq1 = max(diam for diam, _, _ in classes.values())
    theta = max(theta_cq1, theta_cq2)

    spheres = sphere_counts(group, max(3 * theta, *COUNTING_RADII))
    coset_spheres = coset_sphere_sizes(subgroup, max(COUNTING_RADII) + theta)
    kappa = sum(spheres[:3 * theta + 1])
    rows = []
    for r in COUNTING_RADII:
        ball_r = sum(spheres[:r + 1])
        bound = kappa * sum(coset_spheres[:r + theta + 1])
        rows.append((r, ball_r, bound, ball_r <= bound))
    return CoarseQuotientReport(verdict="PASS" if all(row[3] for row in rows) else "FAIL",
                                theta_cq1=theta_cq1, theta_cq2=theta_cq2,
                                theta=theta, kappa=kappa, counting=tuple(rows),
                                sample_radius=sample_radius)
