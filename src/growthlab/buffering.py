"""Buffering sequences: alternating orbit pieces and axes with controlled
mutual projections.

A sequence Y_0, A_1, Y_1, ..., A_n, Y_n (only Y_0, Y_n may be empty) is
(delta, epsilon, L)-buffering when consecutive axes have epsilon-bounded
mutual projections (BS1), each axis sees its two neighbouring Y-sets with
epsilon-bounded projections (BS2) and epsilon-bounded distance (BS3), and
the two neighbouring Y-sets project at least L apart (BS4).  Conditions
referencing an empty set hold vacuously.

Y-sets are finite vertex samples (orbit-and-ball intersections): projected
distances of infinite orbits are realized within a computable window in
trees and cacti, since distances grow monotonically outside it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .axes import Axis, ProjectionMap
from .balls import ball_elements
from .errors import (EmptyInteriorSet, InvalidAlternatingWord, PreconditionFailed)
from .groups import Word, is_torsion, primitive_root


@dataclass(frozen=True)
class BufferingParams:
    delta: int
    epsilon: int
    L: int

    def __post_init__(self):
        if min(self.delta, self.epsilon, self.L) < 0:
            raise PreconditionFailed(f"buffering parameters must be >= 0, got "
                                     f"delta={self.delta}, epsilon={self.epsilon}, L={self.L}")


@dataclass
class BufferingSequence:
    """Alternating [Y_0, A_1, Y_1, ..., A_n, Y_n]."""

    y_sets: list[list[Word]]
    projections: list[ProjectionMap]  # length n

    def __post_init__(self):
        n = len(self.projections)
        if n < 1:
            raise InvalidAlternatingWord("a buffering sequence needs n >= 1 axes")
        if len(self.y_sets) != n + 1:
            raise ValueError("need n+1 Y-sets for n axes")
        for i in range(1, n):
            if not self.y_sets[i]:
                raise EmptyInteriorSet(f"interior set Y_{i} is empty")

    @property
    def n(self) -> int:
        return len(self.projections)


@dataclass(frozen=True)
class BufferingVerdict:
    passed: bool
    failed_condition: str | None
    witness: tuple | None
    bs1: tuple = ()  # per i<n: max mutual axis projection diameter
    bs2: tuple = ()  # per i: max neighbour Y projection diameter
    bs3: tuple = ()  # per i: max neighbour Y distance to axis
    bs4: tuple = ()  # per i: projected gap between neighbour Y-sets


def check_buffering(seq: BufferingSequence, params: BufferingParams) -> BufferingVerdict:
    """Evaluate BS1-BS4 exactly over the finite data of the sequence.

    The axis samples used for BS1 lie in a window that covers every word
    involved in the sequence plus slack, beyond which projected diameters
    of axes onto each other cannot change (tails project to the gates).
    """
    n = seq.n
    longest = 2
    for ys in seq.y_sets:
        for y in ys:
            longest = max(longest, y.length)
    for pm in seq.projections:
        longest = max(longest, pm.axis.conjugator.length + pm.axis.translation_length,
                      pm.u.length)
    window = 2 * longest + 8

    bs1, bs2, bs3, bs4 = [], [], [], []
    failure = None
    witness = None

    for i in range(n):
        pm = seq.projections[i]
        prev_y, next_y = seq.y_sets[i], seq.y_sets[i + 1]

        if i < n - 1:
            pm2 = seq.projections[i + 1]
            a_next = pm2.axis_points_in_ball(window)
            a_this = pm.axis_points_in_ball(window)
            val = max(pm.projected_diameter(a_next), pm2.projected_diameter(a_this))
            bs1.append(val)
            if val > params.epsilon and failure is None:
                failure = "BS1"
                witness = (i + 1, val)

        val2 = max(pm.projected_diameter(prev_y), pm.projected_diameter(next_y))
        bs2.append(val2)
        if val2 > params.epsilon and failure is None:
            failure = "BS2"
            witness = (i + 1, val2)

        val3 = 0
        if prev_y:
            val3 = max(val3, min(pm.dist_to_axis(y) for y in prev_y))
        if next_y:
            val3 = max(val3, min(pm.dist_to_axis(y) for y in next_y))
        bs3.append(val3)
        if val3 > params.epsilon and failure is None:
            failure = "BS3"
            witness = (i + 1, val3)

        if prev_y and next_y:
            val4 = pm.projected_set_distance(prev_y, next_y)
        else:
            val4 = None  # vacuous
        bs4.append(val4)
        if val4 is not None and val4 < params.L and failure is None:
            failure = "BS4"
            witness = (i + 1, val4)

    return BufferingVerdict(passed=failure is None, failed_condition=failure,
                            witness=witness, bs1=tuple(bs1), bs2=tuple(bs2),
                            bs3=tuple(bs3), bs4=tuple(bs4))


def behrstock_theta(pm_a, y_points: list[Word], pm_b, sample_radius: int,
                    params: BufferingParams) -> int:
    """Measured theta: max over x in B(o, r) of min(d_A(x, Y), d_B(x, Y)).

    Raises PreconditionFailed when the triple A, Y, B is not
    (delta, epsilon, 0)-buffering over the given finite data.
    """
    group = pm_a.group
    theta = 0
    seq = BufferingSequence(y_sets=[[], y_points, []], projections=[pm_a, pm_b])
    verdict = check_buffering(seq, BufferingParams(params.delta, params.epsilon, 0))
    if not verdict.passed:
        raise PreconditionFailed(
            f"triple is not buffering: {verdict.failed_condition} witness {verdict.witness}")
    for x in ball_elements(group, sample_radius):
        da = min(pm_a.projected_distance(x, y) for y in y_points)
        db = min(pm_b.projected_distance(x, y) for y in y_points)
        theta = max(theta, min(da, db))
    return theta


@dataclass(frozen=True)
class ChainSeparationReport:
    passed: bool
    theta: int
    gaps: tuple[int, ...]     # d_{A_i}(Y_0, Y_i) per i
    margins: tuple[int, ...]  # gap - theta per i


def chain_separation(seq: BufferingSequence, params: BufferingParams,
                     theta: int) -> ChainSeparationReport:
    """Check d_{A_i}(Y_0, Y_i) > theta for every i along a buffering chain.

    Requires the chain to pass check_buffering at the given params
    (otherwise the corollary is inapplicable and PreconditionFailed is
    raised, which callers report as such, not as a failure).
    """
    verdict = check_buffering(seq, params)
    if not verdict.passed:
        raise PreconditionFailed(
            f"chain is not buffering: {verdict.failed_condition} witness {verdict.witness}")
    y0 = seq.y_sets[0]
    if not y0:
        raise PreconditionFailed("Y_0 is empty; separation statement is vacuous")
    gaps = []
    for i in range(seq.n):
        pm = seq.projections[i]
        yi = seq.y_sets[i + 1]
        gaps.append(pm.projected_set_distance(y0, yi) if yi else 0)
    margins = tuple(g - theta for g in gaps)
    return ChainSeparationReport(passed=all(m > 0 for m in margins), theta=theta,
                                 gaps=tuple(gaps), margins=margins)


def build_axis_chain(subgroup, g: Word, letters: list[Word],
                     radius: int) -> BufferingSequence:
    """Assemble the chain v_0 Y, u_1 A, v_1 Y, ..., u_n A, v_n Y.

    ``letters`` alternates h_1, k_1, ..., h_n, k_n with h_i in the
    subgroup (outside the closure of g) and k_i a nontrivial power of g;
    u_i = h_1 k_1 ... h_i, v_i = u_i k_i.  Y is the subgroup ball sample
    H & B(o, radius) and each Y_i is its v_i-translate.
    """
    if not letters or len(letters) % 2 != 0:
        raise InvalidAlternatingWord("need a nonempty even list h_1, k_1, ..., h_n, k_n")
    group = g.group
    if is_torsion(g):
        raise InvalidAlternatingWord("g must have infinite order")
    root, _ = primitive_root(g)
    for j, w in enumerate(letters):
        if j % 2 == 0:
            if not subgroup.contains(w) or w.is_identity:
                raise InvalidAlternatingWord(f"letter {j} must be a nontrivial subgroup element")
        else:
            if w.is_identity:
                raise InvalidAlternatingWord(f"letter {j} must be a nontrivial power of g")
            zroot, _ = primitive_root(w)
            if zroot != root and zroot != root.inverse():
                raise InvalidAlternatingWord(f"letter {j} is not a power of g")

    base_pm = ProjectionMap(Axis(g))
    y_base = [h for h in subgroup.elements_in_ball(radius)]
    n = len(letters) // 2
    y_sets: list[list[Word]] = [list(y_base)]
    projections = []
    u = group.identity()
    for i in range(n):
        h, k = letters[2 * i], letters[2 * i + 1]
        u = u * h
        projections.append(base_pm.translated(u))
        v = u * k
        y_sets.append([v * y for y in y_base])
        u = v
    return BufferingSequence(y_sets=y_sets, projections=projections)
