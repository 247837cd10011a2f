"""The three workloads: their inputs, operations and checks.

Every operation calls a public entry point of growthlab and returns what
it returned; its check compares that output with ``reference`` (which
shares no code with growthlab) or with a property the method must have.
Inputs depend on the seed in two ways: a seeded relabelling of the
generators (an automorphism of the group, which keeps every word length
and so every cost) and seeded random generator sets.  The subgroups that
show the known ``relative_growth`` fault are fixed, so the failed share
of a run is the same for every seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import reference as ref

WORKLOADS = ("growth", "geometry", "amalgam")

# Subgroups of F2 whose non-backtracking matrix is periodic and for which
# relative_growth falls back to a wrong estimate (see README).
FAULTY_SUBGROUPS = (("babbaaBa", "babaBBAA", "bbaaabba"), ("ABBABA", "abABaB", "ABBBAb"))


@dataclass
class Operation:
    """One call into growthlab with the check of its output.

    ``check`` returns None when the output is right, else the reason.
    ``fault`` is set on an operation that fails because of the
    relative_growth fault named in the README: given an output that
    ``check`` refused, it returns None when the output shows that fault's
    signature, else the reason it does not.
    """

    name: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    fault: Callable[[object], str | None] | None = None


def automorphism(rng: random.Random, letters: str, orders: tuple[int, ...]) -> dict[str, str]:
    """A seeded letter map: permute generators of equal order, invert some."""
    mapping = {}
    for order in sorted(set(orders)):
        same = [x for x, m in zip(letters, orders) if m == order]
        images = same[:]
        rng.shuffle(images)
        for x, y in zip(same, images):
            mapping[x] = y.upper() if rng.random() < 0.5 else y
    return mapping


def random_cyclic_word(rng: random.Random, k: int, length: int) -> str:
    """A uniformly drawn cyclically reduced word of the given length in F_k."""
    letters = ref.FREE_LETTERS[:k] + ref.FREE_LETTERS[:k].upper()
    while True:
        word = ""
        while len(word) < length:
            ch = rng.choice(letters)
            if not word or word[-1] != ch.swapcase():
                word += ch
        if word[0] != word[-1].swapcase():
            return word


def random_subgroup(rng: random.Random, k: int, lengths: tuple[int, ...]) -> tuple[str, ...]:
    """Cyclically reduced generators of coprime lengths.

    Each generator closes a reduced cycle of its length at the base, so
    coprime lengths make the non-backtracking matrix aperiodic: the
    periodic case is covered by fixed subgroups instead.  Lengths are kept
    short (3 and 5 in F2) because longer, sparser generators, such as
    lengths 5 and 7, make the divergence test of verify_growth_gap fail on
    some seeds (see the README).
    """
    return tuple(random_cyclic_word(rng, k, n) for n in lengths)


def _run_cli(argv: list[str]):
    from growthlab import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _cli_payload(result, expected_code: int = 0):
    code, text = result
    if code != expected_code:
        return None, f"exit code {code}, expected {expected_code}"
    return json.loads(text), None


# -- growth -----------------------------------------------------------------


def _gap_check(k: int, gens: tuple[str, ...], r: int):
    def check(report) -> str | None:
        graph = ref.FoldedGraph(k, gens)
        want = "INAPPLICABLE" if graph.finite_index() else "PASS"
        if report.verdict != want:
            failed = [h for h, ok in report.hypotheses.items() if not ok]
            return f"verdict {report.verdict}, expected {want} (failed: {failed})"
        counts = graph.element_counts(r)
        if report.details["h_counts"] != counts:
            return f"subgroup counts {report.details['h_counts']} != {counts}"
        if abs(report.omega_g - ref.free_rate(k)) > 1e-9:
            return f"omega_G {report.omega_g} != log {2 * k - 1}"
        tol = 1e-6
        if report.details["omega_h_spectral"] is None:
            # the rate is a fit of log cumulative counts over radii r-4..r
            cumulative = [sum(counts[:n + 1]) for n in range(r + 1)]
            tol = max(tol, ref.fit_residual(cumulative, max(1, r - 4), r))
        if abs(report.omega_h - graph.rate()) > tol:
            return f"omega_H {report.omega_h:.4f} != {graph.rate():.4f} (+- {tol:.4f})"
        return None
    return check


def _gap_fault(k: int, gens: tuple[str, ...], r: int):
    """The signature of the periodic-matrix fault of relative_growth.

    The subgroup counts and omega_G are right, the matrix is periodic,
    power iteration hit its cap (no spectral rate), and what goes wrong is
    either omega_H outside its tolerance or the "divergent" hypothesis
    alone failing.
    """
    check = _gap_check(k, gens, r)

    def fault(report) -> str | None:
        graph = ref.FoldedGraph(k, gens)
        if not graph.periodic():
            return "non-backtracking matrix is aperiodic"
        if report.details["h_counts"] != graph.element_counts(r):
            return "subgroup counts differ from the reference"
        if abs(report.omega_g - ref.free_rate(k)) > 1e-9:
            return f"omega_G {report.omega_g} != log {2 * k - 1}"
        if report.details["omega_h_spectral"] is not None:
            return "power iteration converged"
        failed = [h for h, ok in report.hypotheses.items() if not ok]
        if report.verdict == "INAPPLICABLE" and failed == ["divergent"]:
            return None
        if report.verdict == "PASS" and check(report).startswith("omega_H "):
            return None
        return f"verdict {report.verdict} (failed: {failed}): {check(report)}"
    return fault


def _quotient_check(k: int, gens: tuple[str, ...], r: int, tolerance: float):
    def check(report) -> str | None:
        graph = ref.FoldedGraph(k, gens)
        spheres = graph.coset_spheres(r)
        cumulative = [sum(spheres[:n + 1]) for n in range(r + 1)]
        if report.details["coset_counts"] != cumulative:
            return f"coset counts {report.details['coset_counts']} != {cumulative}"
        if abs(report.omega_g - ref.free_rate(k)) > 1e-9:
            return f"omega_G {report.omega_g} != log {2 * k - 1}"
        if graph.finite_index():
            return None if report.verdict == "INAPPLICABLE" else f"verdict {report.verdict}"
        if report.verdict != "PASS":
            return f"verdict {report.verdict}, expected PASS"
        if abs(report.omega_quotient - ref.free_rate(k)) > tolerance:
            return f"omega_G/H {report.omega_quotient} not within {tolerance} of omega_G"
        return None
    return check


def _growth(rng: random.Random, workdir: Path) -> list[Operation]:
    from growthlab import theorems

    sigma2 = automorphism(rng, "ab", (0, 0))
    sigma3 = automorphism(rng, "abc", (0, 0, 0))

    def mapped(sigma, gens):
        return tuple(ref.relabel(w, sigma) for w in gens)

    ops: list[Operation] = []

    def add(kind: str, k: int, gens: tuple[str, ...], r: int, known_fault: bool = False):
        fault = _gap_fault(k, gens, r) if known_fault else None
        cfg = theorems.ExperimentConfig(group=f"free:{k}", subgroup=gens, r_ball=r,
                                        r_schreier=r, r_audit=3)
        name = f"{kind} F{k} <{', '.join(gens)}> r={r}"
        if kind == "gap":
            ops.append(Operation(
                name, lambda: theorems.verify_growth_gap(cfg, raise_on_hypothesis=False),
                _gap_check(k, gens, r), fault))
        else:
            ops.append(Operation(
                name, lambda: theorems.verify_quotient_growth(cfg, raise_on_hypothesis=False),
                _quotient_check(k, gens, r, cfg.quotient_tolerance), fault))

    for gens in (("aa", "bb"), ("ab", "ba"), ("a",), ("a", "baB")):
        add("gap", 2, mapped(sigma2, gens), 12)
    for gens in FAULTY_SUBGROUPS:
        add("gap", 2, gens, 12, known_fault=True)
    add("quotient", 2, mapped(sigma2, ("a",)), 12)
    add("quotient", 2, mapped(sigma2, ("a", "baB")), 12)
    add("quotient", 2, mapped(sigma2, ("aa", "bb")), 10)
    add("quotient", 2, FAULTY_SUBGROUPS[1], 8)
    add("quotient", 3, mapped(sigma3, ("ab", "bc", "ca")), 8)
    for _ in range(2):
        gens = random_subgroup(rng, 2, (3, 5))
        add("gap", 2, gens, 12)
        add("quotient", 2, gens, 8)
    gens = random_subgroup(rng, 3, (3, 4))
    add("gap", 3, gens, 8)
    add("quotient", 3, gens, 6)
    return ops


# -- geometry -----------------------------------------------------------------


def _audit_check(orders: tuple[int, ...], r: int):
    free = all(m == 0 for m in orders)
    if free:
        spheres = [ref.free_sphere(len(orders), n) for n in range(r + 1)]
    else:
        spheres = ref.product_spheres(orders, r)

    def check(result) -> str | None:
        payload, error = _cli_payload(result)
        if error:
            return error
        cons = payload["constriction"]
        if cons["samples"] != math.comb(sum(spheres), 2):
            return f"constriction samples {cons['samples']} != C({sum(spheres)}, 2)"
        if cons["delta_cs1"] != 0:
            return f"CS1 delta {cons['delta_cs1']} != 0"
        rows = {row["property"]: row for row in payload["properties"]}
        if rows["nearest_point"]["samples"] != sum(spheres[:min(r, 4) + 1]):
            return "property audit sampled the wrong ball"
        if free:
            if cons["delta_cs2"] != 0:
                return f"CS2 delta {cons['delta_cs2']} != 0 on a tree"
            for prop in ("nearest_point", "lipschitz"):
                if rows[prop]["theta_empirical"] != 0:
                    return f"{prop} theta {rows[prop]['theta_empirical']} != 0 on a tree"
        return None
    return check


def _closure_check(root: str, power: int):
    def check(result) -> str | None:
        payload, error = _cli_payload(result)
        if error:
            return error
        if payload["E_gens"] not in ([root], [ref.inverse(root)]):
            return f"E generators {payload['E_gens']}, expected <{root}>"
        if payload["index_over_cyclic"] != power:
            return f"[E(g) : <g>] = {payload['index_over_cyclic']}, expected {power}"
        if not payload["certificates"]["conjugation_identities"]:
            return "conjugation identities do not hold"
        return None
    return check


def _buffering_check(result) -> str | None:
    payload, error = _cli_payload(result)
    if error:
        return error
    if not payload["check"]["passed"]:
        return f"chain not buffering: {payload['check']['failed_condition']}"
    margins = payload["separation"]["margins"]
    if not margins or min(margins) <= 0:
        return f"separation margins {margins} not all positive"
    return None


def _selector_check(k: int, gens: tuple[str, ...]):
    def check(result) -> str | None:
        payload, error = _cli_payload(result)
        if error:
            return error
        cq = payload["coarse_quotient"]
        theta = cq["theta"]
        if cq["verdict"] != "PASS":
            return f"coarse quotient verdict {cq['verdict']}"
        if cq["kappa"] != ref.free_ball(k, 3 * theta):
            return f"kappa {cq['kappa']} != |B(o, {3 * theta})|"
        graph = ref.FoldedGraph(k, gens)
        for r, ball, bound, ok in cq["counting"]:
            cosets = sum(graph.coset_spheres(r + theta))
            if ball != ref.free_ball(k, r) or bound != cq["kappa"] * cosets:
                return f"counting row r={r}: ({ball}, {bound}) != reference"
            if not ok or ball > bound:
                return f"counting row r={r} does not hold"
        return None
    return check


def _geometry(rng: random.Random, workdir: Path) -> list[Operation]:
    sigma = automorphism(rng, "ab", (0, 0))
    tau23 = automorphism(rng, "xy", (2, 3))
    tau44 = automorphism(rng, "xy", (4, 4))
    f = lambda w: ref.relabel(w, sigma)  # noqa: E731
    ops: list[Operation] = []

    def cli_op(name, argv, check):
        ops.append(Operation(name, lambda: _run_cli(argv), check))

    axes = ((f("ab"), "free:2", (0, 0), 4),
            (random_cyclic_word(rng, 2, 4), "free:2", (0, 0), 3),
            (ref.relabel("xy", tau23), "product:2,3", (2, 3), 6),
            (ref.relabel("xy", tau44), "product:4,4", (4, 4), 4))
    for word, group, orders, r in axes:
        cli_op(f"audit {group} axis {word} r={r}",
               ["audit", "--group", group, "--axis", word, "--rmax", str(r)],
               _audit_check(orders, r))
    for word, root, power in ((f("ab"), f("ab"), 1), (f("aa"), f("a"), 2)):
        cli_op(f"closure free:2 g={word} radius=6",
               ["closure", "--group", "free:2", "--g0", word, "--radius", "6"],
               _closure_check(root, power))

    chain = workdir / "chain.json"
    chain.write_text(json.dumps({
        "group": "free:2", "subgroup": [f("a")], "g": f("b"),
        "word": [["h", f("a")], ["k", f("bbb")], ["h", f("aa")], ["k", f("BBB")]],
        "radius": 2, "theta": 1}))
    cli_op(f"buffering chain <{f('a')}> g={f('b')}", ["buffering", "--chain", str(chain)],
           _buffering_check)

    sub = workdir / "selector.txt"
    sub.write_text(f("a") + "\n")
    cli_op(f"selector free:2 <{f('a')}> g={f('b')} r=5",
           ["selector", "--group", "free:2", "--subgroup", str(sub), "--g0", f("b"),
            "--rmax", "5"],
           _selector_check(2, (f("a"),)))
    return ops


# -- amalgam ------------------------------------------------------------------


def _amalgam_check(k: int, gens: tuple[str, ...], g: str, M: int, syllables: int,
                   letter_cap: int = 4, j_max: int = 4):
    def check(result) -> str | None:
        payload, error = _cli_payload(result)
        if error:
            return error
        graph = ref.FoldedGraph(k, gens)
        f_nontrivial = [w for w in payload["h_cap_e"] if w != "1"]
        if not all(graph.contains(w) for w in f_nontrivial):
            return f"H & E(g) lists a non-member: {payload['h_cap_e']}"
        counts = graph.element_counts(letter_cap)
        pool_h = sum(counts[1:]) - sum(1 for w in f_nontrivial if len(w) <= letter_cap)
        if payload["pool_h"] != pool_h:
            return f"pool_h {payload['pool_h']} != {pool_h}"
        if not f_nontrivial:
            pool_k = 2 * sum(1 for j in range(1, j_max + 1) if j * M * len(g) <= letter_cap)
            if payload["pool_k"] != pool_k:
                return f"pool_k {payload['pool_k']} != {pool_k}"
        words = ref.alternating_words(payload["pool_h"], payload["pool_k"], syllables)
        if payload["verdict"] != "PASS" or payload["words_checked"] != words:
            return f"{payload['verdict']} after {payload['words_checked']} words, expected {words}"
        return None
    return check


def _counterexample_check(result) -> str | None:
    payload, error = _cli_payload(result, expected_code=3)
    if error:
        return error
    if payload["verdict"] != "COUNTEREXAMPLE" or not ref.is_relation(payload["witness"]):
        return f"witness {payload['witness']} does not spell a relation"
    return None


def _ping_pong_check(n_letters: int):
    def check(report) -> str | None:
        words = ref.ping_pong_words(n_letters)
        if report["verdict"] != "PASS" or report["words_checked"] != words:
            return f"{report['verdict']} after {report['words_checked']} words, expected {words}"
        return None
    return check


def _amalgam(rng: random.Random, workdir: Path) -> list[Operation]:
    from growthlab import theorems
    from growthlab.groups import MarkedGroup

    sigma = automorphism(rng, "ab", (0, 0))
    f = lambda w: ref.relabel(w, sigma)  # noqa: E731
    ops: list[Operation] = []
    cases = ((("a",), "b", 1, 5, 0), (("a",), "b", 2, 6, 0),
             (("a", "baB"), "b", 4, 4, 0), (("a", "baB"), "b", 1, 5, 3))
    for i, (gens, g, M, syllables, code) in enumerate(cases):
        gens, g = tuple(f(w) for w in gens), f(g)
        sub = workdir / f"amalgam{i}.txt"
        sub.write_text("\n".join(gens) + "\n")
        argv = ["amalgam", "--group", "free:2", "--subgroup", str(sub), "--g0", g,
                "-M", str(M), "--syllables", str(syllables)]
        check = (_counterexample_check if code == 3
                 else _amalgam_check(2, gens, g, M, syllables))
        ops.append(Operation(f"amalgam <{', '.join(gens)}> g={g} M={M} n={syllables}",
                             lambda argv=argv: _run_cli(argv), check))

    group = MarkedGroup.free(2)
    for g1, g2, M, n in (("ab", "aB", 1, 9), ("ab", "aB", 2, 8)):
        w1, w2 = group.parse(f(g1)), group.parse(f(g2))
        ops.append(Operation(
            f"ping-pong {f(g1)}, {f(g2)} M={M} n={n}",
            lambda w1=w1, w2=w2, M=M, n=n: theorems.free_subgroup_witness(w1, w2, M, n),
            _ping_pong_check(n)))
    return ops


OPERATIONS = {"growth": _growth, "geometry": _geometry, "amalgam": _amalgam}


def build(workload: str, seed: int, workdir: Path) -> list[Operation]:
    """The workload's operation list for a seed; writes input files to workdir."""
    return OPERATIONS[workload](random.Random(f"{workload}:{seed}"), workdir)
