"""Pin the benchmark's references against brute force at small radius.

    python3 -m pytest perfbench -q
"""

import itertools
import json
import math
import random
import subprocess
import sys
from pathlib import Path

import pytest

import reference as ref
import workloads

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def coset_spheres_bfs(k: int, generators, r: int) -> list[int]:
    """Brute force: BFS of cosets Hg, each keyed by its shortest word.

    Two reduced words name the same coset when u v^-1 lies in H; the
    membership test reads the folded graph.  Exponential in r.
    """
    graph = ref.FoldedGraph(k, generators)
    letters = ref.FREE_LETTERS[:k] + ref.FREE_LETTERS[:k].upper()
    reps = [""]
    spheres = [1]
    frontier = [""]
    for _ in range(r):
        nxt = []
        for u in frontier:
            for ch in letters:
                w = ref.free_reduce(u + ch)
                if any(graph.contains(w + ref.inverse(v)) for v in reps):
                    continue
                reps.append(w)
                nxt.append(w)
        spheres.append(len(nxt))
        frontier = nxt
    return spheres


def element_counts_bfs(k: int, generators, r: int) -> list[int]:
    """Brute force: count reduced words of each length that lie in H."""
    graph = ref.FoldedGraph(k, generators)
    letters = ref.FREE_LETTERS[:k] + ref.FREE_LETTERS[:k].upper()
    counts = [1]
    layer = [""]
    for _ in range(r):
        layer = [w + ch for w in layer for ch in letters if not w or w[-1] != ch.swapcase()]
        counts.append(sum(1 for w in layer if graph.contains(w)))
    return counts


SUBGROUPS = [
    (2, ("a",)), (2, ("a", "baB")), (2, ("aa", "bb")), (2, ("ab", "ba")),
    (2, ("aa", "b")), (2, ("ABBABA", "abABaB", "ABBBAb")), (2, ("abA",)),
    (3, ("ab", "bc", "ca")), (3, ("ab", "cA")),
]


@pytest.mark.parametrize("k,gens", SUBGROUPS)
def test_coset_spheres_match_coset_bfs(k, gens):
    r = 6 if k == 2 else 4
    assert ref.FoldedGraph(k, gens).coset_spheres(r) == coset_spheres_bfs(k, gens, r)


@pytest.mark.parametrize("k,gens", SUBGROUPS)
def test_element_counts_match_word_enumeration(k, gens):
    r = 8 if k == 2 else 5
    assert ref.FoldedGraph(k, gens).element_counts(r) == element_counts_bfs(k, gens, r)


def test_folding_merges_shared_prefixes_and_prunes_hairs():
    graph = ref.FoldedGraph(2, ("ab", "aB", "bAAB"))
    assert graph.contains("abbA") and not graph.contains("b")
    # <a> from the unreduced generator baB conjugated back: a hair is pruned
    assert ref.FoldedGraph(2, ("bAaaB",)).n_vertices == 2


@pytest.mark.parametrize("k,gens,rate", [
    (2, ("a",), 0.0),
    (2, ("a", "b"), math.log(3)),
    (3, ("a", "b", "c"), math.log(5)),
    (2, ("aa", "bb"), math.log(3) / 2),
    (2, ("a" * 16, "b" * 16), math.log(3) / 16),
    (2, ("a", "baB"), math.log(2)),
])
def test_perron_rate_known_values(k, gens, rate):
    assert ref.FoldedGraph(k, gens).rate() == pytest.approx(rate, abs=1e-9)


def test_perron_rate_bounds_the_counts():
    graph = ref.FoldedGraph(2, ("babbaaBa", "babaBBAA", "bbaaabba"))
    counts = graph.element_counts(160)
    tail = sum(counts[141:])  # one full period of lengths in the tail
    assert math.log(tail) / 160 == pytest.approx(graph.rate(), abs=0.03)


def test_periodic_matrices():
    assert ref.FoldedGraph(2, ("aa", "bb")).periodic()
    assert ref.FoldedGraph(2, ("babbaaBa", "babaBBAA", "bbaaabba")).periodic()
    assert not ref.FoldedGraph(2, ("a",)).periodic()
    assert not ref.FoldedGraph(2, ("a", "baB")).periodic()


def test_finite_index():
    assert ref.FoldedGraph(2, ("a", "b")).finite_index()
    assert ref.FoldedGraph(2, ("aa", "ab", "ba")).finite_index()
    assert not ref.FoldedGraph(2, ("aa", "bb")).finite_index()


def _reduced_words(k, r):
    letters = ref.FREE_LETTERS[:k] + ref.FREE_LETTERS[:k].upper()
    layer = [""]
    yield layer
    for _ in range(r):
        layer = [w + c for w in layer for c in letters if not w or w[-1] != c.swapcase()]
        yield layer


@pytest.mark.parametrize("k", [2, 3])
def test_free_spheres_closed_form(k):
    sizes = [len(layer) for layer in _reduced_words(k, 6)]
    assert sizes == [ref.free_sphere(k, n) for n in range(7)]
    assert ref.free_ball(k, 6) == sum(sizes)


def _psl2z_spheres(r):
    """Z2 * Z3 as PSL(2, Z): x = S of order 2, y = ST of order 3."""
    def mul(p, q):
        return (p[0] * q[0] + p[1] * q[2], p[0] * q[1] + p[1] * q[3],
                p[2] * q[0] + p[3] * q[2], p[2] * q[1] + p[3] * q[3])

    def norm(m):
        first = next(v for v in m if v)
        return m if first > 0 else tuple(-v for v in m)

    y = (0, -1, 1, 1)
    gens = [(0, -1, 1, 0), y, norm(mul(y, y))]
    seen = {norm((1, 0, 0, 1))}
    frontier = list(seen)
    out = [1]
    for _ in range(r):
        nxt = []
        for m in frontier:
            for g in gens:
                p = norm(mul(m, g))
                if p not in seen:
                    seen.add(p)
                    nxt.append(p)
        out.append(len(nxt))
        frontier = nxt
    return out


def test_product_spheres():
    assert ref.product_spheres((2, 3), 10) == _psl2z_spheres(10)
    assert ref.product_spheres((2, 2), 6) == [1, 2, 2, 2, 2, 2, 2]
    # Z4 * Z4: 4 syllables of length 1, then each extends by 4 or 2 ways
    assert ref.product_spheres((4, 4), 2) == [1, 4, 10]


@pytest.mark.parametrize("p,q,n", [(3, 2, 4), (1, 5, 3), (4, 4, 2)])
def test_alternating_words(p, q, n):
    brute = 0
    for length in range(1, n + 1):
        for first in (0, 1):
            sizes = [(p, q)[(first + i) % 2] for i in range(length)]
            brute += math.prod(sizes)
    assert ref.alternating_words(p, q, n) == brute


@pytest.mark.parametrize("n", [1, 2, 5])
def test_ping_pong_words(n):
    inverse_of = {0: 1, 1: 0, 2: 3, 3: 2}
    brute = 0
    for length in range(1, n + 1):
        for word in itertools.product(range(4), repeat=length):
            brute += all(word[i + 1] != inverse_of[word[i]] for i in range(length - 1))
    assert ref.ping_pong_words(n) == brute


def test_is_relation():
    assert ref.is_relation(["ab", "B", "A"])
    assert not ref.is_relation(["a", "b"])
    assert ref.is_relation([["a", "bA"], ["ab", "A"]])
    assert not ref.is_relation([["ab"], ["ab"]])


def test_relabel_is_an_automorphism():
    rng = random.Random(3)
    sigma = workloads.automorphism(rng, "abc", (0, 0, 0))
    assert sorted(v.lower() for v in sigma.values()) == ["a", "b", "c"]
    w = "abCaB"
    assert len(ref.relabel(w, sigma)) == len(w)
    assert ref.relabel(ref.inverse(w), sigma) == ref.inverse(ref.relabel(w, sigma))


@pytest.mark.parametrize("seed", range(40))
def test_random_subgroups_are_aperiodic(seed):
    rng = random.Random(seed)
    for k, lengths in ((2, (3, 5)), (3, (3, 4))):
        gens = workloads.random_subgroup(rng, k, lengths)
        assert [len(w) for w in gens] == list(lengths)
        assert all(ref.free_reduce(w + w) == w + w for w in gens)
        assert not ref.FoldedGraph(k, gens).periodic()


def test_fit_residual_is_zero_on_an_exponential():
    assert ref.fit_residual([3 ** n for n in range(9)], 4, 8) == pytest.approx(0, abs=1e-9)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_follow_the_seed(workload, tmp_path):
    names = lambda seed: [op.name for op in workloads.build(workload, seed, tmp_path)]  # noqa: E731
    assert names(5) == names(5)
    if workload == "growth":
        assert names(5) != names(6)
    faults = [op.name for op in workloads.build(workload, 5, tmp_path) if op.fault]
    assert faults == [op.name for op in workloads.build(workload, 6, tmp_path) if op.fault]


def test_known_fault_is_recognised_by_its_signature(tmp_path):
    """Both fixed operations fail with the relative_growth fault, and nothing else passes."""
    faulty = [op for op in workloads.build("growth", 5, tmp_path) if op.fault]
    assert len(faulty) == len(workloads.FAULTY_SUBGROUPS)
    for op in faulty:
        report = op.call()
        assert op.check(report) is not None
        assert op.fault(report) is None
        report.details["h_counts"] = [c + 1 for c in report.details["h_counts"]]
        assert op.fault(report) is not None


def test_tracer_uninstall_restores_every_binding():
    script = f"""
import sys
sys.path[:0] = [{str(HERE)!r}, {str(HERE.parent / 'src')!r}]
import tracing
from growthlab import audits, groups, schreier, stallings
before = (groups.Word.__mul__, audits.distance, stallings.power_iteration,
          schreier.SchreierAutomaton.complete_to)
tracer = tracing.Tracer()
tracer.install()
assert audits.distance is not before[1]
tracer.uninstall()
after = (groups.Word.__mul__, audits.distance, stallings.power_iteration,
         schreier.SchreierAutomaton.complete_to)
assert all(a is b for a, b in zip(before, after)) and not tracer.saved
"""
    subprocess.run([sys.executable, "-c", script], check=True)


def test_tracer_wraps_every_layer(tmp_path):
    """A traced call records spans, counts and the imported-by-name rebinding."""
    script = f"""
import json, sys
sys.path[:0] = [{str(HERE)!r}, {str(HERE.parent / 'src')!r}]
import tracing
from growthlab import groups, theorems, audits
tracer = tracing.Tracer()
tracer.install()
tracer.start_pass()
tracer.op_id = 0
g = groups.MarkedGroup.free(2)
theorems.free_subgroup_witness(g.parse("ab"), g.parse("aB"), 1, 3)
m = tracer.metrics(overhead_s=0.0)
print(json.dumps({{
    "mul": m["groups.mul.calls"]["value"],
    "self": m["theorems.free_subgroup_witness.self_s"]["value"],
    "spans": [s[0] for s in tracer.spans],
    "ops": sorted({{s[4] for s in tracer.spans}}),
    "rebound": audits.distance is groups.distance,
    "names": len(m) == len(tracing.METRICS),
}}))
"""
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         cwd=tmp_path, check=True)
    got = json.loads(out.stdout)
    assert got["mul"] > 0 and got["self"] > 0
    assert got["spans"][0] == "theorems.free_subgroup_witness"
    assert got["ops"] == [0]
    assert got["rebound"] and got["names"]
