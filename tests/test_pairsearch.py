import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import hatlab

from hatlab import pairsearch
from hatlab.cosets import double_coset
from hatlab.fpgroups import amalgam_by_name
from hatlab.group import PermutationGroup
from hatlab.normalizers import SymNormalizerData
from hatlab.pairsearch import (
    _reverses_an_arc,
    candidate_stabilizers,
    conjugacy_class_representatives,
    maximal_half_arc_pairs,
    realize_amalgam,
    reverser_candidates,
    search_amalgam,
    verify_pair_result,
)
from hatlab.perm import Permutation

from oracles import (
    dfs_realizations,
    element_scan_normalizer,
    graph_isomorphism_by_backtracking,
    h_candidates_by_scan,
    json_digest,
    pair_tuples,
    random_element,
    realization_bound,
)


@pytest.fixture(scope="module")
def a4_realized():
    return realize_amalgam(amalgam_by_name("A4s"))


def test_candidate_stabilizers_a4(a4_realized):
    cands = candidate_stabilizers(a4_realized)
    assert len(cands) == 3
    for X in cands:
        assert X.order() == 2
        # each acts as a double transposition on the 4 cosets
        img = a4_realized.delta.action_of(X.gens[0])
        assert img.cycle_type() == (2, 2)
    reps = conjugacy_class_representatives(a4_realized.Hu, cands)
    assert len(reps) == 1


def test_trivial_subgroup_never_a_candidate(a4_realized):
    # the trivial subgroup fixes all four cosets: not two 2-orbits
    cands = candidate_stabilizers(a4_realized)
    assert all(X.order() > 1 for X in cands)


def test_core_free_filter(a4_realized):
    # every candidate is core-free by construction
    from hatlab.cosets import core

    for X in candidate_stabilizers(a4_realized):
        assert core(a4_realized.Hu, X).order() == 1


def test_a4_search_finds_two_results(a4_realized):
    out = maximal_half_arc_pairs(a4_realized)
    assert out.complete
    assert len(out.results) == 2
    for res in out.results:
        assert res.quadruple == ("S5", "F5", "A4", "C2")
        assert res.n == 6
        res.verify_invariants(full=True)


def test_a4_search_deterministic():
    out1 = search_amalgam("A4s")
    out2 = search_amalgam("A4s")
    key = lambda out: [(r.n, r.h.key(), r.m.key(), r.quadruple) for r in out.results]
    assert key(out1) == key(out2)


def test_verify_pair_result_builds_graph():
    out = search_amalgam("A4s")
    rep = verify_pair_result(out.results[0])
    assert rep["graphChecked"]
    assert rep["vertices"] == 10
    assert rep["valency"] == 4
    assert rep["H_sDegree"] == 2
    assert rep["M_halfArcTransitive"] is True
    assert rep["M_vertexStabilizerOrder"] == 2
    assert rep["arcOrbitEquivalence"] is True
    # the quotient graph is the complete bipartite minus a matching
    from hatlab.cosets import double_coset
    from hatlab.graphs import complete_bipartite_minus_matching, coset_graph

    res = out.results[0]
    D = double_coset(res.Hu_image, res.h, res.Hu_image)
    graph, _ = coset_graph(res.H, res.Hu_image, D)
    kbm = complete_bipartite_minus_matching(5)
    assert graph_isomorphism_by_backtracking(10, graph.edges, kbm.edges) is not None


def test_deep_gate():
    out = search_amalgam("S3xS4", deep=False)
    assert not out.complete
    assert out.results == []


def test_s4_amalgam_is_empty():
    out = search_amalgam("S4")
    assert out.complete
    assert out.results == []


_TAMPERED_UNDER_O = """
import dataclasses
from hatlab.pairsearch import search_amalgam
from hatlab.perm import Permutation

if __debug__:
    raise SystemExit("not running under -O")
res = search_amalgam("A4s").results[0]
res.verify_invariants(full=False)
bad = dataclasses.replace(res, m=Permutation.from_cycles(res.n, [(0, 1)]))
try:
    bad.verify_invariants(full=False)
except AssertionError as exc:
    print("raised:", exc)
else:
    print("accepted")
"""


def test_verify_invariants_survives_python_O():
    src = str(Path(hatlab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _TAMPERED_UNDER_O],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "raised: m does not stabilize coset 0"


@pytest.mark.parametrize("seed", range(3))
def test_reverser_filter_matches_a_row_loop(seed):
    """The h filter against a plain loop over the object-level realizations
    of N_Sym(n)(B), on seeded L of degree 6-12 and B <= L: membership by
    keys, squares and orders by public products.  The rows include members
    of L and h with h^2 in L of an order that is no power of two."""
    rng = random.Random(1600 + seed)
    cases = hits = members = odd = 0
    while cases < 4:
        n = rng.randrange(6, 13)
        gens = []
        for _ in range(2):
            moved = rng.sample(range(n), rng.randrange(2, n + 1))
            imgs = list(range(n))
            for a, b in zip(moved, rng.sample(moved, len(moved))):
                imgs[a] = b
            gens.append(Permutation(imgs))
        L = PermutationGroup(gens, n)
        if not 4 <= L.order() <= 2000:
            continue
        B = L.subgroup([random_element(L, rng)])
        data = SymNormalizerData(B)
        if B.order() == 1 or sum(realization_bound(data, a) for a in data.automorphisms()) > 20000:
            continue
        rows = [r for alpha in data.automorphisms()
                for r in dfs_realizations(data.table.elems, alpha, n)]
        L_keys = set(L.element_set())
        want = []
        for row in rows:
            h = Permutation(row)
            if h.key() in L_keys:
                members += 1
            elif (h * h).key() in L_keys:
                if h.order() & (h.order() - 1) == 0:
                    want.append(h)
                else:
                    odd += 1
        hs = reverser_candidates(L.element_set(), B)
        assert hs == sorted(want, key=lambda h: h.images.tolist())
        hits += len(hs)
        cases += 1
    assert hits > 0 and members > 0 and odd > 0


@pytest.mark.parametrize("seed", range(3))
def test_reverser_candidates_match_scan(seed):
    """The h list of the pair search against a scan of Sym(n), on seeded
    L <= Sym(n) and cyclic B <= L, n <= 7; among the cases are h in
    N_Sym(n)(B) outside L, of 2-power order, whose square leaves L."""
    rng = random.Random(900 + seed)
    sym_elems = {}
    cases = hits = square_cuts = 0
    while cases < 4:
        n = rng.randrange(4, 8)
        k = rng.choice([1, 2])
        L = PermutationGroup([Permutation(rng.sample(range(n), n)) for _ in range(k)], n)
        if not 2 <= L.order() < 120:
            continue
        B = L.subgroup([random_element(L, rng)])
        if B.order() == 1:
            continue
        if n not in sym_elems:
            sym_elems[n] = [Permutation(p) for p in itertools.permutations(range(n))]
        L_elems, B_elems = list(L.elements()), list(B.elements())
        hs = reverser_candidates(L.element_set(), B)
        oracle = h_candidates_by_scan(L_elems, B_elems, n)
        assert hs == oracle
        normalizing = element_scan_normalizer(sym_elems[n], B_elems)
        L_keys = set(L.element_set())
        square_cuts += sum(
            1 for p in normalizing
            if p.key() not in L_keys and (p * p).key() not in L_keys
            and p.order() & (p.order() - 1) == 0
        )
        hits += len(hs)
        cases += 1
    assert hits > 0 and square_cuts > 0


def test_h_tried_counts_only_the_cosets_tried(a4_realized, monkeypatch):
    """A budget that runs out at the k-th coset check of the h loop leaves
    hTried at the h count of the first k-1 cosets."""
    full = maximal_half_arc_pairs(a4_realized)
    assert full.complete and full.stats["hTried"] == 15
    clock = {}

    def now():
        if clock["stepping"]:
            clock["t"] += 1.0
        return clock["t"]

    def note(kind, info):
        if kind == "hList":
            clock["stepping"] = True  # one step per coset check from here

    monkeypatch.setattr(pairsearch.time, "time", now)
    tried = []
    for k in range(1, 9):
        clock.update(t=0.0, stepping=False)
        out = maximal_half_arc_pairs(a4_realized, time_budget=k - 0.5, progress=note)
        assert out.complete == (k == 8)
        tried.append(out.stats["hTried"])
    assert tried[0] == 0
    assert all(a < b for a, b in zip(tried, tried[1:]))
    assert tried[-1] == 15


_BUDGETED_7AT = """
import time
from hatlab.fpgroups import amalgam_by_name
from hatlab.pairsearch import maximal_half_arc_pairs, realize_amalgam

realized = realize_amalgam(amalgam_by_name("7-AT"))
t0 = time.time()
out = maximal_half_arc_pairs(realized, deep=True, time_budget=2.0)
print(out.complete, len(out.results), out.stats["candidates"], time.time() - t0)
"""


def test_time_budget_covers_the_candidate_enumeration():
    """7-AT enumerates the small subgroups of its regular representation on
    11,664 points for many minutes before its first candidate; a budget of
    two seconds must end the search there, flagged incomplete.  The search
    runs in a child process, killed after 90 s, so a search that ignores the
    budget fails the test instead of hanging it."""
    src = str(Path(hatlab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", _BUDGETED_7AT], capture_output=True, text=True, env=env, timeout=90
    )
    assert proc.returncode == 0, proc.stderr
    complete, results, candidates, seconds = proc.stdout.split()
    assert (complete, results, candidates) == ("False", "0", "0")
    assert float(seconds) < 10


@pytest.mark.parametrize("seed", range(3))
def test_arc_test_matches_the_double_coset(seed):
    """_reverses_an_arc(m, X) is m^-1 in XmX, on seeded X <= G <= Sym(n),
    4 <= n <= 7, and m in G; both answers occur."""
    rng = random.Random(2000 + seed)
    answers = []
    while len(answers) < 100:
        n = rng.randrange(4, 8)
        G = PermutationGroup([Permutation(rng.sample(range(n), n)) for _ in range(2)], n)
        X = G.subgroup([random_element(G, rng) for _ in range(rng.choice([1, 2]))])
        if X.order() > 48:
            continue
        m = random_element(G, rng)
        want = m.inverse().key() in double_coset(X, m, X)
        assert _reverses_an_arc(m, X.element_set()) == want
        answers.append(want)
    assert any(answers) and not all(answers)


def test_arc_test_finds_a_reversal_off_a_right_coset_transversal():
    """A case of the seeded draw above where m^-1 lies in XmX, but m*t*m
    leaves X for the first element t of every right coset of X meet X^m,
    the transversal an earlier arc test scanned."""
    X = PermutationGroup([Permutation.parse("(0 3 2)", 5), Permutation.parse("(1 2 3)", 5)])
    m = Permutation.parse("(0 3 4 1 2)", 5)
    assert X.order() == 12
    assert m.inverse().key() in double_coset(X, m, X)
    assert _reverses_an_arc(m, X.element_set())


def _fusion_by_conjugation(Hu, candidates):
    """Class representatives: the first candidate of each class, the class
    found by conjugating it by every element of Hu."""
    keys = [frozenset(X.element_set()) for X in candidates]
    reps, seen = [], set()
    for i, X in enumerate(candidates):
        if i in seen:
            continue
        reps.append(i)
        for g in Hu.elements():
            seen.add(keys.index(frozenset(p.conj(g).key() for p in X.element_set().values())))
    return reps


@pytest.mark.parametrize("name", ["A4s", "S4", "Z3xA4", "Z3sS4", "S3xS4"])
def test_class_fusion_matches_brute_force_conjugation(name):
    realized = realize_amalgam(amalgam_by_name(name))
    cands = candidate_stabilizers(realized)
    reps = conjugacy_class_representatives(realized.Hu, cands)
    assert [cands.index(X) for X in reps] == _fusion_by_conjugation(realized.Hu, cands)


# sha256 of the canonical JSON of the five default searches: per amalgam
# the complete flag, the stats without seconds, and every tuple's n, h, m,
# generators of H and M, orders and quadruple
DEFAULT_SEARCHES_DIGEST = "471b7c01b4e3cc1782bd996dbdc99b11e35ca617817e18750a3f71fc9e8d6d6d"


def test_default_searches_match_their_digest():
    payload = {}
    for name in ("A4s", "S4", "Z3xA4", "Z3sS4", "4-AT"):
        out = search_amalgam(name)
        stats = {k: v for k, v in out.stats.items() if k != "seconds"}
        payload[name] = {"complete": out.complete, "results": pair_tuples(out.results), "stats": stats}
    assert json_digest(payload) == DEFAULT_SEARCHES_DIGEST
