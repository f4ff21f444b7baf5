"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criterion 2's seventh amalgam (the largest catalog entry) is skipped here by
the explicit HATLAB_RUN_7AT opt-in, as its search space only fits a deep
multi-hour budget.
"""

import hashlib
import os
import random
import time
from itertools import permutations as iter_permutations

from hatlab import examples
from hatlab.examples import run_example_41, run_example_42, run_example_43, run_example_44
from hatlab.pairsearch import search_amalgam

from oracles import json_digest, pair_tuples

QUAD_SMALL = ("S5", "F5", "A4", "C2")
QUAD_BIG = ("A72", "A71", "S3*S4", "C2")
# sha256 of the canonical JSON of the 576 deep S3xS4 tuples (oracles.pair_tuples)
DEEP_TUPLES_DIGEST = "45eaaa41af40c7ae2209815d80dc11a591a78f2972e4ef517f7ef4df6d484e1e"
# sha256 of graph.to_text() for the coset graph of example 4.1 and the
# Cayley graph of example 4.4
EX41_COSET_GRAPH_DIGEST = "5ab5f86600e0f83491be91532c0228ab2ffbdb908d2e35366a12694d6e3e55f7"
EX44_CAYLEY_GRAPH_DIGEST = "dc11120b86804f647d7375e385ae7aeac33402c6872a411f41efc554d1f80424"


def _graph_digests(monkeypatch, name):
    """Wrap ``examples.<name>`` so that it records the sha256 of the text of
    each graph it builds; returns the list it records into."""
    digests = []
    build = getattr(examples, name)

    def recording(*args, **kwargs):
        graph, action = build(*args, **kwargs)
        digests.append(hashlib.sha256(graph.to_text().encode()).hexdigest())
        return graph, action

    monkeypatch.setattr(examples, name, recording)
    return digests


def _line(num, ok, detail):
    print("[%s] criterion %d: %s" % ("PASS" if ok else "FAIL", num, detail))
    assert ok, "criterion %d failed: %s" % (num, detail)


def test_criterion_1_small_amalgam_search():
    t0 = time.time()
    out = search_amalgam("A4s")
    elapsed = time.time() - t0
    ok = (
        out.complete
        and len(out.results) == 2
        and all(r.quadruple == QUAD_SMALL for r in out.results)
        and elapsed < 60
    )
    _line(1, ok, "A4s -> %d results %s in %.1fs" % (len(out.results), QUAD_SMALL, elapsed))


def test_criterion_2_empty_amalgams():
    t0 = time.time()
    counts = {}
    for name in ("S4", "Z3xA4", "Z3sS4", "4-AT"):
        out = search_amalgam(name)
        counts[name] = (len(out.results), out.complete)
    elapsed = time.time() - t0
    ok = all(c == (0, True) for c in counts.values()) and elapsed < 1800
    if os.environ.get("HATLAB_RUN_7AT"):
        out7 = search_amalgam("7-AT", deep=True, time_budget=7200)
        counts["7-AT"] = (len(out7.results), out7.complete)
        ok = ok and counts["7-AT"][0] == 0
    else:
        print("      criterion 2 note: 7-AT skipped (set HATLAB_RUN_7AT to include it)")
    _line(2, ok, "empty amalgams %s in %.1fs" % (counts, elapsed))


def test_criterion_3_deep_amalgam_search():
    t0 = time.time()
    out = search_amalgam("S3xS4", deep=True, time_budget=14000)
    elapsed = time.time() - t0
    at_least_one = len(out.results) >= 1 and all(
        r.quadruple == QUAD_BIG for r in out.results
    )
    exact = out.complete and len(out.results) == 576
    pinned = json_digest(pair_tuples(out.results)) == DEEP_TUPLES_DIGEST
    ok = at_least_one and elapsed < 14400
    detail = "S3xS4 deep -> %d results (complete=%s) in %.1fs%s%s" % (
        len(out.results),
        out.complete,
        elapsed,
        "" if exact else " [stretch count not reached]",
        "" if pinned else " [tuples differ from their digest]",
    )
    _line(3, ok and exact and pinned, detail)


def test_criterion_4_example_43():
    rep = run_example_43()
    facts = {f.name: f for f in rep.facts}
    ok = (
        rep.passed
        and facts["autOrder"].computed == 240
        and facts["H_sDegree"].computed == 2
        and facts["H_localOrder"].computed == 12
        and facts["M_order"].computed == 20
        and facts["M_halfArcTransitive"].computed == "1/2"
        and facts["M_vertexStabilizerOrder"].computed == 2
        and facts["theoremCase"].computed == "b"
        and rep.seconds < 60
    )
    _line(4, ok, "example 4.3 report in %.1fs (failing: %s)" % (rep.seconds, rep.failing()))


def test_criterion_5_example_41(monkeypatch):
    digests = _graph_digests(monkeypatch, "coset_graph")
    rep = run_example_41()
    facts = {f.name: f for f in rep.facts}
    ok = (
        rep.passed
        and facts["wreathOrder"].computed == 225792
        and facts["autOrder"].computed == 225792
        and facts["attachment"].computed == 1
        and facts["altAutOrder"].computed == 3528
        and facts["altVertexTransitive"].computed is True
        and facts["altEdgeTransitive"].computed is True
        and facts["altArcOrbits"].computed == 2
        and rep.seconds < 1800
    )
    pinned = digests == [EX41_COSET_GRAPH_DIGEST]
    detail = "example 4.1 report in %.1fs (failing: %s)%s" % (
        rep.seconds, rep.failing(), "" if pinned else " [coset graph differs from its digest]"
    )
    _line(5, ok and pinned, detail)


def test_criterion_6_example_44(monkeypatch):
    digests = _graph_digests(monkeypatch, "cayley_graph")
    rep = run_example_44()
    facts = {f.name: f for f in rep.facts}
    ok = (
        rep.passed
        and facts["cosetCount"].computed == 6561
        and facts["autOrder"].computed == 52488
        and facts["localOrder"].computed == 8
        and facts["localType"].computed == "D8"
        and facts["normalizerOrder"].computed == 13122
        and facts["normalizerMaximal"].computed is True
        and facts["coreIndexInRegular"].computed == 3
        and facts["quotientIsC3"].computed is True
        and facts["theoremCase"].computed == "c2"
        and rep.seconds < 7200
    )
    pinned = digests == [EX44_CAYLEY_GRAPH_DIGEST]
    detail = "example 4.4 report in %.1fs (failing: %s)%s" % (
        rep.seconds, rep.failing(), "" if pinned else " [Cayley graph differs from its digest]"
    )
    _line(6, ok and pinned, detail)


def test_criterion_7_example_42():
    import math

    rep = run_example_42()
    facts = {f.name: f for f in rep.facts}
    ok = (
        rep.passed
        and facts["x_squared_is_t"].computed is True
        and facts["x_normalizes_Z"].computed is True
        and facts["YmeetYx_isZ"].computed is True
        and facts["YxY_equals_YS"].computed is True
        and facts["X_isAlt72"].computed == str(math.factorial(72) // 2)
        and facts["S_generates_Alt71"].computed == str(math.factorial(71) // 2)
        and facts["S_shape"].computed is True
        and rep.seconds < 600
    )
    _line(7, ok, "example 4.2 verification in %.1fs (failing: %s)" % (rep.seconds, rep.failing()))


# -- criterion 8: the property suites -----------------------------------------


def _suite_chain_vs_closure(rng):
    from hatlab.group import PermutationGroup, ResourceExhausted, closure_elements
    from hatlab.perm import Permutation

    done = 0
    while done < 200:
        n = rng.randrange(4, 10)
        gens = []
        for _ in range(2):
            imgs = list(range(n))
            rng.shuffle(imgs)
            gens.append(Permutation(imgs))
        try:
            closure = closure_elements(gens, n, limit=10**4)
        except ResourceExhausted:
            continue
        G = PermutationGroup(gens, n)
        assert G.order() == len(closure)
        done += 1
    return done


def _suite_aut_brute_force(rng):
    from hatlab.graphauto import automorphism_group
    from hatlab.graphs import Graph

    done = 0
    while done < 500:
        n = rng.randrange(1, 9)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < rng.choice([0.2, 0.4, 0.6])
        ]
        graph = Graph(n, edges)
        edge_set = set(graph.edges)
        count = 0
        for imgs in iter_permutations(range(n)):
            ok = True
            for u, v in edge_set:
                a, b = imgs[u], imgs[v]
                if (a, b) not in edge_set and (b, a) not in edge_set:
                    ok = False
                    break
            if ok:
                count += 1
        assert automorphism_group(graph).order() == count
        done += 1
    return done


def _hat_corpus():
    import sys

    sys.path.insert(0, os.path.dirname(__file__))
    from test_symmetry import hat_circulant

    for n in range(8, 40):
        for k in range(2, n - 1):
            if (k * k) % n == 1:
                yield (n, k), hat_circulant(n, k)


def _suite_alternating_constancy():
    from hatlab.altcycles import alternating_cycle_system, hat_orientation
    from hatlab.symmetry import transitivity_report

    checked = 0
    for (n, k), (graph, act) in _hat_corpus():
        rep = transitivity_report(act)
        if not rep.half_arc_transitive:
            continue
        system = alternating_cycle_system(hat_orientation(act))
        # constancy is asserted inside; re-assert the headline identities
        assert len({len(c) for c in system.cycles}) == 1
        assert sum(len(c) for c in system.cycles) == 2 * graph.n
        checked += 1
    assert checked >= 15
    return checked


def _suite_coset_vs_cayley(rng):
    from hatlab.graphs import cayley_graph, coset_graph
    from hatlab.group import PermutationGroup, ResourceExhausted, closure_elements
    from hatlab.perm import Permutation

    done = 0
    while done < 100:
        n = rng.randrange(3, 8)
        gens = []
        for _ in range(2):
            imgs = list(range(n))
            rng.shuffle(imgs)
            gens.append(Permutation(imgs))
        try:
            closure = closure_elements(gens, n, limit=1000)
        except ResourceExhausted:
            continue
        order = len(closure)
        if order < 3:
            continue
        elems = [p for _, p in sorted(closure.items())]
        index_of = {p.key(): i for i, p in enumerate(elems)}
        reg_gens = []
        for g in elems[:: max(1, order // 5)] + list(gens):
            if g.is_identity():
                continue
            reg = Permutation([index_of[(e * g).key()] for e in elems])
            reg_gens.append(reg)
        R = PermutationGroup(reg_gens, order)
        if not R.transitivity_profile()["regular"]:
            continue
        # random inverse-closed connection set
        pool = [p for p in elems if not p.is_identity()]
        rng.shuffle(pool)
        S_elems = {}
        for p in pool[: rng.randrange(1, 4)]:
            S_elems[p.key()] = p
            S_elems[p.inverse().key()] = p.inverse()
        S_reg = [
            Permutation([index_of[(e * s).key()] for e in elems])
            for s in S_elems.values()
        ]
        identity_index = index_of[Permutation.identity(n).key()]
        cay, _ = cayley_graph(R, S_reg, base_point=identity_index)
        cos, cos_action = coset_graph(R, R.subgroup([]), S_reg) if cay.is_connected() else (None, None)
        if cos is None:
            continue
        space = cos_action.space
        bij = [int(r.images[identity_index]) for r in space.reps]
        mapped = {tuple(sorted((bij[u], bij[v]))) for u, v in cos.edges}
        assert mapped == set(cay.edges)
        done += 1
    return done


def _suite_normal_local_action():
    from hatlab.group import PermutationGroup
    from hatlab.perm import Permutation
    from hatlab.symmetry import normal_local_action_checks

    import sys

    sys.path.insert(0, os.path.dirname(__file__))
    from test_symmetry import hat_circulant

    checked = 0
    for n, k in ((8, 3), (12, 5), (16, 7), (20, 9), (24, 11), (24, 5), (21, 8)):
        if (k * k) % n != 1:
            continue
        graph, act = hat_circulant(n, k)
        M = act.group
        neg = Permutation([(-v) % n for v in range(n)])
        H = PermutationGroup(list(M.gens) + [neg])
        if H.order() != 2 * M.order():
            continue
        data = normal_local_action_checks(graph, M, H, 0)
        assert data["index"] == 2
        checked += 1
    assert checked >= 5
    return checked


def test_criterion_8_property_suites():
    t0 = time.time()
    rng = random.Random(20260808)
    n1 = _suite_chain_vs_closure(rng)
    n2 = _suite_aut_brute_force(rng)
    n3 = _suite_alternating_constancy()
    n4 = _suite_coset_vs_cayley(rng)
    n5 = _suite_normal_local_action()
    elapsed = time.time() - t0
    ok = (
        n1 == 200 and n2 == 500 and n3 >= 15 and n4 == 100 and n5 >= 5 and elapsed < 1800
    )
    _line(
        8,
        ok,
        "suites: chain=%d autBrute=%d altConstancy=%d cosetCayley=%d lemmaIdx=%d in %.1fs"
        % (n1, n2, n3, n4, n5, elapsed),
    )
