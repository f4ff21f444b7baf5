import random

import pytest

from hatlab.graphauto import (
    automorphism_group,
    automorphism_stabilizer,
    canonical_labeling,
    is_isomorphic,
)
from hatlab.graphs import Graph, complete_bipartite_minus_matching, cycle_graph
from hatlab.group import PermutationGroup
from hatlab.perm import Permutation

from oracles import brute_force_graph_aut_order


def random_graph(rng, n, p=0.4):
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph(n, edges)


def random_relabel(rng, graph):
    imgs = list(range(graph.n))
    rng.shuffle(imgs)
    perm = Permutation(imgs)
    return Graph(graph.n, [(perm(u), perm(v)) for u, v in graph.edges]), perm


def test_cycle_aut_orders():
    for n in (3, 4, 5, 6, 7):
        A = automorphism_group(cycle_graph(n))
        assert A.order() == 2 * n


def test_kbm_aut_order():
    # K_{5,5} minus a perfect matching: S5 x C2
    A = automorphism_group(complete_bipartite_minus_matching(5))
    assert A.order() == 240


def test_small_graph_brute_force_agreement():
    rng = random.Random(97)
    for _ in range(40):
        n = rng.randrange(1, 8)
        G = random_graph(rng, n)
        expected = brute_force_graph_aut_order(n, set(G.edges))
        assert automorphism_group(G).order() == expected


def test_generators_preserve_adjacency():
    G = complete_bipartite_minus_matching(4)
    A = automorphism_group(G)
    for p in A.gens:
        for u, v in G.edges:
            assert G.has_edge(p(u), p(v))


def test_canonical_form_invariant_under_relabeling():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randrange(2, 10)
        G = random_graph(rng, n)
        H, _ = random_relabel(rng, G)
        assert canonical_labeling(G)[1] == canonical_labeling(H)[1]


def test_canonical_form_distinguishes():
    # C6 vs two triangles: same degrees, different graphs
    c6 = cycle_graph(6)
    tri2 = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert canonical_labeling(c6)[1] != canonical_labeling(tri2)[1]


def test_is_isomorphic_roundtrip():
    rng = random.Random(11)
    for _ in range(15):
        n = rng.randrange(2, 10)
        G = random_graph(rng, n)
        H, perm = random_relabel(rng, G)
        mapping = is_isomorphic(G, H)
        assert mapping is not None
        for u, v in G.edges:
            assert H.has_edge(mapping[u], mapping[v])


def test_is_isomorphic_negative():
    k33 = Graph(6, [(i, 3 + j) for i in range(3) for j in range(3)])
    assert is_isomorphic(cycle_graph(6), k33) is None  # valency differs
    tri2 = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert is_isomorphic(cycle_graph(6), tri2) is None
    # K_{3,3} minus a perfect matching is a 6-cycle; that must be detected
    assert is_isomorphic(cycle_graph(6), complete_bipartite_minus_matching(3)) is not None


def test_stabilizer_search():
    G = cycle_graph(6)
    S = automorphism_stabilizer(G, 0)
    assert S.order() == 2
    assert all(p(0) == 0 for p in S.gens)


def test_vertex_transitive_shortcut():
    G = cycle_graph(8)
    R = PermutationGroup([Permutation.from_cycles(8, [tuple(range(8))])])
    A = automorphism_group(G, transitive_seed=R)
    assert A.order() == 16
    full = automorphism_group(G)
    assert full.order() == 16


def test_aut_order_multiple_of_known_subgroup():
    G = complete_bipartite_minus_matching(5)
    rot = Permutation.from_cycles(10, [tuple(range(5)), tuple(range(5, 10))])
    known = PermutationGroup([rot])
    A = automorphism_group(G)
    assert all(p in A for p in known.gens)
    assert A.order() % known.order() == 0
    assert A.order() == 240


def test_seed_rejects_non_automorphism():
    G = cycle_graph(5)
    with pytest.raises(ValueError):
        automorphism_stabilizer(G, 0, seed_gens=[Permutation.parse("(1 2)", 5)])


def test_equal_leaves_giving_a_non_automorphism_is_an_internal_error(monkeypatch):
    from hatlab import graphauto

    # a 12-cycle plus a seeded perfect matching: cubic, hence one initial
    # cell, and asymmetric, so two leaves with equal path invariants differ
    rng = random.Random(24)
    perm = list(range(12))
    rng.shuffle(perm)
    edges = [(i, (i + 1) % 12) for i in range(12)]
    edges += [(perm[2 * i], perm[2 * i + 1]) for i in range(6)]
    G = Graph(12, edges)
    assert G.is_regular() and automorphism_group(G).order() == 1
    monkeypatch.setattr(graphauto, "_certificate", lambda graph, labeling: b"")
    with pytest.raises(AssertionError, match="equal leaf certificates"):
        automorphism_group(G)
