import random

import pytest

from hatlab import graphauto
from hatlab.graphauto import automorphism_group, automorphism_stabilizer
from hatlab.graphs import Graph, complete_bipartite_minus_matching, cycle_graph
from hatlab.group import PermutationGroup
from hatlab.perm import Permutation

from oracles import (
    brute_force_graph_aut_order,
    edge_map_is_automorphism,
    graph_isomorphism_by_backtracking,
    is_equitable,
)
from test_symmetry import hat_circulant


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


def random_regular(rng, n, d):
    """A simple d-regular graph on n vertices from the pairing model."""
    while True:
        pts = [v for v in range(n) for _ in range(d)]
        rng.shuffle(pts)
        edges = {(min(a, b), max(a, b)) for a, b in zip(pts[::2], pts[1::2]) if a != b}
        if len(edges) == n * d // 2:
            return Graph(n, sorted(edges))


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
    assert all(edge_map_is_automorphism(G, p) for p in A.gens)


def test_isomorphism_oracle_on_six_vertices():
    rng = random.Random(11)
    c6 = cycle_graph(6)
    tri2 = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    # K_{3,3} minus a perfect matching is a 6-cycle; two triangles are not
    kbm, _ = random_relabel(rng, complete_bipartite_minus_matching(3))
    mapping = graph_isomorphism_by_backtracking(6, c6.edges, kbm.edges)
    assert Graph(6, [(mapping[u], mapping[v]) for u, v in c6.edges]).edges == kbm.edges
    assert graph_isomorphism_by_backtracking(6, c6.edges, tri2.edges) is None


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


def test_transitive_seed_rejects_non_automorphism():
    """A transitive seed generator that breaks an edge raises instead of
    joining the result: (0 1 3 2 4) takes the edge {0, 1} of the 5-cycle
    to {1, 3}."""
    seed = PermutationGroup([Permutation.parse("(0 1 3 2 4)", 5)])
    with pytest.raises(ValueError, match="not an automorphism"):
        automorphism_group(cycle_graph(5), transitive_seed=seed)


def test_automorphism_group_checks_each_generator_once(monkeypatch):
    calls = []
    check = Graph.is_automorphism
    monkeypatch.setattr(Graph, "is_automorphism", lambda self, p: calls.append(p) or check(self, p))
    A = automorphism_group(complete_bipartite_minus_matching(5))
    assert A.order() == 240
    assert len(calls) == len(A.gens) == 11


def test_search_expands_only_the_first_path_track(monkeypatch):
    # a leaf yields an automorphism only if its path invariants equal the
    # first leaf's, so every node expanded (a parent of a visited node, or
    # a leaf) lies on the first path's track
    parents, leaves = [], []
    descend, leaf = graphauto._Search._descend, graphauto._Search._leaf

    def counted_descend(self, part, prefix, inv_path):
        parents.append(inv_path)
        return descend(self, part, prefix, inv_path)

    def counted_leaf(self, part, inv_path):
        leaves.append(inv_path)
        return leaf(self, part, inv_path)

    monkeypatch.setattr(graphauto._Search, "_descend", counted_descend)
    monkeypatch.setattr(graphauto._Search, "_leaf", counted_leaf)
    rng = random.Random(8)
    graphs = [random_regular(rng, n, rng.choice((3, 4))) for n in (8, 8, 8, 8)]
    graphs += [random_regular(rng, 2 * rng.randrange(6, 21), rng.choice((3, 4)))
               for _ in range(12)]
    small = random_regular(random.Random(1), 10, 3)
    graphs += [small, random_regular(random.Random(150), 12, 3)]
    graphs += [hat_circulant(n, k)[0] for n, k in ((8, 3), (12, 5), (15, 4))]
    for G in graphs:
        parents.clear()
        leaves.clear()
        search = graphauto._Search(G, graphauto._initial_partition(G)).run()
        first = search.first_leaf[0]
        assert all(path == first[: len(path)] for path in parents)
        assert leaves and all(path == first for path in leaves)
        assert all(edge_map_is_automorphism(G, p) for p in search.auts)
        if G.n == 8:
            expected = brute_force_graph_aut_order(8, set(G.edges))
            assert PermutationGroup(search.auts, 8).order() == expected
    search = graphauto._Search(small, graphauto._initial_partition(small)).run()
    assert search.nodes == 8
    assert automorphism_group(small).order() == 2


def _cells(part):
    return [part.lab[s : part.end[s]].tolist() for s in part.end.nonzero()[0]]


def test_initial_partition_is_equitable():
    rng = random.Random(41)
    graphs = [random_graph(rng, rng.randrange(1, 25), rng.choice((0.1, 0.2, 0.4)))
              for _ in range(40)]
    graphs += [random_regular(rng, 2 * rng.randrange(6, 16), 3) for _ in range(10)]
    graphs += [hat_circulant(12, 5)[0], complete_bipartite_minus_matching(4)]
    for G in graphs:
        assert is_equitable(G.n, G.edges, _cells(graphauto._initial_partition(G)))
        v = rng.randrange(G.n)
        cells = _cells(graphauto._initial_partition(G, v))
        assert cells[0] == [v]
        assert is_equitable(G.n, G.edges, cells)


def test_automorphism_generators_are_pinned():
    # the refinement order decides the search tree, hence these generators
    A = automorphism_group(complete_bipartite_minus_matching(5))
    assert [p.cycle_string() for p in A.gens] == [
        "(3 4)(8 9)", "(2 3)(7 8)", "(2 4 3)(7 9 8)", "(1 2)(6 7)", "(1 3 2)(6 8 7)",
        "(1 4 3 2)(6 9 8 7)", "(0 1)(5 6)", "(0 2 1)(5 7 6)", "(0 3 2 1)(5 8 7 6)",
        "(0 4 3 2 1)(5 9 8 7 6)", "(0 5)(1 6)(2 7)(3 8)(4 9)",
    ]
    A = automorphism_group(random_regular(random.Random(150), 12, 3))
    assert [p.cycle_string() for p in A.gens] == [
        "(1 7)(2 4)(3 10)(5 6)(8 9)", "(0 11)(1 8)(2 10)(3 4)(7 9)",
    ]
