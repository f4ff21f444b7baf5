import random

import pytest

from hatlab.cosets import CosetSpace, double_coset
from hatlab.graphs import (
    Digraph,
    Graph,
    VertexAction,
    cayley_graph,
    complete_bipartite_minus_matching,
    coset_graph,
    cycle_graph,
    quotient_graph,
)
from hatlab.group import PermutationGroup, read_group_file
from hatlab.perm import Permutation

from oracles import random_element


def g(s, n=None):
    return Permutation.parse(s, n)


def test_graph_invariants():
    G = Graph(4, [(0, 1), (1, 2), (1, 0)])
    assert G.m == 2
    assert G.adj[1] == (0, 2)
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(2, [(0, 5)])


def test_graph_text_roundtrip():
    G = cycle_graph(5)
    assert Graph.from_text(G.to_text()).edges == G.edges


def test_text_readers_reject_missing_lines():
    # the header claims 3 edges and only 2 follow
    with pytest.raises(ValueError):
        Graph.from_text("4 3\n0 1\n1 2\n")
    with pytest.raises(ValueError):
        Graph.from_text("4\n0 1\n")
    assert Graph.from_text("4 2\n0 1\n1 2\n").n == 4


def test_text_readers_reject_negative_sizes():
    for text in ("-1 0\n", "3 -1\n", "-2 -2\n"):
        with pytest.raises(ValueError, match="negative"):
            Graph.from_text(text)
        with pytest.raises(ValueError, match="negative"):
            read_group_file(text)
    assert Graph.from_text("0 0\n").n == 0
    assert read_group_file("3 0\n").order() == 1


def test_text_readers_reject_extra_lines():
    # the header claims 1 edge (1 generator) and more lines follow
    with pytest.raises(ValueError, match="'4 1'"):
        Graph.from_text("4 1\n0 1\n1 2\n2 3\n")
    with pytest.raises(ValueError, match="'3 1'"):
        read_group_file("3 1\n(0 1)\n(1 2)\n")
    assert Graph.from_text("4 3\n0 1\n1 2\n2 3\n").m == 3
    assert read_group_file("3 2\n(0 1)\n(1 2)\n").order() == 6


def test_digraph_rejects_arcs_out_of_range():
    for arc in ((-1, 0), (0, 5), (3, 0), (0, -3)):
        with pytest.raises(ValueError, match="out of range"):
            Digraph(3, [arc])
    with pytest.raises(ValueError, match="negative"):
        Digraph(-1, [])
    D = Digraph(3, [(2, 0), (0, 1), (2, 0)])
    assert D.out == [(1,), (), (0,)] and D.into == [(2,), (0,), ()]


def test_graph_rejects_negative_vertex_count():
    with pytest.raises(ValueError, match="negative"):
        Graph(-1, [])
    assert Graph(0, []).m == 0


def test_cycle_graph():
    C3 = cycle_graph(3)
    assert C3.n == 3 and C3.m == 3
    with pytest.raises(ValueError):
        cycle_graph(2)


def test_kbm_graph():
    G = complete_bipartite_minus_matching(5)
    assert G.n == 10
    assert G.valency() == 4
    assert all(u < 5 <= v for u, v in G.edges)  # bipartite: sides 0-4 and 5-9
    assert G.is_connected()
    # K_{2,2} - 2K_2: two disjoint edges, disconnected but allowed
    H = complete_bipartite_minus_matching(2)
    assert H.m == 2
    assert not H.is_connected()


def test_vertex_action_rejects_non_automorphism():
    P = Graph(4, [(0, 1), (1, 2), (2, 3)])
    bad = PermutationGroup([g("(0 2)", 4)])
    with pytest.raises(ValueError):
        VertexAction(bad, P)


def test_coset_graph_cycle():
    G = PermutationGroup([g("(0 1 2 3 4)")])
    H = G.subgroup([])
    gen = G.gens[0]
    graph, action = coset_graph(G, H, [gen, gen.inverse()])
    assert graph.n == 5
    assert graph.valency() == 2
    assert graph.is_connected()


def test_coset_graph_validation():
    G = PermutationGroup([g("(0 1 2 3 4)")])
    H = G.subgroup([])
    gen = G.gens[0]
    with pytest.raises(ValueError):
        coset_graph(G, H, [gen])  # not inverse-closed
    with pytest.raises(ValueError):
        # D inside H: loops
        coset_graph(G, G.subgroup([gen]), [gen, gen.inverse()])


def test_coset_graph_disconnected_errors():
    G = PermutationGroup([g("(0 1)", 4), g("(2 3)", 4)])
    H = G.subgroup([])
    d = g("(0 1)", 4)
    with pytest.raises(ValueError):
        coset_graph(G, H, [d, d.inverse()] if d != d.inverse() else [d])


@pytest.mark.parametrize("seed", range(3))
def test_coset_graph_matches_its_definition(seed):
    """On seeded H <= G <= Sym(4..7), |H| <= 48 and |G:H| <= 40, with D
    a union of random double cosets HxH (x outside H) and their inverses,
    the edges are the pairs Hx ~ Hy with y x^-1 in D over all pairs of
    coset representatives, and a D whose graph that definition leaves
    disconnected raises.  Both occur."""
    rng = random.Random(3000 + seed)
    connected = disconnected = 0
    while connected < 15 or disconnected < 3:
        n = rng.randrange(4, 8)
        G = PermutationGroup([Permutation(rng.sample(range(n), n)) for _ in range(2)], n)
        H = G.subgroup([random_element(G, rng) for _ in range(rng.choice([1, 2]))])
        if H.order() > 48 or not 2 <= G.order() // H.order() <= 40:
            continue
        D = {}
        for _ in range(rng.choice([1, 2, 3])):
            x = random_element(G, rng)
            if x not in H:
                D.update(double_coset(H, x, H))
                D.update(double_coset(H, x.inverse(), H))
        if not D:
            continue
        reps = CosetSpace(G, H).reps
        want = {
            (i, j)
            for i, x in enumerate(reps)
            for j, y in enumerate(reps)
            if i < j and (y * x.inverse()).key() in D
        }
        # the definition's graph is connected iff vertex 0 reaches every coset
        reach = {0}
        while True:
            nxt = reach | {v for u, v in want if u in reach} | {u for u, v in want if v in reach}
            if nxt == reach:
                break
            reach = nxt
        if len(reach) < len(reps):
            with pytest.raises(ValueError, match="disconnected"):
                coset_graph(G, H, D)
            disconnected += 1
            continue
        graph, action = coset_graph(G, H, D)
        assert [r.key() for r in action.space.reps] == [r.key() for r in reps]
        assert set(graph.edges) == want
        connected += 1


def test_cayley_graph_c5():
    R = PermutationGroup([g("(0 1 2 3 4)")])
    s = R.gens[0]
    graph, action = cayley_graph(R, [s, s.inverse()])
    assert graph.n == 5 and graph.m == 5
    assert graph.valency() == 2
    assert graph.is_connected()


def test_cayley_graph_validation():
    R = PermutationGroup([g("(0 1 2 3 4)")])
    s = R.gens[0]
    with pytest.raises(ValueError):
        cayley_graph(R, [s])
    with pytest.raises(ValueError):
        cayley_graph(R, [Permutation.identity(5), s, s.inverse()])
    S3 = PermutationGroup([g("(0 1 2)"), g("(0 1)", 3)])
    with pytest.raises(ValueError):
        cayley_graph(S3, [g("(0 1)", 3)])


def test_cayley_graph_rejects_connection_elements_outside_r():
    """(0 1)(2 3)(4 5) is not in the rotation group of the hexagon; the
    graph it would give, the 6-cycle, is Cay(C6, {1, -1}), not Cay(R, S)."""
    R = PermutationGroup([g("(0 1 2 3 4 5)")])
    with pytest.raises(ValueError, match="not in R"):
        cayley_graph(R, [g("(0 1)(2 3)(4 5)")])


def test_coset_graph_rejects_d_outside_g():
    G = PermutationGroup([g("(0 1 2 3)", 5)])
    d = g("(3 4)")
    with pytest.raises(ValueError, match="not in G"):
        coset_graph(G, G.subgroup([]), [d])


def test_cayley_equals_coset_graph_with_trivial_subgroup():
    # Lemma-style correspondence under the canonical vertex bijection
    R = PermutationGroup([g("(0 1 2 3 4 5)")])
    s = R.gens[0]
    S = [s, s.inverse()]
    cay, _ = cayley_graph(R, S)
    cos, cos_action = coset_graph(R, R.subgroup([]), S)
    # canonical bijection: coset rep r (an element of R) <-> vertex base^r
    space = cos_action.space
    bij = [int(r.images[0]) for r in space.reps]
    mapped = {tuple(sorted((bij[u], bij[v]))) for u, v in cos.edges}
    assert mapped == set(cay.edges)


def test_quotient_graph_trivial_subgroup_is_identity_cover():
    C6 = cycle_graph(6)
    R = PermutationGroup([g("(0 1 2 3 4 5)")])
    act = VertexAction(R, C6)
    res = quotient_graph(act, R.subgroup([]))
    assert res.quotient.n == 6
    assert res.is_cover
    assert not res.degenerate


def test_quotient_graph_cycle_collapse():
    C6 = cycle_graph(6)
    R = PermutationGroup([g("(0 1 2 3 4 5)")])
    act = VertexAction(R, C6)
    N = R.subgroup([g("(0 2 4)(1 3 5)")])
    res = quotient_graph(act, N)
    assert res.orbit_count == 2
    assert res.quotient.n == 2
    assert res.quotient.m == 1
    assert not res.is_cover  # valency dropped from 2 to 1


def test_quotient_graph_degenerate():
    C4 = cycle_graph(4)
    R = PermutationGroup([g("(0 1 2 3)")])
    act = VertexAction(R, C4)
    res = quotient_graph(act, R)
    assert res.degenerate
    assert res.quotient.n == 1


def test_quotient_valency_bound():
    # quotient valency never exceeds the base valency
    G = complete_bipartite_minus_matching(3)
    auts = PermutationGroup([g("(0 1)(3 4)", 6), g("(0 1 2)(3 4 5)", 6)])
    act = VertexAction(auts, G)
    N = auts.subgroup([g("(0 1 2)(3 4 5)", 6)])
    res = quotient_graph(act, N)
    if not res.degenerate and res.quotient.is_regular() and res.quotient.n > 1:
        assert res.quotient.valency() <= G.valency()
