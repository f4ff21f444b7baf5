import random

import pytest

from hatlab import symmetry
from hatlab.graphs import (
    VertexAction,
    complete_bipartite_minus_matching,
    cycle_graph,
)
from hatlab.graphauto import automorphism_group
from hatlab.group import PermutationGroup, ResourceExhausted
from hatlab.normalizers import normalizer
from hatlab.perm import Permutation
from hatlab.signatures import group_name
from hatlab.symmetry import (
    HALF,
    classify_theorem_case,
    local_action,
    normal_local_action_checks,
    transitivity_report,
)

from oracles import orbits_by_bfs


def g(s, n=None):
    return Permutation.parse(s, n)


def circulant(n, ks):
    return cycle_graph(n) if ks == (1,) else None


def circulant_graph(n, ks):
    from hatlab.graphs import Graph

    edges = []
    for k in ks:
        for v in range(n):
            edges.append((v, (v + k) % n))
    return Graph(n, [(min(u, v), max(u, v)) for u, v in edges])


def hat_circulant(n, k):
    """Cay(Z_n, {1,-1,k,-k}) with the HAT group <translation, mult-by-k>.

    Needs k*k = 1 mod n and k != +-1 mod n.
    """
    assert (k * k) % n == 1
    graph = circulant_graph(n, (1, k))
    t = Permutation([(v + 1) % n for v in range(n)])
    m = Permutation([(v * k) % n for v in range(n)])
    M = PermutationGroup([t, m])
    return graph, VertexAction(M, graph)


def test_arc_orbits_full_dihedral_on_c5():
    C5 = cycle_graph(5)
    A = automorphism_group(C5)
    assert len(VertexAction(A, C5).arc_orbits()) == 1


def test_arc_orbits_rotation_on_c4():
    C4 = cycle_graph(4)
    R = PermutationGroup([g("(0 1 2 3)")])
    orbits = VertexAction(R, C4).arc_orbits()
    assert len(orbits) == 2
    assert sum(len(o) for o in orbits) == 8


def test_transitivity_report_c5_rotation_vs_dihedral():
    C5 = cycle_graph(5)
    rot = VertexAction(PermutationGroup([g("(0 1 2 3 4)")]), C5)
    rep = transitivity_report(rot)
    assert rep.vertex_transitive and rep.edge_transitive
    assert rep.s_degree == HALF or rep.arc_transitive is False
    # rotation on an odd cycle has two arc orbits: formally a HAT report,
    # though cycles are 2-valent
    assert rep.arc_orbit_count == 2


def test_hat_circulant_is_half_arc_transitive():
    graph, act = hat_circulant(8, 3)
    rep = transitivity_report(act)
    assert rep.as_dict()["sDegree"] == "1/2"
    assert rep.half_arc_transitive
    loc = local_action(act, 0)
    assert loc.order == 2


def test_hat_invariant_under_conjugation():
    graph, act = hat_circulant(8, 3)
    A = automorphism_group(graph)
    h = next(p for p in A.elements() if not p.is_identity())
    Mc = PermutationGroup([x.conj(h) for x in act.group.gens])
    repc = transitivity_report(VertexAction(Mc, graph))
    assert repc.half_arc_transitive


def test_s_arc_transitive_tower_on_kbm():
    G = complete_bipartite_minus_matching(5)
    A = automorphism_group(G)
    act = VertexAction(A, G)
    rep = transitivity_report(act)
    assert rep.arc_transitive
    assert rep.s_degree == 2  # transitive on 1- and 2-arcs, not on 3-arcs


def test_s_arc_tower_is_climbed_once(monkeypatch):
    G = complete_bipartite_minus_matching(5)
    act = VertexAction(automorphism_group(G), G)
    # transitive on 0-, 1- and 2-arcs, not on 3- or 4-arcs
    s_degree = transitivity_report(act).s_degree
    assert [s <= s_degree for s in range(5)] == [True, True, True, False, False]
    calls = []
    original = PermutationGroup.point_stabilizer

    def counted(self, point):
        calls.append(point)
        return original(self, point)

    monkeypatch.setattr(PermutationGroup, "point_stabilizer", counted)
    assert transitivity_report(act).s_degree == 2
    # G_0, G_{0,a}, G_{0,a,b}: one level per arc vertex
    assert len(calls) == 3


def test_each_action_computes_its_arc_orbits_once(monkeypatch):
    from hatlab.altcycles import hat_orientation
    from hatlab.graphs import Graph

    graph, act_M = hat_circulant(8, 3)
    neg = Permutation([(-v) % 8 for v in range(8)])
    act_H = VertexAction(PermutationGroup(list(act_M.group.gens) + [neg]), graph)
    calls = []
    original = Graph.arcs

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(Graph, "arcs", counted)
    assert transitivity_report(act_M).half_arc_transitive
    assert classify_theorem_case(act_M, act_H, 0).label == "c-normal"
    hat_orientation(act_M)
    assert len(calls) == 2


def _arc_orbit_cases():
    """(graph, group): seeded small random and 3-regular graphs, a cycle and
    K_{4,4} minus a matching, each under its automorphism group and under
    the subgroup of two of its generators; then HAT circulants under M and
    under <M, x -> -x>."""
    from test_graphauto import random_graph, random_regular

    rng = random.Random(4400)
    graphs = [random_graph(rng, rng.randrange(2, 9)) for _ in range(12)]
    graphs += [random_regular(rng, 2 * rng.randrange(2, 6), 3) for _ in range(6)]
    graphs += [cycle_graph(6), complete_bipartite_minus_matching(4)]
    for graph in graphs:
        A = automorphism_group(graph)
        yield graph, A
        yield graph, PermutationGroup(A.gens[:2], graph.n)
    for n, k in ((8, 3), (12, 5), (16, 7), (24, 5), (24, 11)):
        graph, act = hat_circulant(n, k)
        neg = Permutation([(-v) % n for v in range(n)])
        yield graph, act.group
        yield graph, PermutationGroup(list(act.group.gens) + [neg])


def test_arc_and_edge_orbits_match_bfs_oracle():
    def image(p, pair):
        return (p(pair[0]), p(pair[1]))

    kinds = set()
    for graph, G in _arc_orbit_cases():
        act = VertexAction(G, graph)
        want = orbits_by_bfs(graph.arcs(), G.gens, image)
        got = act.arc_orbits()
        assert [set(o) for o in got] == [set(o) for o in want]
        assert [o[0] for o in got] == [o[0] for o in want]
        edges = orbits_by_bfs(graph.edges, G.gens, lambda p, e: tuple(sorted(image(p, e))))
        assert act.edge_orbit_count() == len(edges)
        kinds.add((len(want) == len(edges), len(edges) == 1))
    # orbits where an edge's arcs split and where they do not, edge-
    # transitive groups and others
    assert kinds == {(True, True), (True, False), (False, True), (False, False)}


def test_local_stabilizer_budget_raises(monkeypatch):
    graph, act = hat_circulant(16, 7)
    M = act.group
    H = PermutationGroup(list(M.gens) + [Permutation([(-v) % 16 for v in range(16)])])
    order = H.order() // 16  # |H_u|, H being transitive
    monkeypatch.setattr(symmetry, "LOCAL_STABILIZER_LIMIT", order - 1)
    with pytest.raises(ResourceExhausted):
        normal_local_action_checks(graph, M, H, 0)
    monkeypatch.setattr(symmetry, "LOCAL_STABILIZER_LIMIT", order)
    assert normal_local_action_checks(graph, M, H, 0)["index"] == 2


def test_classifier_rejects_actions_on_different_graphs():
    graph, act_M = hat_circulant(8, 3)
    other, _ = hat_circulant(8, 3)
    neg = Permutation([(-v) % 8 for v in range(8)])
    act_H = VertexAction(PermutationGroup(list(act_M.group.gens) + [neg]), other)
    with pytest.raises(ValueError, match="different graphs"):
        classify_theorem_case(act_M, act_H, 0)


def test_local_action_regular_group_is_trivial():
    graph, act = hat_circulant(8, 3)
    R = PermutationGroup([act.group.gens[0]])  # translations only: regular
    loc = local_action(VertexAction(R, graph), 0)
    assert loc.order == 1
    assert loc.kernel_order == 1


def test_example_43_classification():
    G = complete_bipartite_minus_matching(5)
    Aut = automorphism_group(G)
    assert Aut.order() == 240
    from hatlab.cosets import CosetSpace, derived_subgroup

    D = derived_subgroup(Aut)
    H = None
    for r in CosetSpace(Aut, D).reps[1:]:
        cand = Aut.subgroup(list(D.gens) + [r])
        if cand.order() != 120 or not cand.is_transitive():
            continue
        rep = transitivity_report(VertexAction(cand, G))
        if rep.s_degree == 2 and group_name(cand) == "S5":
            H = cand
    assert H is not None
    act_H = VertexAction(H, G)
    loc_H = local_action(act_H, 0)
    assert loc_H.order == 12 and group_name(loc_H.induced) == "A4"
    p5 = next(p for p in H.elements() if p.order() == 5)
    M = normalizer(H, H.subgroup([p5]))
    assert M.order() == 20 and group_name(M) == "F5"
    case = classify_theorem_case(VertexAction(M, G), act_H, 0)
    assert case.label == "b"
    assert case.t == 2
    assert case.witnesses["quadruple"] == ["S5", "F5", "A4", "C2"]
    assert case.witnesses["M_u"] == "C2"


def test_classifier_rejects_bad_pairs():
    G = complete_bipartite_minus_matching(5)
    Aut = automorphism_group(G)
    # arc-transitive M is not a HAT side
    act = VertexAction(Aut, G)
    with pytest.raises(ValueError):
        classify_theorem_case(act, act, 0)


def test_classifier_c_normal_case():
    graph, act = hat_circulant(8, 3)
    M = act.group
    neg = Permutation([(-v) % 8 for v in range(8)])
    H = PermutationGroup(list(M.gens) + [neg])
    assert H.order() == 2 * M.order()
    case = classify_theorem_case(act, VertexAction(H, graph), 0)
    assert case.label == "c-normal"


def test_normal_local_action_identities_on_circulants():
    for n, k in ((8, 3), (12, 5), (16, 7), (24, 11)):
        graph, act = hat_circulant(n, k)
        M = act.group
        neg = Permutation([(-v) % n for v in range(n)])
        H = PermutationGroup(list(M.gens) + [neg])
        data = normal_local_action_checks(graph, M, H, 0)
        assert data["index"] == H.order() // M.order() == 2


def test_cayley_normality_c5():
    from hatlab.symmetry import cayley_normality_report

    C5 = cycle_graph(5)
    R = PermutationGroup([g("(0 1 2 3 4)")])
    A = automorphism_group(C5)
    rep = cayley_normality_report(R, A, C5)
    assert rep["normalizerOrder"] == 10
    assert rep["normal"] is True
    assert rep["normalEdgeTransitive"] is True
