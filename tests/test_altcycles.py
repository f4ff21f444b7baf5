from itertools import combinations

import pytest

from hatlab.altcycles import (
    alternating_cycle_system,
    alternating_graph,
    find_orientation_swapper,
    hat_orientation,
)
from hatlab.graphs import VertexAction, complete_bipartite_minus_matching
from hatlab.graphauto import automorphism_group
from hatlab.group import PermutationGroup
from hatlab.normalizers import normalizer
from hatlab.perm import Permutation
from hatlab.symmetry import transitivity_report

from test_symmetry import hat_circulant


def brute_force_alternating_cycles(orientation):
    """Oracle: enumerate all cycles by DFS and keep the alternating ones."""
    graph = orientation.graph
    plus = set()
    for u, v in orientation.o_plus:
        plus.add((u, v))
    n = graph.n
    found = set()

    def direction(a, b):
        return (a, b) in plus

    def extend(path):
        head = path[-1]
        for w in graph.adj[head]:
            if len(path) >= 2 and w == path[-2]:
                continue
            if len(path) >= 2:
                # consecutive edges must alternate orientation
                d_prev = direction(path[-2], path[-1])
                d_new = direction(path[-1], w)
                if d_prev == d_new:
                    continue
            if w == path[0] and len(path) >= 3:
                # closing edge must alternate on both ends
                d_last = direction(path[-1], w)
                d_first = direction(path[0], path[1])
                d_prev = direction(path[-2], path[-1])
                if d_prev != d_last and d_last != d_first:
                    found.add(frozenset(path))
                continue
            if w in path:
                continue
            if w > path[0] or True:
                extend(path + [w])

    for v in range(n):
        extend([v])
    return found


def test_orientation_requires_hat_and_valency():
    C8, act = hat_circulant(8, 3)
    ori = hat_orientation(act)
    for v in range(8):
        assert len(ori.dplus.out[v]) == 2
        assert len(ori.dplus.into[v]) == 2
    A = automorphism_group(C8)
    with pytest.raises(ValueError):
        hat_orientation(VertexAction(A, C8))  # arc-transitive input


def test_orientation_rejects_wrong_valency():
    from hatlab.graphs import cycle_graph

    C5 = cycle_graph(5)
    R = PermutationGroup([Permutation.parse("(0 1 2 3 4)")])
    with pytest.raises(ValueError):
        hat_orientation(VertexAction(R, C5))


def test_alternating_cycles_circulant_8_3():
    graph, act = hat_circulant(8, 3)
    ori = hat_orientation(act)
    system = alternating_cycle_system(ori)
    assert sum(len(c) for c in system.cycles) == 2 * graph.n
    assert all(len(c) == 2 * system.radius for c in system.cycles)
    oracle = brute_force_alternating_cycles(ori)
    assert {frozenset(c) for c in system.cycles} == oracle
    # intersections all equal the attachment number
    for a, b in combinations(system.cycle_sets, 2):
        inter = a & b
        if inter:
            assert len(inter) == system.attachment


def test_alternating_cycles_on_kbm5():
    # the F20 HAT action on K_{5,5} - 5K_2
    G = complete_bipartite_minus_matching(5)
    Aut = automorphism_group(G)
    from hatlab.cosets import CosetSpace, derived_subgroup
    from hatlab.signatures import group_name
    from hatlab.symmetry import transitivity_report as report

    D = derived_subgroup(Aut)
    H = None
    for r in CosetSpace(Aut, D).reps[1:]:
        cand = Aut.subgroup(list(D.gens) + [r])
        if cand.order() == 120 and cand.is_transitive():
            if report(VertexAction(cand, G)).s_degree == 2 and group_name(cand) == "S5":
                H = cand
    p5 = next(p for p in H.elements() if p.order() == 5)
    M = normalizer(H, H.subgroup([p5]))
    act = VertexAction(M, G)
    ori = hat_orientation(act)
    system = alternating_cycle_system(ori)
    oracle = brute_force_alternating_cycles(ori)
    assert {frozenset(c) for c in system.cycles} == oracle
    assert sum(len(c) for c in system.cycles) == 2 * G.n
    alt, alt_action, att = alternating_graph(act, system)
    assert att == system.attachment
    # induced action is vertex- and edge-transitive on the cycle graph
    rep = transitivity_report(alt_action) if alt.is_connected() else None
    if rep is not None:
        assert rep.vertex_transitive
        assert rep.edge_transitive


def test_two_cycle_system_gives_single_edge():
    graph, act = hat_circulant(8, 3)
    system = alternating_cycle_system(hat_orientation(act))
    if system.count == 2:
        alt, _, _ = alternating_graph(act, system)
        assert alt.n == 2 and alt.m == 1


def test_attachment_equals_radius_implies_alt_arc_transitive():
    # scan the circulant family; whenever att == radius, check Prop-5.7 style
    for n, k in ((8, 3), (12, 5), (15, 4), (16, 7), (20, 9), (24, 11)):
        graph, act = hat_circulant(n, k)
        try:
            system = alternating_cycle_system(hat_orientation(act))
        except ValueError:
            continue
        if system.count < 2:
            continue
        alt, alt_action, att = alternating_graph(act, system)
        if att == system.radius and alt.is_connected():
            A = automorphism_group(alt)
            assert len(VertexAction(A, alt).arc_orbits()) == 1


def test_orientation_swapper_forces_alt_arc_transitivity():
    for n, k in ((8, 3), (12, 5), (16, 7)):
        graph, act = hat_circulant(n, k)
        M = act.group
        A = automorphism_group(graph)
        ori = hat_orientation(act)
        swapper = find_orientation_swapper(A, M, ori)
        system = alternating_cycle_system(ori)
        if swapper is None or system.count < 2:
            continue
        alt, alt_action, _ = alternating_graph(act, system)
        if alt.is_connected():
            AA = automorphism_group(alt)
            assert len(VertexAction(AA, alt).arc_orbits()) == 1
