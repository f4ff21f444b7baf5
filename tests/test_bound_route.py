"""The bound route against independent oracles.

A group built with ``bound=`` (a parent, the source of a homomorphic image,
or a search-tree count) must report the closure order, keep the very chain
that the build without a bound gives, and skip the Schreier pass exactly
when its chain reaches the bound.  A claimed order is a bound too: the same
generators with their closure order claimed must do the same.
"""

import random
from math import factorial

import pytest

from hatlab.cosets import CosetSpace, core
from hatlab.graphauto import automorphism_group, automorphism_stabilizer
from hatlab.graphs import (
    Graph,
    VertexAction,
    complete_bipartite_minus_matching,
    cycle_graph,
    induced_quotient_action,
    quotient_graph,
)
from hatlab.group import PermutationGroup, _Rattle
from hatlab.perm import Permutation
from hatlab.symmetry import local_action

from oracles import brute_force_graph_aut_order, closure_order
from test_graphauto import random_graph


def _chain(G):
    return [(lvl.base, list(lvl.points), [p.key() for p in lvl.gens]) for lvl in G.levels()]


def _passes(monkeypatch):
    """The groups whose chain build runs a Schreier pass, one entry per pass."""
    seen = []
    run = PermutationGroup._schreier_complete

    def counted(self, levels):
        seen.append(self)
        run(self, levels)

    monkeypatch.setattr(PermutationGroup, "_schreier_complete", counted)
    return seen


def _check(monkeypatch, build):
    """Build a group with a bound (``build()``), and the same generators
    with their closure order claimed, while counting Schreier passes;
    returns the first, whether its chain reached the bound, and how many
    passes the same build without a bound makes."""
    passes = _passes(monkeypatch)
    G = build()
    closure = closure_order(G.gens, G.degree)
    claimed = PermutationGroup(G.gens, G.degree, order=closure)
    plain = PermutationGroup(G.gens, G.degree)
    reached = []
    for H in (G, claimed):
        order = H.order()
        limit = H._bound if isinstance(H._bound, int) else H._bound.order()
        assert order == closure
        assert _chain(H) == _chain(plain)
        reached.append(order == limit)
        assert passes.count(H) == (0 if reached[-1] else passes.count(plain))
    assert claimed._bound == closure and reached[1]
    monkeypatch.undo()
    return G, reached[0], passes.count(plain)


def _random_group(rng, n):
    gens = []
    for _ in range(2):
        imgs = list(range(n))
        rng.shuffle(imgs)
        gens.append(Permutation(imgs))
    return PermutationGroup(gens)


def _dihedral(n):
    rot = Permutation([(i + 1) % n for i in range(n)])
    ref = Permutation([(-i) % n for i in range(n)])
    return PermutationGroup([rot, ref])


def _direct_product(rng, a, b):
    """A relabelled dihedral group on {0..a-1} times a random group on
    {a..a+b-1}; the first factor is no giant for a >= 4."""
    imgs = list(range(a))
    rng.shuffle(imgs)
    relabel = Permutation(imgs)
    left = PermutationGroup([p.conj(relabel) for p in _dihedral(a).gens])
    right = _random_group(rng, b)
    n = a + b
    gens = [Permutation(list(p.images) + list(range(a, n))) for p in left.gens]
    gens += [Permutation(list(range(a)) + [a + int(x) for x in p.images]) for p in right.gens]
    return PermutationGroup(gens, n)


@pytest.mark.parametrize("seed", range(4))
def test_coset_actions_match_the_oracles(seed, monkeypatch):
    """Coset actions on point stabilizers, with a trivial core (a transitive
    group) and a nontrivial one (a direct product, whose second factor fixes
    point 0 and is the kernel)."""
    rng = random.Random(2000 + seed)
    outcomes = []
    groups = [_random_group(rng, n) for n in (4, 5, 6, 7, 8)]
    groups += [_direct_product(rng, a, b) for a, b in ((4, 2), (4, 3), (5, 3), (4, 4))]
    for G in groups:
        H = G.point_stabilizer(0)
        image, reached, plain_passes = _check(monkeypatch, lambda: CosetSpace(G, H).image)
        assert image._bound is G
        assert reached == (core(G, H).order() == 1)
        outcomes.append((reached, plain_passes))
    assert any(r for r, _ in outcomes)
    assert any(not r and p for r, p in outcomes)  # a non-faithful image with a pass


@pytest.mark.parametrize("n", [4, 6, 8])
def test_quotient_actions_match_the_oracles(n, monkeypatch):
    """D_n on the n-cycle acts on the d orbits of <r^d> as D_d, with kernel
    <r^d> for d >= 3: faithful for d = n, not faithful below."""
    graph = cycle_graph(n)
    D = _dihedral(n)
    action = VertexAction(D, graph)
    r = D.gens[0]
    for d in range(3, n + 1):
        if n % d:
            continue
        power = Permutation.identity(n)
        for _ in range(d):
            power = power * r
        N = PermutationGroup([power], n)
        quo = quotient_graph(action, N)
        image, reached, _ = _check(monkeypatch, lambda: induced_quotient_action(action, N, quo))
        assert image._bound is D
        assert reached == (d == n)
        assert image.order() == 2 * d


K4 = Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
K33 = Graph(6, [(i, 3 + j) for i in range(3) for j in range(3)])
TORUS = Graph(25, [(5 * i + j, 5 * ((i + di) % 5) + (j + dj) % 5)
                   for i in range(5) for j in range(5) for di, dj in ((0, 1), (1, 0))])


@pytest.mark.parametrize(
    "graph, kernel_order, plain_passes",
    [(cycle_graph(5), 1, 1), (complete_bipartite_minus_matching(4), 1, 0), (K4, 1, 0),
     (K33, 2, 0), (TORUS, 1, 1)],
    ids=["C5", "K44-matching", "K4", "K33", "C5xC5"],
)
def test_local_actions_match_the_oracles(graph, kernel_order, plain_passes, monkeypatch):
    """Vertex stabilizers on the neighbours: faithful on C5, the cube-like
    K4,4 minus a matching, K4 and the 5x5 torus; K3,3 has a kernel of order
    2.  Only C5 (Z2 on two points) and the torus (D8) are no giants, so only
    there does the build without a bound make a Schreier pass."""
    action = VertexAction(automorphism_group(graph), graph)
    induced, reached, passes = _check(monkeypatch, lambda: local_action(action, 0).induced)
    assert (reached, passes) == (kernel_order == 1, plain_passes)
    assert induced._bound.order() // induced.order() == kernel_order


@pytest.mark.parametrize("seed", range(3))
def test_search_tree_bounds_match_the_oracles(seed, monkeypatch):
    """Automorphism groups and vertex stabilizers of seeded random graphs
    and cycles, bounded by the first search path's cells, against a scan of
    all permutations."""
    rng = random.Random(3000 + seed)
    outcomes = []
    for n in (4, 5, 6, 7, 8):
        for graph, is_cycle in ((random_graph(rng, n), False), (cycle_graph(n), True)):
            aut, *outcome = _check(monkeypatch, lambda: automorphism_group(graph))
            assert aut.order() == brute_force_graph_aut_order(n, set(graph.edges))
            stab, *stab_outcome = _check(monkeypatch, lambda: automorphism_stabilizer(graph, 0))
            assert stab.order() == sum(1 for p in aut.elements() if p(0) == 0)
            outcomes += [outcome, stab_outcome]
            if is_cycle:  # first-path cells of sizes n and 2 give |D_n| = 2n
                assert aut._bound == 2 * n and outcome[0] and stab_outcome[0]
    assert any(r and p for r, p in outcomes)  # a pass skipped at the bound


def test_subgroup_of_a_parent_skips_the_pass_only_at_the_parent(monkeypatch):
    G = _direct_product(random.Random(7), 4, 3)  # no giant: a bare build makes a pass
    assert _check(monkeypatch, lambda: G.subgroup(list(G.gens)))[1:] == (True, 1)
    proper = G.point_stabilizer(0)
    assert not _check(monkeypatch, lambda: G.subgroup(list(proper.gens)))[1]


def test_chain_past_its_bound_raises():
    four_cycle = Permutation([1, 2, 3, 0])
    with pytest.raises(ValueError, match="exceeds its bound"):
        PermutationGroup([four_cycle], bound=2).order()


def test_no_sampler_when_the_chain_meets_its_bound(monkeypatch):
    """A chain that meets its bound from the generators alone builds no
    product-replacement sampler.  A group that samples draws the seeded
    sampler's first samples: 14 for D7 without a bound, 7 for S7 with a
    bound or a claim, and fewer for a claimed Alt(8), ended by a Jordan
    proof."""
    built, drawn = [], []
    real_init, real_sample = _Rattle.__init__, _Rattle.sample

    def init(self, gens, rng):
        built.append(gens)
        real_init(self, gens, rng)

    monkeypatch.setattr(_Rattle, "__init__", init)
    monkeypatch.setattr(_Rattle, "sample", lambda self: drawn.append(real_sample(self)) or drawn[-1])
    D = _dihedral(7)
    S = D.subgroup(list(D.gens))  # certifies D, for the membership test
    built.clear()
    assert S.order() == 14 and built == []

    s7 = [Permutation.parse("(0 1 2 3 4 5 6)"), Permutation.parse("(0 1)", 7)]
    a8 = [Permutation.parse("(0 1 2)", 8), Permutation.parse("(1 2 3 4 5 6 7)", 8)]
    cases = [  # group, order, samples drawn (None: a Jordan proof ends the build)
        (lambda: PermutationGroup(D.gens), 14, 14),
        (lambda: PermutationGroup(s7, order=5040), 5040, 7),
        (lambda: PermutationGroup(s7, bound=5040), 5040, 7),
        (lambda: PermutationGroup(a8, order=factorial(8) // 2), factorial(8) // 2, None),
    ]
    for build, order, samples in cases:
        G = build()
        built.clear()
        drawn.clear()
        assert G.order() == order and len(built) == 1
        assert (G._proof is None) == (samples is not None)
        assert samples is None or len(drawn) == samples
        keys = [p.key() for p in drawn]
        fresh = _Rattle(G.gens, random.Random(0))
        assert keys == [fresh.sample().key() for _ in keys]
