"""Array-level fast paths against their object-level references: the
product-replacement sampler, Schreier-tree paths, the bottom-level check of
the Schreier pass, frozen products and the vectorized edge check."""

import random

import numpy as np
import pytest

from hatlab.graphauto import automorphism_group
from hatlab.graphs import Graph, cycle_graph
from hatlab.group import PermutationGroup, _Rattle, closure_elements
from hatlab.perm import DegreeMismatch, Permutation

from oracles import ObjectRattle, edge_map_is_automorphism, random_element, tree_path_product
from test_graphauto import random_graph


def _random_gens(rng, n, k):
    return [Permutation(rng.sample(range(n), n)) for _ in range(k)]


@pytest.mark.parametrize("seed", range(6))
def test_rattle_stream_is_pinned_to_the_object_sampler(seed):
    rng = random.Random(700 + seed)
    for n in (6, 9, 17, 40):
        gens = _random_gens(rng, n, rng.choice([1, 2, 3]))
        fast, slow = _Rattle(gens, random.Random(seed)), ObjectRattle(gens, random.Random(seed))
        for _ in range(200):
            assert fast.sample() == slow.sample()


def _fixing(rng, n, b):
    """A random permutation of degree n fixing b."""
    imgs = rng.sample(range(n), n)
    j = imgs.index(b)
    imgs[b], imgs[j] = b, imgs[b]
    return Permutation(imgs)


@pytest.mark.parametrize("seed", range(3))
def test_tree_paths_match_public_products(seed):
    rng = random.Random(800 + seed)
    for n in (5, 7, 9, 12):
        G = PermutationGroup(_random_gens(rng, n, 2), n)
        for lvl in G.levels():
            for a in lvl.points:
                u = tree_path_product(lvl, a)
                assert lvl.transversal(a) == u
                # base^(s * u) = a, and cancelling u leaves s
                s = _fixing(rng, n, lvl.base)
                assert lvl.cancel_into(s * u) == s
            x = random_element(G, rng)
            if x(lvl.base) in lvl:
                want = x * tree_path_product(lvl, x(lvl.base)).inverse()
                assert lvl.cancel_into(x) == want
            s = _fixing(rng, n, lvl.base)
            assert lvl.cancel_into(s) is s


def _schreier_trivial_by_products(orb, gens):
    """Whether every u_a * g * u_{a^g}^-1 is the identity, with u_a the
    tree path as public products."""
    return all(
        (tree_path_product(orb, a) * s * tree_path_product(orb, s(a)).inverse()).is_identity()
        for a in orb.points
        for s in gens
    )


def _partial_moves(rng, n):
    """A random permutation of degree n moving a random subset of points."""
    pts = rng.sample(range(n), rng.randrange(n + 1))
    imgs = list(range(n))
    for a, b in zip(pts, rng.sample(pts, len(pts))):
        imgs[a] = b
    return Permutation(imgs)


def _bottom_levels(G):
    """The bottom level of G's chain before and after its completion: the
    generators sifted in alone, then the certified chain."""
    partial = []
    for p in G.gens:
        G._chain_add(partial, p)
    return [levels[-1] for levels in (partial, G.levels()) if levels]


@pytest.mark.parametrize("seed", range(4))
def test_bottom_check_matches_the_schreier_generators(seed):
    rng = random.Random(900 + seed)
    verdicts = []
    for _ in range(550):
        n = rng.randrange(2, 13)
        G = PermutationGroup([_partial_moves(rng, n) for _ in range(rng.choice([1, 2, 3]))], n)
        cases = [(G.orbit(rng.randrange(n)), G.gens)]
        cases += [(lvl, lvl.gens) for lvl in _bottom_levels(G)]
        for orb, gens in cases:
            want = _schreier_trivial_by_products(orb, gens)
            assert orb.schreier_trivial(gens) is want
            verdicts.append(want)
    assert verdicts.count(True) > 100 and verdicts.count(False) > 100


def _regular(gens, degree):
    """The right regular representation of <gens>, x -> x * s on the
    closure elements in sorted key order."""
    elems = sorted(closure_elements(gens, degree).values(), key=lambda p: p.key())
    index = {p.key(): i for i, p in enumerate(elems)}
    return [Permutation([index[(x * s).key()] for x in elems]) for s in gens]


def test_bottom_check_named_cases():
    g = Permutation.parse
    # H_0 = <(2 3)> fixes the orbit {0, 1}: only the outside column sees it
    G = PermutationGroup([g("(0 1)", 4), g("(2 3)", 4)])
    assert not G.orbit(0).schreier_trivial(G.gens)
    s3 = PermutationGroup([g("(0 1 2)"), g("(0 1)", 3)])
    assert not s3.orbit(0).schreier_trivial(s3.gens)
    bottom = s3.levels()[-1]
    assert bottom.schreier_trivial(bottom.gens)
    for gens, degree, order in (([g("(0 1 2 3)"), g("(0 1)", 4)], 4, 24),
                                ([g("(0 1 2 3 4)"), g("(0 1 2)", 5)], 5, 60)):
        R = PermutationGroup(_regular(gens, degree), order)
        for orb in (R.orbit(0), R.orbit(order - 1)):
            assert orb.schreier_trivial(R.gens) and _schreier_trivial_by_products(orb, R.gens)
        assert R.order() == order and len(R.levels()) == 1


def test_products_and_inverses_are_read_only():
    rng = random.Random(5)
    p, q = _random_gens(rng, 8, 2)
    G = PermutationGroup([p, q], 8)
    made = [p * q, p.inverse(), ~q, p**3, Permutation.identity(8), G.levels()[0].transversal(
        G.levels()[0].points[-1]), _Rattle([p, q], random.Random(0)).sample()]
    for r in made:
        assert not r.images.flags.writeable
        with pytest.raises(ValueError):
            r.images[0] = r.images[1]


def test_products_of_unequal_degrees_raise():
    a = Permutation.parse("(0 1)", 3) * Permutation.parse("(1 2)", 3)
    b = Permutation.parse("(0 1 2 3)", 4).inverse()
    with pytest.raises(DegreeMismatch):
        a * b
    with pytest.raises(DegreeMismatch):
        b * a


def _edge_check_cases(rng):
    graphs = [Graph(0, []), Graph(1, []), Graph(6, []), cycle_graph(7)]
    graphs += [random_graph(rng, rng.randrange(2, 10), rng.choice([0.2, 0.5, 0.8]))
               for _ in range(30)]
    for graph in graphs:
        perms = [Permutation.identity(graph.n)]
        perms += [Permutation(rng.sample(range(graph.n), graph.n)) for _ in range(10)]
        if graph.n:
            perms += list(automorphism_group(graph).gens)
        yield graph, perms


def test_edge_check_matches_a_plain_loop():
    rng = random.Random(31)
    verdicts = []
    for graph, perms in _edge_check_cases(rng):
        for p in perms:
            want = edge_map_is_automorphism(graph, p)
            assert graph.is_automorphism(p) is want
            verdicts.append(want)
    assert True in verdicts and False in verdicts
    # another degree is never an automorphism
    assert not cycle_graph(5).is_automorphism(Permutation.identity(6))


def test_edge_check_keeps_its_codes_exact_past_int32():
    n = 50_000  # n*n does not fit in int32
    graph = Graph(n, [(0, n - 1), (1, n - 2)])
    imgs = np.arange(n)
    imgs[[0, 1]] = [1, 0]
    imgs[[n - 2, n - 1]] = [n - 1, n - 2]
    assert graph.is_automorphism(Permutation(imgs))
    imgs[[n - 2, n - 1]] = [n - 2, n - 1]
    assert not graph.is_automorphism(Permutation(imgs))
