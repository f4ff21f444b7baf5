"""Array-level fast paths against their object-level references: the
product-replacement sampler, Schreier-tree paths, frozen products and the
vectorized edge check."""

import random

import numpy as np
import pytest

from hatlab.graphauto import automorphism_group
from hatlab.graphs import Graph, cycle_graph
from hatlab.group import PermutationGroup, _Rattle
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
