"""Cross-module structural invariants."""

import ast
import glob
import os
import random

from hatlab.cosets import core, double_coset
from hatlab.graphs import VertexAction, complete_bipartite_minus_matching
from hatlab.graphauto import automorphism_group
from hatlab.group import PermutationGroup, closure_elements
from hatlab.normalizers import normalizer
from hatlab.perm import Permutation
from hatlab.symmetry import local_action

from oracles import all_subgroups


def g(s, n=None):
    return Permutation.parse(s, n)


def test_strong_generators_are_members_of_the_closure():
    gens = [g("(0 1 2 3)"), g("(0 1)", 4)]
    G = PermutationGroup(gens)
    closure = closure_elements(gens, 4)
    for lvl in G.levels():
        for s in lvl.gens:
            assert s.key() in closure


def test_chain_level_order_identity():
    G = PermutationGroup([g("(0 1 2 3 4)"), g("(0 1)", 5)])
    levels = G.levels()
    suffix_orders = []
    total = 1
    for lvl in reversed(levels):
        total *= len(lvl.points)
        suffix_orders.append(total)
    suffix_orders.reverse()
    for i, lvl in enumerate(levels):
        below = suffix_orders[i + 1] if i + 1 < len(levels) else 1
        assert len(lvl.points) * below == suffix_orders[i]
    assert suffix_orders[0] == G.order()


def test_core_contains_all_normal_subgroups_small_corpus():
    rng = random.Random(23)
    done = 0
    while done < 6:
        n = rng.randrange(4, 7)
        imgs = list(range(n))
        rng.shuffle(imgs)
        a = Permutation(imgs)
        imgs2 = list(range(n))
        rng.shuffle(imgs2)
        b = Permutation(imgs2)
        G = PermutationGroup([a, b])
        if not 4 <= G.order() <= 60:
            continue
        elems = list(G.elements())
        subs = all_subgroups(elems, n)
        for sub_keys in subs:
            if len(sub_keys) == G.order():
                continue
            sub_elems = [p for p in elems if p.key() in sub_keys]
            H = G.subgroup([p for p in sub_elems if not p.is_identity()])
            K = core(G, H)
            k_keys = set(K.element_set().keys())
            # every normal subgroup of G inside H sits inside the core
            for cand_keys in subs:
                if not cand_keys <= sub_keys:
                    continue
                cand = [p for p in elems if p.key() in cand_keys]
                normal = all(
                    s.conj(h).key() in cand_keys for s in cand for h in G.gens
                )
                if normal:
                    assert cand_keys <= k_keys
            # and the core itself is normal and contained
            assert k_keys <= sub_keys
            assert all(p.conj(h) in K for p in K.gens for h in G.gens)
        done += 1


def test_double_coset_budget():
    import pytest

    from hatlab.group import ResourceExhausted

    G = PermutationGroup([g("(0 1 2 3 4)"), g("(0 1)", 5)])
    with pytest.raises(ResourceExhausted):
        double_coset(G, G.identity(), G, budget=10)


def test_haar_style_normalizer_stabilizer_faithful_on_neighborhood():
    # near-bipartite setting: the semiregular group with the two sides as
    # orbits; the vertex stabilizer of its normalizer in Aut acts faithfully
    # on the neighborhood
    graph = complete_bipartite_minus_matching(5)
    aut = automorphism_group(graph)
    semi = aut.subgroup(
        [Permutation.from_cycles(10, [(0, 1, 2, 3, 4), (5, 6, 7, 8, 9)])]
    )
    prof = semi.transitivity_profile()
    assert prof["semiregular"] and not prof["transitive"]
    N = normalizer(aut, semi)
    loc = local_action(VertexAction(N, graph), 0)
    assert loc.kernel_order == 1


def test_library_has_no_assert_statements():
    """Checks in src/hatlab raise explicitly: ``python -O`` strips asserts."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src", "hatlab")
    paths = sorted(glob.glob(os.path.join(src, "*.py")))
    assert paths
    found = []
    for path in paths:
        with open(path) as fh:
            tree = ast.parse(fh.read(), filename=path)
        found += [
            "%s:%d" % (os.path.basename(path), node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []
