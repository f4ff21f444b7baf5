import random

import pytest

from hatlab import cosets
from hatlab.cosets import (
    CosetSpace,
    block_system,
    core,
    derived_subgroup,
    double_coset,
    is_maximal_subgroup,
    is_primitive,
    small_subgroups,
    wreath_square,
)
from hatlab.group import PermutationGroup, ResourceExhausted, closure_elements
from hatlab.perm import Permutation

from oracles import (
    all_subgroups,
    block_systems_exhaustive,
    closure_order,
    finest_block_system,
    is_maximal_by_lattice,
)


def g(s, n=None):
    return Permutation.parse(s, n)


def S4():
    return PermutationGroup([g("(0 1 2 3)"), g("(0 1)", 4)])


def D8():
    return PermutationGroup([g("(0 1 2 3)"), g("(0 2)", 4)])


def test_coset_action_on_self_is_degree_one():
    G = S4()
    space = CosetSpace(G, G)
    assert len(space) == 1
    assert core(G, G).order() == G.order()


def test_coset_action_s4_point_stabilizer():
    G = S4()
    H = G.point_stabilizer(3)
    space = CosetSpace(G, H)
    assert len(space) == 4
    assert core(G, H).order() == 1
    # image order via independent closure
    assert space.image.order() == closure_order(space.image.gens, 4)
    assert space.image.order() == 24


def test_coset_space_raises_past_its_limit(monkeypatch):
    G, H = S4(), S4().point_stabilizer(3)
    monkeypatch.setattr(cosets, "COSET_LIMIT", 3)
    with pytest.raises(ResourceExhausted, match="exceeded 3"):
        cosets.CosetSpace(G, H)
    monkeypatch.setattr(cosets, "COSET_LIMIT", 4)
    assert len(cosets.CosetSpace(G, H)) == 4


def test_coset_action_a4_amalgam_shape():
    # order-12 group acting on cosets of an order-2 subgroup: degree 6
    L = PermutationGroup([g("(0 1 2)", 4), g("(1 2 3)", 4)])
    X = L.subgroup([g("(0 1)(2 3)", 4)])
    space = CosetSpace(L, X)
    assert len(space) == 6
    assert space.image.order() == 12


def test_core_of_normal_subgroup_is_itself():
    G = S4()
    V4 = G.subgroup([g("(0 1)(2 3)", 4), g("(0 2)(1 3)", 4)])
    K = core(G, V4)
    assert K.order() == 4
    assert all(p in V4 for p in K.gens)


def test_core_in_d8_of_reflection_is_trivial():
    G = D8()
    S = G.subgroup([g("(0 2)", 4)])
    assert core(G, S).order() == 1


def test_core_contains_every_normal_subgroup_inside_h():
    G = S4()
    H = G.point_stabilizer(0)
    K = core(G, H)
    assert K.order() == 1

    # exhaustive: no nontrivial normal subgroup of G lies inside H
    elems = list(G.elements())
    h_keys = {q.key() for q in H.elements()}
    for sub_keys in all_subgroups(elems, 4):
        sub = [p for p in elems if p.key() in sub_keys]
        normal = all(
            s.conj(h).key() in sub_keys for s in sub for h in G.gens
        )
        inside = sub_keys <= h_keys
        if normal and inside:
            assert len(sub_keys) == 1


def test_core_combined_path_matches_fixpoint():
    from hatlab.cosets import _core_fixpoint, _core_via_combined

    G = S4()
    for sub_gens in ([g("(0 1)(2 3)", 4), g("(0 2)(1 3)", 4)], [g("(0 1)", 4)], [g("(0 1 2)", 4)]):
        H = G.subgroup(sub_gens)
        a = _core_fixpoint(G, H)
        b = _core_via_combined(G, H)
        assert a.order() == b.order()
        assert all(p in b for p in a.gens)


def _as_sets(system):
    return frozenset(frozenset(b) for b in system)


def _assert_block_systems_match(G):
    """block_system(G, beta) for every beta, and is_primitive, against the
    exhaustive partition scan; returns the scan."""
    n = G.degree
    oracle = block_systems_exhaustive(G.gens, n)
    for beta in range(1, n):
        assert _as_sets(block_system(G, beta)) == finest_block_system(oracle, n, beta)
    assert is_primitive(G) == (oracle == [])
    return oracle


def test_blocks_of_cyclic_4():
    G = PermutationGroup([g("(0 1 2 3)")])
    assert block_system(G, 2) == ((0, 2), (1, 3))
    assert block_system(G, 1) == ((0, 1, 2, 3),)
    assert not is_primitive(G)
    # exhaustive oracle agrees on the full nontrivial system list
    oracle = _assert_block_systems_match(G)
    assert oracle == [_as_sets(((0, 2), (1, 3)))]


def test_a4_is_primitive():
    A4 = PermutationGroup([g("(0 1 2)", 4), g("(1 2 3)", 4)])
    assert is_primitive(A4)
    assert _assert_block_systems_match(A4) == []


def _block_preserving(rng, a, b):
    """A random permutation of a*b points that permutes the blocks
    {a*i, ..., a*i + a - 1}, relabelled by a random bijection."""
    sigma = rng.sample(range(b), b)
    imgs = [a * sigma[i] + j for i in range(b) for j in rng.sample(range(a), a)]
    relabel = Permutation(rng.sample(range(a * b), a * b))
    return Permutation(imgs).conj(relabel)


@pytest.mark.parametrize("seed", range(2))
def test_primitivity_matches_exhaustive_blocks(seed):
    """is_primitive and every block_system(G, beta) against the partition
    scan, on seeded transitive groups of degree 4-8: random pairs, mostly
    primitive, and pairs preserving a random block structure, among them
    imprimitive groups whose point stabilizer has several orbits."""
    rng = random.Random(800 + seed)
    primitive = imprimitive = several_orbits = 0
    while primitive < 6 or imprimitive < 12:
        n = rng.randrange(4, 9)
        splits = [(a, n // a) for a in range(2, n) if n % a == 0]
        if splits and rng.random() < 0.7:
            a, b = rng.choice(splits)
            gens = [_block_preserving(rng, a, b) for _ in range(2)]
        else:
            gens = [Permutation(rng.sample(range(n), n)) for _ in range(2)]
        G = PermutationGroup(gens, n)
        if not G.is_transitive():
            continue
        if _assert_block_systems_match(G):
            imprimitive += 1
            if len(G.point_stabilizer(0).orbits()) > 2:
                several_orbits += 1
        else:
            primitive += 1
    assert several_orbits >= 4


def test_primitivity_runs_one_block_system_per_stabilizer_orbit(monkeypatch):
    calls = []
    real = cosets.block_system

    def counting(G, beta):
        calls.append(beta)
        return real(G, beta)

    monkeypatch.setattr(cosets, "block_system", counting)
    # PGL(2,7) on the projective line, infinity = 7: x+1, 3x and -1/x; its
    # point stabilizer is transitive on the other 7 points.  Both groups
    # have their chains (from order()) when is_primitive runs.
    pgl = PermutationGroup([
        Permutation([1, 2, 3, 4, 5, 6, 0, 7]),
        Permutation([0, 3, 6, 2, 5, 1, 4, 7]),
        Permutation([7, 6, 3, 2, 5, 4, 1, 0]),
    ])
    assert pgl.order() == 336
    assert is_primitive(pgl)
    assert len(calls) == 1
    calls.clear()
    alt7 = PermutationGroup([g("(0 1 2)", 7), g("(0 1 2 3 4 5 6)")])
    assert alt7.order() == 2520
    assert is_primitive(alt7)
    assert calls == []
    # without a chain it tries every beta, and builds none
    fresh = PermutationGroup(pgl.gens)
    assert is_primitive(fresh)
    assert len(calls) == 7 and fresh._levels is None


def test_degree_two_transitive_group_is_primitive():
    G = PermutationGroup([g("(0 1)")])
    assert is_primitive(G)


def test_intransitive_group_is_not_primitive(monkeypatch):
    calls = []
    monkeypatch.setattr(cosets, "block_system", lambda G, beta: calls.append(beta))
    for G in (
        PermutationGroup([g("(0 1 2)", 5)]),
        PermutationGroup([g("(0 1)(2 3)")]),
        PermutationGroup([], 2),
    ):
        assert not is_primitive(G)
        G.order()  # and again with a chain
        assert not is_primitive(G)
    assert calls == []


def test_is_maximal_examples():
    G = S4()
    A4 = G.subgroup([g("(0 1 2)", 4), g("(1 2 3)", 4)])
    assert is_maximal_subgroup(G, A4)  # index 2
    K = G.subgroup([g("(0 1)(2 3)", 4)])
    assert not is_maximal_subgroup(G, K)
    # lattice oracle agreement inside D8
    D = D8()
    S = D.subgroup([g("(0 1)(2 3)", 4)])
    elems = list(D.elements())
    lattice = is_maximal_by_lattice(
        elems, frozenset(p.key() for p in S.elements()), all_subgroups(elems, 4)
    )
    assert is_maximal_subgroup(D, S) == lattice


def test_maximality_matches_lattice_on_small_groups():
    rng = random.Random(11)
    checked = 0
    for _ in range(30):
        n = rng.randrange(4, 7)
        gens = []
        for _ in range(2):
            imgs = list(range(n))
            rng.shuffle(imgs)
            gens.append(Permutation(imgs))
        G = PermutationGroup(gens)
        if not 2 <= G.order() <= 48:
            continue
        elems = list(G.elements())
        subs = all_subgroups(elems, n)
        for sub_keys in subs:
            if len(sub_keys) == G.order():
                continue
            sub = G.subgroup(
                [p for p in elems if p.key() in sub_keys and not p.is_identity()]
            )
            expected = is_maximal_by_lattice(elems, sub_keys, subs)
            assert is_maximal_subgroup(G, sub) == expected
            checked += 1
    assert checked >= 10


def test_derived_subgroup():
    assert derived_subgroup(PermutationGroup([g("(0 1 2 3 4)")])).order() == 1
    D = derived_subgroup(S4())
    assert D.order() == 12
    assert closure_order(D.gens, 4) == 12
    assert g("(0 1 2)", 4) in D


def test_small_subgroups_d8():
    D = D8()
    subs = small_subgroups(D, 4)
    by_order = {}
    for S in subs:
        by_order.setdefault(S.order(), []).append(S)
    assert len(by_order[4]) == 3
    # oracle: exhaustive subgroup enumeration filtered to orders dividing 4
    oracle = [s for s in all_subgroups(list(D.elements()), 4) if 4 % len(s) == 0]
    assert len(subs) == len(oracle)
    assert {frozenset(S.element_set()) for S in subs} == set(oracle)
    # seeded random groups of degree <= 6, each bound against the lattice
    rng = random.Random(61)
    done = 0
    while done < 6:
        n = rng.randrange(4, 7)
        gens = []
        for _ in range(2):
            imgs = list(range(n))
            rng.shuffle(imgs)
            gens.append(Permutation(imgs))
        G = PermutationGroup(gens, n)
        if not 6 <= G.order() <= 48:
            continue
        lattice = all_subgroups(list(G.elements()), n)
        for bound in (2, 4, 8):
            keys = [frozenset(S.element_set()) for S in small_subgroups(G, bound)]
            assert len(keys) == len(set(keys))
            assert set(keys) == {s for s in lattice if bound % len(s) == 0}
        done += 1


def test_small_subgroups_join_only_within_the_bound(monkeypatch):
    """Every join made has a product set S<p> within the bound, and the
    subgroup lists, in order, are the lattice's subgroups of orders dividing
    the bound."""
    real, joins = cosets._coset_join, []

    def join(key_set, table, gens, limit):
        p = Permutation(gens[-1])
        cyclic = {(p**k).key() for k in range(p.order())}
        assert len(key_set) * len(cyclic) <= limit * len(key_set & cyclic)
        joins.append(len(key_set))
        return real(key_set, table, gens, limit)

    monkeypatch.setattr(cosets, "_coset_join", join)
    rng = random.Random(62)
    done = 0
    while done < 5:
        n = rng.randrange(4, 7)
        G = PermutationGroup([Permutation(rng.sample(range(n), n)) for _ in range(2)], n)
        if not 12 <= G.order() <= 72:
            continue
        lattice = all_subgroups(list(G.elements()), n)
        for bound in (4, 6, 8, 12, 16):
            want = sorted((len(s), sorted(s)) for s in lattice if bound % len(s) == 0)
            got = [(S.order(), sorted(S.element_set())) for S in small_subgroups(G, bound)]
            assert got == want
        done += 1
    assert max(joins) > 1


def _regular(G):
    """The right regular representation of G, on the indices of its
    elements."""
    elems = list(G.elements())
    index = {p.key(): i for i, p in enumerate(elems)}
    return PermutationGroup(
        [Permutation([index[(p * s).key()] for p in elems]) for s in G.gens]
    )


@pytest.mark.parametrize("name", ["D8xC2", "C4xC4"])
def test_small_subgroups_match_lattice_on_regular_2_groups(name):
    """small_subgroups against the subgroup lattice for every bound, on
    regular groups of order 16 with many cyclic subgroups of order 2 and 4;
    every subgroup's generators give back its element set."""
    gens = {
        "D8xC2": [g("(0 1 2 3)", 6), g("(0 2)", 6), g("(4 5)", 6)],
        "C4xC4": [g("(0 1 2 3)", 8), g("(4 5 6 7)", 8)],
    }[name]
    R = _regular(PermutationGroup(gens))
    assert R.order() == R.degree == 16
    lattice = all_subgroups(list(R.elements()), 16)
    for bound in (2, 4, 8, 16):
        subs = small_subgroups(R, bound)
        keys = [frozenset(S.element_set()) for S in subs]
        assert keys == sorted(set(keys), key=lambda k: (len(k), sorted(k)))
        assert set(keys) == {s for s in lattice if bound % len(s) == 0}
        for S, k in zip(subs, keys):
            assert frozenset(closure_elements(S.gens, 16)) == k


def test_small_subgroups_bound_one():
    subs = small_subgroups(S4(), 1)
    assert len(subs) == 1
    assert subs[0].order() == 1


def test_small_subgroups_a4_involutions():
    A4 = PermutationGroup([g("(0 1 2)", 4), g("(1 2 3)", 4)])
    subs = small_subgroups(A4, 2)
    orders = sorted(S.order() for S in subs)
    # involution count oracle
    invs = [p for p in A4.elements() if p.order() == 2]
    assert len(invs) == 3
    assert orders == [1, 2, 2, 2]


def test_small_subgroups_bound_validation():
    with pytest.raises(ValueError):
        small_subgroups(S4(), 32)


def test_double_coset_identity():
    G = S4()
    A = G.subgroup([g("(0 1)", 4)])
    D = double_coset(A, G.identity(), A)
    assert set(D.keys()) == set(A.element_set().keys())


def test_double_coset_sizes_divisible():
    G = S4()
    A = G.subgroup([g("(0 1)", 4)])
    B = G.subgroup([g("(0 1 2)", 4)])
    x = g("(0 2 1 3)", 4)
    D = double_coset(A, x, B)
    assert len(D) % A.order() == 0
    assert len(D) % B.order() == 0
    # brute force oracle
    brute = {
        (a * x * b).key()
        for a in A.elements()
        for b in B.elements()
    }
    assert set(D.keys()) == brute


def test_double_coset_is_union_of_cosets():
    G = S4()
    A = G.subgroup([g("(0 1)", 4)])
    B = G.subgroup([g("(2 3)", 4)])
    x = g("(1 2)", 4)
    D = double_coset(A, x, B)
    keys = set(D.keys())
    for p in list(D.values()):
        for b in B.elements():
            assert (p * b).key() in keys
        for a in A.elements():
            assert (a * p).key() in keys


def test_wreath_square_trivial():
    P = PermutationGroup([], degree=1)
    X, e1, e2, swap = wreath_square(P)
    assert X.order() == 2


def test_wreath_square_s3():
    P = PermutationGroup([g("(0 1 2)"), g("(0 1)", 3)])
    X, e1, e2, swap = wreath_square(P)
    assert X.order() == 72
    p = g("(0 1 2)", 3)
    assert e1(p).conj(swap) == e2(p)
