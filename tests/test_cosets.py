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
from hatlab.group import Orbit, PermutationGroup, ResourceExhausted, closure_elements
from hatlab.perm import Permutation

from oracles import (
    CosetsByElements,
    all_subgroups,
    block_systems_exhaustive,
    closure_order,
    core_by_conjugates,
    finest_block_system,
    is_maximal_by_lattice,
    random_element,
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
    empty = PermutationGroup([], 0)
    assert len(CosetSpace(empty, empty)) == 1


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


def _coset_cases(seed):
    """Seeded H <= G <= Sym(4..9) with |G| <= 2000, G generated by one to
    three random permutations of 2-5 points each; per G the trivial
    subgroup, G itself and the subgroups of one and of two random
    elements."""
    rng = random.Random(900 + seed)
    cases = []
    while len(cases) < 40:
        n = rng.randrange(4, 10)
        gens = []
        for _ in range(rng.randrange(1, 4)):
            pts = rng.sample(range(n), rng.randrange(2, 6))
            imgs = list(range(n))
            for a, b in zip(pts, rng.sample(pts, len(pts))):
                imgs[a] = b
            gens.append(Permutation(imgs))
        G = PermutationGroup(gens, n)
        if G.order() > 2000:
            continue
        subs = [[], list(G.gens)] + [[random_element(G, rng) for _ in range(j)] for j in (1, 2)]
        cases += [(G, G.subgroup(s)) for s in subs]
    return cases


def _assert_matches_element_bfs(G, H, rng):
    """CosetSpace(G, H) against ``CosetsByElements``: the same
    representatives, generator images and index, and the same
    ``coset_of``, ``cosets_of`` and ``action_of`` on random elements."""
    space, ref = CosetSpace(G, H), CosetsByElements(G, H)
    assert [r.key() for r in space.reps] == [r.key() for r in ref.reps]
    assert [p.images.tolist() for p in space.gen_images] == ref.gen_images
    assert {r.key(): i for i, r in enumerate(space.reps)} == ref.index
    xs = [random_element(G, rng) for _ in range(4)]
    assert space.cosets_of(xs) == [ref.coset_of(x) for x in xs]
    for x in xs[:2]:
        assert space.coset_of(x) == ref.coset_of(x)
        assert space.action_of(x).images.tolist() == ref.action_of(x)
    return space


@pytest.mark.parametrize("one_row", [False, True], ids=["blocks", "one-row-blocks"])
@pytest.mark.parametrize("seed", range(2))
def test_coset_spaces_match_the_element_bfs(monkeypatch, seed, one_row):
    """The block BFS numbers the cosets as the one-product-at-a-time BFS
    of ``CosetsByElements`` does: the same representatives, generator
    images and index, and the same ``coset_of``, ``cosets_of`` and
    ``action_of`` on random elements; also with blocks of one row."""
    if one_row:
        monkeypatch.setattr(cosets, "BLOCK_ENTRIES", 1)
    rng = random.Random(seed)
    depths = set()
    for G, H in _coset_cases(seed):
        _assert_matches_element_bfs(G, H, rng)
        depths.add((len(H.levels()), H.order() == G.order()))
    assert (0, False) in depths and any(same for _, same in depths)
    assert max(d for d, _ in depths) >= 3


def _random_perm(rng, points, n):
    """A random permutation of degree n moving only ``points``."""
    imgs = list(range(n))
    for a, b in zip(points, rng.sample(points, len(points))):
        imgs[a] = b
    return Permutation(imgs)


def _column_cases(kind, seed):
    """Seeded (G, H) whose column set is a proper subset of the points
    (trivial H in a regular G; a small semiregular H in a regular G; an H
    with fixed points in an intransitive G), or every point (a transitive
    H)."""
    rng = random.Random(f"{kind}-{seed}")
    cases = []
    while len(cases) < 6:
        if kind in ("regular-trivial", "regular-semiregular"):
            n = rng.randrange(3, 6)
            G0 = PermutationGroup([_random_perm(rng, list(range(n)), n) for _ in range(2)])
            if not 2 < G0.order() <= 60:
                continue
            R = _regular(G0)
            G = PermutationGroup(R.gens, order=R.degree, base_prefix=[rng.randrange(R.degree)])
            H = G.subgroup([] if kind == "regular-trivial" else [random_element(G, rng)])
        elif kind == "intransitive-fixed":
            a, b = rng.randrange(3, 5), rng.randrange(3, 5)
            n = a + b
            gens = [_random_perm(rng, list(range(a)), n), _random_perm(rng, list(range(a, n)), n)]
            gens.append(gens[0] * gens[1] * _random_perm(rng, list(range(a)), n))
            G = PermutationGroup(gens)
            H = G.subgroup([random_element(G, rng)])
            if not H.gens or H.gens[0].support().size == n:
                continue
        else:
            n = rng.randrange(4, 7)
            cycle = Permutation([(i + 1) % n for i in range(n)])
            G = PermutationGroup([cycle, _random_perm(rng, rng.sample(range(n), 3), n)])
            H = G.subgroup([cycle] + [random_element(G, rng)] * rng.randrange(2))
        if kind == "every-point" or H.order() < G.order():
            cases.append((G, H))
    return cases


COLUMN_KINDS = ["regular-trivial", "regular-semiregular", "intransitive-fixed", "every-point"]


@pytest.mark.parametrize("one_row", [False, True], ids=["blocks", "one-row-blocks"])
@pytest.mark.parametrize("kind", COLUMN_KINDS)
@pytest.mark.parametrize("seed", range(2))
def test_column_route_matches_the_element_bfs(monkeypatch, seed, kind, one_row):
    """The BFS on the column set Ω numbers the cosets as the element BFS
    does, where Ω is one point (trivial H, regular G), the H-orbits of two
    points (semiregular H), a proper subset of an intransitive G's points
    or every point.  A regular G has its base at a random point, so a
    semiregular H's base point, the least point it moves, often lies in
    another H-orbit."""
    if one_row:
        monkeypatch.setattr(cosets, "BLOCK_ENTRIES", 1)
    rng = random.Random(seed)
    widths = set()
    for G, H in _column_cases(kind, seed):
        omega = _assert_matches_element_bfs(G, H, rng)._omega.tolist()
        base = [lvl.base for lvl in G.levels() + H.levels()]
        labels = H.orbit_labels()
        assert omega == [v for v in range(G.degree) if labels[v] in labels[base]]
        if kind == "regular-trivial":
            assert len(omega) == 1
        elif kind == "regular-semiregular":
            assert len(omega) in (H.order(), 2 * H.order()) and len(omega) < G.degree
            widths.add(len(omega) // H.order())
        elif kind == "intransitive-fixed":
            assert len(omega) < G.degree
        else:
            assert len(omega) == G.degree
    assert kind != "regular-semiregular" or widths == {1, 2}


def test_jordan_proven_g_gets_no_chain_in_a_coset_space():
    """Sym(9), proven by Jordan's theorem, over Sym(8) on its first 8
    points: Ω is every point, and G builds no chain."""
    G = PermutationGroup([Permutation([(i + 1) % 9 for i in range(9)]), g("(0 1)", 9)])
    H = G.subgroup([Permutation([(i + 1) % 8 for i in range(8)] + [8]), g("(0 1)", 9)])
    assert G.order() == 362880 and G._proof is not None
    space = CosetSpace(G, H)
    assert len(space) == 9 and G._levels is None and len(space._omega) == 9
    assert [space.action_of(p).images.tolist() for p in G.gens] == [
        p.images.tolist() for p in space.gen_images
    ]
    # Hx = Hy exactly when 8^x = 8^y
    assert space.cosets_of([g("(7 8)", 9), g("(0 1)(7 8)", 9), g("(0 8)", 9), g("(0 1)", 9)]) == [
        space.coset_of(g("(7 8)", 9))
    ] * 2 + [space.coset_of(g("(0 8)", 9)), 0]
    assert len({space.coset_of(g("(%d 8)" % v, 9)) for v in range(8)} - {0}) == 8
    assert G._levels is None


def test_coset_of_outside_g_raises():
    """x = (0 1) agrees with (0 1 2), a member, on Ω = {0} of
    <(0 1 2)> over the trivial group: each entry point checks membership
    on the whole row, not on the Ω-row alone."""
    G, H = S4(), S4().point_stabilizer(3)
    space = CosetSpace(G.subgroup([g("(0 1 2)", 4)]), G.subgroup([]))
    x = g("(0 1)", 4)
    assert space._omega.tolist() == [0] and x(0) == g("(0 1 2)", 4)(0)
    for call in (space.coset_of, lambda x: space.cosets_of([x]), space.action_of):
        with pytest.raises(ValueError, match="not in G"):
            call(x)
    with pytest.raises(ValueError, match="not in G"):
        space.cosets_of([g("(0 1 2)", 4), x])
    with pytest.raises(ValueError, match="not in G"):
        CosetSpace(G, H).coset_of(g("(0 1)", 5))
    with pytest.raises(ValueError, match="not in G"):
        CosetSpace(G, H).action_of(g("(0 1)", 5))


def test_action_of_raises_on_a_miss_after_the_membership_check():
    """Once g passes the whole-row check, action_of looks the products r·g
    up by their Ω-rows alone: a miss there raises and returns no index."""
    space = CosetSpace(S4().subgroup([g("(0 1 2)", 4)]), S4().subgroup([]))
    assert space._omega.tolist() == [0]
    del space._index[space.reps[2].images[:1].tobytes()]
    with pytest.raises(KeyError):
        space.action_of(space.G.identity())


def test_coset_enumeration_computes_only_the_transversals_it_hits(monkeypatch):
    """The rotations of a 1000-gon are regular of index 2 in its dihedral
    group: enumerating their cosets and one action multiplies by a few u_a,
    not by one per point of the rotations' orbit."""
    n = 1000
    rot = Permutation([(i + 1) % n for i in range(n)])
    flip = Permutation([-i % n for i in range(n)])
    G = PermutationGroup([rot, flip], order=2 * n)
    H = G.subgroup([rot], order=n)
    G.levels(), H.levels()
    calls = []
    transversal = Orbit.transversal
    monkeypatch.setattr(Orbit, "transversal", lambda lvl, a: calls.append(a) or transversal(lvl, a))
    space = CosetSpace(G, H)
    assert len(space) == 2
    assert space.action_of(rot * flip).images.tolist() == [1, 0]
    assert 0 < len(calls) <= len(space) * len(G.gens)


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


def _fixpoint_rounds(G, H):
    """The rounds of the core fixpoint on H's elements, on plain key sets:
    each round drops every element with a conjugate by a generator of G
    outside the rest."""
    alive = closure_elements(H.gens, H.degree)
    rounds = 0
    while doomed := [
        k for k, p in alive.items() if any(p.conj(x).key() not in alive for x in G.gens)
    ]:
        for k in doomed:
            del alive[k]
        rounds += 1
    return rounds


def _core_cases():
    """(G, H) with H <= G <= Sym(4..8): S4's Klein four, transposition and
    3-cycle subgroups; a trivial H; H = G; S3 in S4 and S4 in S5, whose
    fixpoints need 2 and 3 rounds; and seeded G of order up to 120 with H
    generated by one or two random elements."""
    G = S4()
    cases = [(G, G.subgroup(sub)) for sub in (
        [g("(0 1)(2 3)", 4), g("(0 2)(1 3)", 4)], [g("(0 1)", 4)], [g("(0 1 2)", 4)],
    )]
    cases += [(G, G.subgroup([])), (G, G)]
    for n, gens, sub in (
        (4, ["(0 1 3)", "(1 2)"], ["(0 1)", "(0 1 2)"]),
        (5, ["(0 2 1 3)", "(1 3 4)"], ["(0 1 2 3)", "(1 2 3)"]),
    ):
        G = PermutationGroup([g(c, n) for c in gens])
        cases.append((G, G.subgroup([g(c, n) for c in sub])))
    rng = random.Random(2600)
    while len(cases) < 47:
        n = rng.randrange(4, 9)
        gens = []
        for _ in range(2):
            moved = rng.sample(range(n), rng.randrange(2, n + 1))
            imgs = list(range(n))
            for a, b in zip(moved, rng.sample(moved, len(moved))):
                imgs[a] = b
            gens.append(Permutation(imgs))
        G = PermutationGroup(gens, n)
        if 2 <= G.order() <= 120:
            sub = [random_element(G, rng) for _ in range(rng.choice([1, 2]))]
            cases.append((G, G.subgroup(sub)))
    return cases


@pytest.mark.parametrize("route", ["fixpoint", "combined"])
def test_core_matches_the_intersection_of_conjugates(route):
    """Both core strategies against the intersection of H^g over every g in
    G, on cases that include trivial and nontrivial cores and fixpoints of
    0 to 3 rounds."""
    find = cosets._core_fixpoint if route == "fixpoint" else cosets._core_via_combined
    rounds, nontrivial = [], 0
    for G, H in _core_cases():
        want = core_by_conjugates(G.gens, H.gens, G.degree)
        K = find(G, H)
        assert set(closure_elements(K.gens, G.degree)) == want
        assert K.order() == len(want)
        rounds.append(_fixpoint_rounds(G, H))
        nontrivial += len(want) > 1
    assert rounds[3:7] == [0, 0, 2, 3]
    assert 0 < nontrivial < len(rounds)


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


def _base_key(p, base):
    """The key ``small_subgroups`` gives p: its images of the base points,
    an int for a base of one point."""
    imgs = [int(p.images[b]) for b in base]
    return imgs[0] if len(base) == 1 else tuple(imgs)


def test_small_subgroups_join_only_within_the_bound(monkeypatch):
    """Every join made has a product set S<p> within the bound, and the
    subgroup lists, in order, are the lattice's subgroups of orders dividing
    the bound."""
    real, joins = cosets._coset_join, []

    def join(key_set, table, width, gens, limit):
        base = table[:width]  # the identity's images of the base points
        p = Permutation(gens[-1])
        cyclic = {_base_key(p**k, base) for k in range(p.order())}
        assert len(key_set) * len(cyclic) <= limit * len(key_set & cyclic)
        joins.append(len(key_set))
        return real(key_set, table, width, gens, limit)

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


def test_coset_join_matches_closure_on_longer_bases():
    """_coset_join against closure_elements on seeded (S, p) in groups with a
    base of two points or more: the base keys of <S, p> while they fit the
    limit, None past it."""
    rng = random.Random(63)
    done = 0
    while done < 12:
        n = rng.randrange(4, 8)
        G = PermutationGroup([Permutation(rng.sample(range(n), n)) for _ in range(2)], n)
        base = [lvl.base for lvl in G.levels()]
        if len(base) < 2:
            continue
        s_gens = [random_element(G, rng) for _ in range(rng.choice([1, 2]))]
        S = list(closure_elements(s_gens, n).values())  # identity first
        p = random_element(G, rng)
        closure = closure_elements(s_gens + [p], n)
        if p.key() in {s.key() for s in S} or len(closure) > 120:
            continue
        keys = frozenset(_base_key(q, base) for q in closure.values())
        assert len(keys) == len(closure)
        key_set = frozenset(_base_key(s, base) for s in S)
        table = [int(s.images[b]) for s in S for b in base]
        gens = [q.images.tolist() for q in s_gens + [p]]
        for limit in range(len(S), len(closure) + 2):
            got = cosets._coset_join(key_set, table, len(base), gens, limit)
            assert got == (keys if len(closure) <= limit else None)
        done += 1


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
