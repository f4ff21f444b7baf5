import math
import random

import numpy as np
import pytest

from hatlab import group as group_mod
from hatlab.group import ElementTable, PermutationGroup, _level_gens, closure_elements
from hatlab.perm import Permutation

from oracles import closure_order, orbit_points, random_element
from test_jordan_route import _bare, _chain


def g(s, n=None):
    return Permutation.parse(s, n)


def test_chain_order_small_derived_from_closure():
    gens = [g("(0 1 2)", 4), g("(1 2 3)", 4)]
    G = PermutationGroup(gens)
    assert closure_order(gens, 4) == 12
    assert G.order() == 12


def test_chain_order_s5():
    gens = [g("(0 1 2 3 4)"), g("(0 1)", 5)]
    assert closure_order(gens, 5) == 120
    assert PermutationGroup(gens).order() == 120


def test_trivial_group_on_5_points():
    G = PermutationGroup([], degree=5)
    assert G.order() == 1
    assert not G.gens
    assert list(G.orbit(2).points) == [2]


def test_membership():
    G = PermutationGroup([g("(0 1 2 3 4)"), g("(0 1)", 5)])
    assert g("(0 4)(1 3)", 5) in G
    A = PermutationGroup([g("(0 1 2)", 4), g("(1 2 3)", 4)])
    assert g("(0 1)", 4) not in A
    assert g("(0 1)(2 3)", 4) in A


def test_elements_enumeration_matches_closure():
    gens = [g("(0 1 2)", 4), g("(0 1)(2 3)", 4)]
    G = PermutationGroup(gens)
    elems = {p.key() for p in G.elements()}
    assert elems == set(closure_elements(gens, 4).keys())


def test_orbit_cyclic():
    G = PermutationGroup([g("(0 1 2 3)")])
    orb = G.orbit(0)
    assert sorted(orb.points) == [0, 1, 2, 3]
    for a in orb.points:
        t = orb.transversal(a)
        assert t(0) == a
        assert t in G


def test_orbit_of_identity_group():
    G = PermutationGroup([], degree=5)
    assert list(G.orbit(2).points) == [2]


def test_transitivity_profile_cycle():
    G = PermutationGroup([g("(0 1 2 3 4)")])
    prof = G.transitivity_profile()
    assert prof == {"transitive": True, "semiregular": True, "regular": True}


def test_transitivity_profile_s3():
    G = PermutationGroup([g("(0 1 2)"), g("(0 1)", 3)])
    prof = G.transitivity_profile()
    assert prof["transitive"] is True
    assert prof["semiregular"] is False
    assert prof["regular"] is False


def test_point_stabilizer_s4():
    G = PermutationGroup([g("(0 1 2 3)"), g("(0 1)", 4)])
    S = G.point_stabilizer(3)
    assert S.order() == 6
    assert all(p(3) == 3 for p in S.gens)
    # orbit-stabilizer
    assert len(G.orbit(3)) * S.order() == G.order()


def test_point_stabilizer_regular_group_is_trivial():
    G = PermutationGroup([g("(0 1 2 3 4)")])
    assert G.point_stabilizer(2).order() == 1


def test_big_alternating_order():
    G = PermutationGroup([g("(0 1 2)", 72), Permutation.from_cycles(72, [tuple(range(1, 72))])])
    assert G.order() == math.factorial(72) // 2


def test_big_alternating_point_stabilizer(monkeypatch):
    """The claimed stabilizer Alt(71) of Alt(72) is proven by Jordan's
    theorem, not given a chain; read, its chain is the bare one."""
    G = PermutationGroup([g("(0 1 2)", 72), Permutation.from_cycles(72, [tuple(range(1, 72))])])
    S = G.point_stabilizer(0)
    assert S.order() == math.factorial(71) // 2
    assert all(p(0) == 0 for p in S.gens)
    assert S._proof is not None and S._levels is None
    assert _chain(S) == _chain(_bare(monkeypatch, S.gens, S.degree))


def test_known_order_build():
    gens = [g("(0 1 2 3 4)"), g("(0 1)", 5)]
    G = PermutationGroup(gens, order=120)
    assert G.order() == 120
    assert g("(2 3 4)", 5) in G
    # an unreachable claimed order is detected
    with pytest.raises(ValueError):
        PermutationGroup(gens, order=240).order()


def test_subgroup_membership_verified():
    G = PermutationGroup([g("(0 1 2)", 4), g("(1 2 3)", 4)])
    with pytest.raises(ValueError):
        G.subgroup([g("(0 1)", 4)])
    S = G.subgroup([g("(0 1)(2 3)", 4)])
    assert S.order() == 2
    assert S.parent is G


def test_orbit_stabilizer_randomized():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randrange(4, 9)
        gens = []
        for _ in range(2):
            imgs = list(range(n))
            rng.shuffle(imgs)
            gens.append(Permutation(imgs))
        G = PermutationGroup(gens)
        assert G.order() == closure_order(gens, n)
        v = rng.randrange(n)
        assert len(G.orbit(v)) * G.point_stabilizer(v).order() == G.order()


def test_random_element_is_member():
    G = PermutationGroup([g("(0 1 2 3 4)"), g("(0 1)", 5)])
    rng = random.Random(3)
    for _ in range(10):
        assert random_element(G, rng) in G


# -- incremental Schreier trees against independent oracles -----------------


def _check_trees(G, closure):
    """Chain order, level orbits, transversals and tree depths of G against
    the closure (element keys) and a plain forward BFS orbit."""
    levels = G.levels()
    assert G.order() == len(closure)
    bases = [lvl.base for lvl in levels]
    for i, lvl in enumerate(levels):
        ref = orbit_points(_level_gens(levels, i), lvl.base)
        assert set(lvl.points) == set(ref)
        assert len(lvl.points) == len(ref) == len(lvl.nav)
        assert lvl.points_arr.tolist() == lvl.points
        bound = 2 * len(lvl.tree_gens) + 2
        for a in lvl.points:
            u = lvl.transversal(a)
            assert u(lvl.base) == a
            assert all(u(b) == b for b in bases[:i])
            assert u.key() in closure
            hops, b = 0, a
            while b != lvl.base:
                idx, pol = lvl.nav[b]
                b = lvl.tree_gens[idx][1 - pol](b)
                hops += 1
            assert lvl.depth[a] == hops <= bound


def _random_pair(rng, n):
    gens = []
    for _ in range(2):
        imgs = list(range(n))
        rng.shuffle(imgs)
        gens.append(Permutation(imgs))
    return gens


@pytest.mark.parametrize("seed", range(4))
def test_incremental_trees_match_oracles(seed, monkeypatch):
    rng = random.Random(1000 + seed)
    cases = [(n, _random_pair(rng, n)) for n in (4, 4, 5, 5, 6, 6, 7, 8)]
    if seed == 0:
        cases.append((9, _random_pair(rng, 9)))
    for n, gens in cases:
        closure = closure_elements(gens, n)
        _check_trees(PermutationGroup(gens), closure)
        # no random sampling: the Schreier pass alone completes the chain
        with monkeypatch.context() as m:
            m.setattr(group_mod, "_STATIONARY_ROUNDS", 0)
            _check_trees(PermutationGroup(gens), closure)


def test_incremental_trees_depth_overflow_rebuilds(monkeypatch):
    # the reflection comes first and leaves a two-point orbit; extending it
    # by the 31-cycle walks a path past the depth bound mid-extension
    n = 31
    cycle = Permutation([(i + 1) % n for i in range(n)])
    reflection = Permutation([(-i) % n for i in range(n)])
    failed = []
    real_bfs = group_mod.Orbit._bfs

    def counting_bfs(self, old, newest):
        ok = real_bfs(self, old, newest)
        if not ok:
            failed.append(old)
        return ok

    monkeypatch.setattr(group_mod.Orbit, "_bfs", counting_bfs)
    G = PermutationGroup([reflection, cycle])
    top = G.levels()[0]
    assert any(old > 1 for old in failed)
    assert len(top.tree_gens) > len(_level_gens(G.levels(), 0))  # shortcuts
    _check_trees(G, closure_elements([cycle, reflection], n))
    assert G.order() == 62


def test_schreier_pass_completes_pgl27(monkeypatch):
    # PGL(2,7) on the projective line, infinity = 7: order 336 is neither
    # |Sym(8)| nor |Alt(8)|, and no order is claimed
    gens = [g("(0 1 2 3 4 5 6)", 8), g("(1 3 2 6 4 5)", 8), g("(0 7)(1 6)(2 3)(4 5)")]
    calls = []
    real = PermutationGroup._schreier_complete

    def counting(self, levels):
        calls.append(len(levels))
        return real(self, levels)

    monkeypatch.setattr(PermutationGroup, "_schreier_complete", counting)
    monkeypatch.setattr(group_mod, "_STATIONARY_ROUNDS", 0)
    G = PermutationGroup(gens)
    levels = G.levels()
    closure = closure_elements(gens, 8)
    assert len(closure) == 336
    _check_trees(G, closure)
    assert calls
    assert len(_level_gens(levels, 0)) > len(gens)
    assert g("(0 1)", 8) not in G


def _chain_shape(G):
    return [
        (lvl.base, list(lvl.points), [p.key() for p in lvl.gens], len(lvl.tree_gens))
        for lvl in G.levels()
    ]


def test_bottom_check_keeps_the_chains_of_the_scan(monkeypatch):
    """The Schreier pass gives the same chain, trees and strong generators
    with the bottom-level check as with every bottom level scanned."""
    pgl27 = [g("(0 1 2 3 4 5 6)", 8), g("(1 3 2 6 4 5)", 8), g("(0 7)(1 6)(2 3)(4 5)")]
    # PGL(2,7) again, from an involution and an 8-cycle: here, unlike above,
    # the pass meets a bottom level whose point stabilizer is not trivial
    pair = [g("(0 2)(3 6)(4 5)", 8), g("(0 6 2 7 1 4 3 5)")]
    rng = random.Random(1300)
    cases = [(pgl27, 0), (pair, 0)]
    cases += [(_random_pair(rng, n), rounds) for n in range(4, 10) for rounds in (0, 14)]
    real = group_mod.Orbit.schreier_trivial
    fallbacks = []
    for gens, rounds in cases:
        verdicts = []

        def recording(self, sgens):
            verdicts.append(real(self, sgens))
            return verdicts[-1]

        with monkeypatch.context() as m:
            m.setattr(group_mod, "_STATIONARY_ROUNDS", rounds)
            m.setattr(group_mod.Orbit, "schreier_trivial", recording)
            checked = _chain_shape(PermutationGroup(gens))
            m.setattr(group_mod.Orbit, "schreier_trivial", lambda self, sgens: False)
            scanned = _chain_shape(PermutationGroup(gens))
        assert checked == scanned
        fallbacks.append(verdicts.count(False))
    assert fallbacks[1] > 0


def test_claimed_order_without_generators_is_checked():
    with pytest.raises(ValueError):
        PermutationGroup([], 4, order=5).order()
    assert PermutationGroup([], 4, order=1).order() == 1
    # a stream that generates less than its claim, and a claim past a Jordan proof
    stream = iter([g("(0 1 2 3)"), g("(0 2)", 4)])
    with pytest.raises(ValueError, match="chain order 8 is not the claimed 24"):
        PermutationGroup.from_generator_stream(stream, 4, order=24)
    alt72 = [g("(0 1 2)", 72), Permutation.from_cycles(72, [tuple(range(1, 72))])]
    with pytest.raises(ValueError, match="proven order %d is not" % (math.factorial(72) // 2)):
        PermutationGroup(alt72, order=math.factorial(72)).order()


@pytest.mark.parametrize("seed", range(3))
def test_generator_stream_over_sorted_elements(seed):
    rng = random.Random(2000 + seed)
    done = 0
    while done < 5:
        n = rng.randrange(3, 8)
        gens = [Permutation(rng.sample(range(n), n)) for _ in range(rng.choice([1, 2]))]
        closure = closure_elements(gens, n)
        if not 2 <= len(closure) <= 720:
            continue
        G = PermutationGroup.from_generator_stream(
            (p for _, p in sorted(closure.items())), n, order=len(closure)
        )
        assert G.order() == len(closure)
        assert all(p in G for p in closure.values())
        for _ in range(20):
            p = Permutation(rng.sample(range(n), n))
            assert (p in G) == (p.key() in closure)
        done += 1


def _on_points(n, points, rng):
    """A random permutation of degree n moving only ``points``."""
    imgs = list(range(n))
    for a, b in zip(points, rng.sample(points, len(points))):
        imgs[a] = b
    return Permutation(imgs)


@pytest.mark.parametrize("seed", range(3))
def test_element_table_matches_keys_and_conj(seed):
    """``indices`` and ``conjugates`` against a dict of ``key()``s and
    ``Permutation.conj``, on seeded groups of degree 4-9 and 250-300 (where
    image bytes and values sort differently) listed in a shuffled order:
    rows outside the table read -1, the caller's order is kept, and no
    generators give an empty (0, m) map."""
    rng = random.Random(2700 + seed)
    done = 0
    while done < 4:
        n = rng.randrange(250, 300) if done % 2 else rng.randrange(4, 10)
        points = rng.sample(range(n), rng.randrange(3, min(n, 7)))
        closure = closure_elements([_on_points(n, points, rng) for _ in range(2)], n)
        if not 2 <= len(closure) < math.factorial(len(points)):
            continue
        elems = list(closure.values())
        rng.shuffle(elems)
        table = ElementTable(elems)
        index = {p.key(): i for i, p in enumerate(elems)}
        assert table.elems is elems and table.identity == index[Permutation.identity(n).key()]
        assert table.indices(table.images).tolist() == list(range(len(elems)))
        probes = elems + [_on_points(n, points, rng) for _ in range(20)]
        rng.shuffle(probes)
        want = [index.get(p.key(), -1) for p in probes]
        assert -1 in want
        assert table.indices(np.array([p.images for p in probes])).tolist() == want
        xs = [_on_points(n, points, rng) for _ in range(3)] + [elems[1]]
        conj = table.conjugates(xs)
        assert conj.tolist() == [[index.get(p.conj(x).key(), -1) for p in elems] for x in xs]
        assert table.conjugates([]).shape == (0, len(elems))
        done += 1


def test_element_table_rows_with_a_long_common_prefix():
    """Rows that agree on their first 297 images, 1,188 bytes: the 3-cycles
    of the last three points are found, the transpositions are not, and so
    is a row past the last key."""
    n = 300
    A3 = closure_elements([Permutation.from_cycles(n, [(297, 298, 299)])], n)
    table = ElementTable(list(A3.values()))
    S3 = closure_elements([Permutation.from_cycles(n, [c]) for c in ((297, 298), (298, 299))], n)
    probes = list(S3.values()) + [Permutation.from_cycles(n, [(0, 255)])]
    want = [table.elems.index(p) if p.key() in A3 else -1 for p in probes]
    assert sorted(want) == [-1, -1, -1, -1, 0, 1, 2]
    assert table.indices(np.array([p.images for p in probes])).tolist() == want


@pytest.mark.parametrize("seed", range(3))
def test_schreier_generators_skip_only_identities(seed):
    """The Schreier generators are the direct u_a * g * u_{a^g}^-1 with some
    identities left out: the same non-identity ones in the same order, for
    free orbits and for chain levels (whose trees hold shortcuts)."""
    rng = random.Random(1200 + seed)
    skipped = 0
    for _ in range(6):
        n = rng.randrange(4, 10)
        gens = [Permutation(rng.sample(range(n), n)) for _ in range(rng.choice([1, 2, 3]))]
        G = PermutationGroup(gens, n)
        levels = G.levels()
        cases = [(G.orbit(rng.randrange(n)), G.gens)]
        cases += [(lvl, _level_gens(levels, i)) for i, lvl in enumerate(levels)]
        for orb, sgens in cases:
            direct = [
                orb.transversal(a) * s * orb.transversal(s(a)).inverse()
                for a in orb.points
                for s in sgens
            ]
            stream = list(orb.schreier_generators(sgens))
            skipped += len(direct) - len(stream)
            assert [p for p in stream if not p.is_identity()] == [
                p for p in direct if not p.is_identity()
            ]
    assert skipped > 0


def _orbit_label_cases(rng):
    """(generators, degree): seeded sets of degree 0-40 whose generators move
    random subsets, no generators, one shuffled 600-cycle with fixed points,
    and Alt(72) = <(0 1 2), (1 2 ... 71)>."""
    cases = [([], 0), ([], 6), ([g("(2 5)", 9)], 9)]
    for _ in range(80):
        n = rng.randrange(41)
        gens = []
        for _ in range(rng.randrange(4)):
            moved = rng.sample(range(n), rng.randrange(n + 1))
            images = list(range(n))
            for a, b in zip(moved, rng.sample(moved, len(moved))):
                images[a] = b
            gens.append(Permutation(images))
        cases.append((gens, n))
    cycle = rng.sample(range(610), 600)
    images = list(range(610))
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        images[a] = b
    cases.append(([Permutation(images)], 610))
    cases.append(([g("(0 1 2)", 72), g("(%s)" % " ".join(map(str, range(1, 72))), 72)], 72))
    return cases


@pytest.mark.parametrize("entries", [None, 16])
def test_orbit_labels_match_bfs_oracle(entries, monkeypatch):
    """Also with blocks of at most 16 image entries, so one generator or a
    few per block."""
    if entries:
        monkeypatch.setattr(group_mod, "LABEL_BLOCK_ENTRIES", entries)
    for gens, n in _orbit_label_cases(random.Random(2200)):
        labels = group_mod.orbit_labels([p.images for p in gens], n)
        G = PermutationGroup(gens, n)
        assert G.orbit_labels().tolist() == labels.tolist()
        orbits = {}
        for v in range(n):
            orbit = sorted(orbit_points(gens, v))
            assert labels[v] == orbit[0]
            orbits[orbit[0]] = orbit
        assert [orb.tolist() for orb in G.orbits()] == [orbits[v] for v in sorted(orbits)]
        assert G.is_transitive() == (len(orbits) <= 1)
