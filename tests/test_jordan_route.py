"""The Jordan route against the chain and independent oracles.

A group that Jordan's theorem proves Alt(n) or Sym(n) must report the
order, giant type and membership that its chain gives, build that very
chain when its levels are read, and never be proven when it is no giant:
the 2-transitive non-giants of degree 8-11 below, and an imprimitive group
whose p-cycles have p <= n/2.  The bare builds run with the route switched
off (``JORDAN_MIN_DEGREE`` past every degree here).
"""

import random
from math import factorial

import pytest

from hatlab import cosets, group
from hatlab.cosets import is_primitive
from hatlab.group import PermutationGroup, _jordan_cycle, _jordan_primes, _Rattle
from hatlab.perm import Permutation

from oracles import closure_order


def g(s, n=None):
    return Permutation.parse(s, n)


def _chain(G):
    return [(lvl.base, list(lvl.points), [p.key() for p in lvl.gens]) for lvl in G.levels()]


def _bare(monkeypatch, gens, degree):
    """The group of gens certified without the Jordan route."""
    with monkeypatch.context() as m:
        m.setattr(group, "JORDAN_MIN_DEGREE", 10**9)
        G = PermutationGroup(gens, degree)
        G.levels()
    return G


def _shuffled(rng, n):
    imgs = list(range(n))
    rng.shuffle(imgs)
    return Permutation(imgs)


def _even(rng, n):
    p = _shuffled(rng, n)
    return p if p.is_even() else p * Permutation.from_cycles(n, [(0, 1)])


def _odd(rng, n):
    return _even(rng, n) * Permutation.from_cycles(n, [(0, 1)])


def _affine_element(rng, p):
    """A random element x -> ax + b of AGL(1, p), p prime."""
    a, b = rng.randrange(1, p), rng.randrange(p)
    return Permutation([(a * x + b) % p for x in range(p)])


def _wreath_element(rng, a, b):
    """A random element of Sym(a) wr Sym(b) on the blocks {ia, ..., ia+a-1}."""
    blocks = _shuffled(rng, b)
    imgs = []
    for i in range(b):
        inner = _shuffled(rng, a)
        imgs += [blocks(i) * a + inner(j) for j in range(a)]
    return Permutation(imgs)


def _padded(p, spots, degree):
    """p on degree points, moving the points ``spots`` (sorted) as p moves
    0, ..., len(spots) - 1."""
    imgs = list(range(degree))
    for i, s in enumerate(spots):
        imgs[s] = spots[p(i)]
    return Permutation(imgs)


def _seeded_transitive_groups(seed):
    """Generators of transitive groups on n = 8..12 moved points: random
    pairs (giants of either parity), random even pairs, and random pairs or
    triples in an imprimitive wreath product or, for n = 11, in AGL(1, 11);
    some spread over a larger domain."""
    rng = random.Random(seed)
    out = []
    for n in range(8, 13):
        conj = _shuffled(rng, n)
        draws = [
            [_shuffled(rng, n), _shuffled(rng, n)],
            [_even(rng, n), _even(rng, n)],
        ]
        if n == 11:
            draws += [[_affine_element(rng, n).conj(conj) for _ in range(k)] for k in (2, 3)]
        else:
            a = next(d for d in range(2, n) if n % d == 0)
            draws += [[_wreath_element(rng, a, n // a).conj(conj) for _ in range(2)],
                      [_wreath_element(rng, n // a, a).conj(conj) for _ in range(3)]]
        for gens in draws:
            if len(PermutationGroup(gens).orbit(0)) != n:
                continue
            degree = n + rng.randrange(3)
            spots = sorted(rng.sample(range(degree), n))
            out.append([_padded(p, spots, degree) for p in gens])
    return out


@pytest.mark.parametrize("seed", range(6))
def test_seeded_transitive_groups_match_the_chain(seed, monkeypatch):
    proven = 0
    for gens in _seeded_transitive_groups(seed):
        G = PermutationGroup(gens)
        bare = _bare(monkeypatch, gens, G.degree)
        assert G.order() == bare.order()
        assert G.giant_type() == bare.giant_type()
        if G._proof is not None:
            proven += 1
            assert G._levels is None and G.giant_type() is not None
            assert _chain(G) == _chain(bare)
        else:
            assert G._levels is not None
    assert proven >= 3


def _gf8_mul(u, v):
    """Product in GF(8) = F2[x]/(x^3 + x + 1), elements as bit vectors."""
    out = 0
    for i in range(3):
        if v >> i & 1:
            out ^= u << i
    for i in (4, 3):
        if out >> i & 1:
            out ^= 0b1011 << (i - 3)
    return out


def _pgl27():
    return [Permutation([1, 2, 3, 4, 5, 6, 0, 7]), Permutation([0, 3, 6, 2, 5, 1, 4, 7]),
            Permutation([7, 6, 3, 2, 5, 4, 1, 0])]


def _agl18():
    """v -> v + 1 and v -> x v on GF(8)."""
    return [Permutation([v ^ 1 for v in range(8)]), Permutation([_gf8_mul(v, 2) for v in range(8)])]


def _psl28():
    """z -> z + 1, z -> x z and z -> 1/z on the projective line GF(8) + {8}."""
    inv = {v: next(w for w in range(1, 8) if _gf8_mul(v, w) == 1) for v in range(1, 8)}
    inv.update({0: 8, 8: 0})
    return [Permutation([v ^ 1 for v in range(8)] + [8]),
            Permutation([_gf8_mul(v, 2) for v in range(8)] + [8]),
            Permutation([inv[v] for v in range(9)])]


def _agl23():
    """Translations and GL(2,3) generators on F3^2, (a, b) as 3a + b."""
    def affine(m, t):
        return Permutation([3 * ((m[0] * (v // 3) + m[1] * (v % 3) + t[0]) % 3)
                            + (m[2] * (v // 3) + m[3] * (v % 3) + t[1]) % 3 for v in range(9)])
    return [affine((1, 0, 0, 1), (1, 0)), affine((1, 1, 0, 1), (0, 0)),
            affine((1, 0, 1, 1), (0, 0)), affine((2, 0, 0, 1), (0, 0))]


def _m11():
    return [g("(0 1 2 3 4 5 6 7 8 9 10)"), g("(2 6 10 7)(3 9 4 5)", 11)]


@pytest.mark.parametrize("gens, order", [
    (_pgl27(), 336), (_agl18(), 56), (_psl28(), 504), (_agl23(), 432), (_m11(), 7920),
], ids=["PGL(2,7)", "AGL(1,8)", "PSL(2,8)", "AGL(2,3)", "M11"])
def test_two_transitive_non_giants_are_never_certified(gens, order):
    n = gens[0].degree
    assert closure_order(gens, n) == order
    G = PermutationGroup(gens)
    assert G.order() == order and G._proof is None and G.giant_type() is None
    # the chain looked 2-transitive, so samples were tested
    assert [len(lvl) for lvl in G.levels()[:2]] == [n, n - 1]
    fresh = PermutationGroup(gens)
    assert not fresh.prove_giant() and not fresh.is_certified()
    rattle, primes = _Rattle(gens, random.Random(3)), _jordan_primes(n)
    assert not any(_jordan_cycle(rattle.sample().images, primes) for _ in range(2000))


def test_imprimitive_p_cycle_does_not_certify():
    """S5 wr S2 on 10 points: transitive, with 5-cycles, but 5 <= 10/2."""
    gens = [g("(0 1 2 3 4)", 10), g("(0 1)", 10), g("(0 5)(1 6)(2 7)(3 8)(4 9)")]
    assert _jordan_primes(10) == {7}
    assert not _jordan_cycle(gens[0].images, _jordan_primes(10))
    G = PermutationGroup(gens)
    assert G.is_transitive() and not is_primitive(G)
    assert not PermutationGroup(gens).prove_giant()
    assert G.order() == 120 ** 2 * 2 and G._proof is None
    rattle = _Rattle(gens, random.Random(4))
    samples = [rattle.sample() for _ in range(2000)]
    assert any(p.cycle_type() == (5,) for p in samples)
    assert not any(_jordan_cycle(p.images, _jordan_primes(10)) for p in samples)


def test_intransitive_group_with_a_jordan_cycle_is_not_certified():
    """Sym(9) x C3 on 12 moved points: Sym(9) has 7-cycles, and 7 is the
    Jordan prime of 12, but the group is not transitive."""
    gens = [g("(0 1 2 3 4 5 6 7 8)", 12), g("(0 1)", 12), g("(9 10 11)")]
    G = PermutationGroup(gens)
    assert G.order() == factorial(9) * 3 and G._proof is None and G.giant_type() is None
    assert [len(lvl) for lvl in G.levels()[:2]] == [9, 8]
    assert not PermutationGroup(gens).prove_giant()


def test_jordan_primes():
    def primes(lo, hi):
        return {p for p in range(lo, hi + 1) if p > 1 and all(p % d for d in range(2, p))}

    for n in range(8, 80):
        assert _jordan_primes(n) == primes(n // 2 + 1, n - 3) != set()
    assert _jordan_primes(7) == set()


@pytest.mark.parametrize("kind", ["alt", "sym"])
def test_membership_from_the_proof_matches_the_chain(kind, monkeypatch):
    rng = random.Random(11)
    degree, n = 13, 10
    pick = _even if kind == "alt" else _odd
    moved = sorted(rng.sample(range(degree), n))
    gens = [_padded(pick(rng, n), moved, degree) for _ in range(2)]
    G = PermutationGroup(gens)
    assert G.order() == factorial(n) // (2 if kind == "alt" else 1)
    assert G._proof is not None and G.giant_type() == (kind, n)
    bare = _bare(monkeypatch, gens, degree)
    assert sorted(group._moved_points(gens)) == moved
    fixed = [v for v in range(degree) if v not in moved]
    seen = {True: 0, False: 0}
    for _ in range(300):
        local = _shuffled(rng, n)
        imgs = list(range(degree))
        for i, v in enumerate(moved):
            imgs[v] = moved[local(i)]
        p = Permutation(imgs)
        if rng.randrange(3) == 0:  # also move a fixed point
            p = p * Permutation.from_cycles(degree, [(rng.choice(moved), rng.choice(fixed))])
        assert (p in G) == (p in bare)
        seen[p in G] += 1
    assert G._levels is None and min(seen.values()) > 20


def test_proof_past_its_bound_raises():
    gens = [g("(0 1 2 3 4 5 6 7)"), g("(0 1)", 8)]
    with pytest.raises(ValueError, match="proven order 40320 exceeds its bound 100"):
        PermutationGroup(gens, bound=100).prove_giant()


def test_primitivity_of_giants_skips_most_block_systems(monkeypatch):
    """A chainless giant of degree 72 takes the first BETAS_BEFORE_SAMPLES
    block systems and then a Jordan proof, which it keeps; a proven one
    takes none; a degree-9 group has no more betas than that, so it is not
    sampled."""
    calls = []
    real = cosets.block_system
    monkeypatch.setattr(cosets, "block_system", lambda G, b: calls.append(b) or real(G, b))
    gens = [g("(0 1 2)", 72), Permutation.from_cycles(72, [tuple(range(1, 72))])]
    fresh = PermutationGroup(gens)
    assert is_primitive(fresh)
    assert calls == list(range(1, cosets.BETAS_BEFORE_SAMPLES + 1))
    assert fresh.is_certified() and fresh._levels is None
    assert fresh.order() == factorial(72) // 2 and fresh.giant_type() == ("alt", 72)
    calls.clear()
    proven = PermutationGroup(gens)
    assert proven.order() == factorial(72) // 2 and proven._levels is None
    assert is_primitive(proven) and calls == []
    small = PermutationGroup([g("(0 1 2)", 9), g("(0 1 2 3 4 5 6 7 8)")])
    assert is_primitive(small) and calls == list(range(1, 9)) and not small.is_certified()
