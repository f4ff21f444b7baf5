import copy
import random
from collections import Counter
from itertools import permutations

import pytest

from hatlab import normalizers

from hatlab.examples import _example_42_setting
from hatlab.group import PermutationGroup, ResourceExhausted
from hatlab.normalizers import SymNormalizerData, normalizer
from hatlab.perm import Permutation

from oracles import (
    automorphisms_by_images,
    dfs_realizations,
    element_scan_normalizer,
    random_element,
    realization_bound,
)


def g(s, n=None):
    return Permutation.parse(s, n)


def sym(n):
    return PermutationGroup(
        [Permutation.from_cycles(n, [tuple(range(n))]), g("(0 1)", n)]
    )


def test_normalizer_of_4cycle_in_s4():
    G = sym(4)
    S = G.subgroup([g("(0 1 2 3)")])
    N = normalizer(G, S)
    oracle = element_scan_normalizer(list(G.elements()), list(S.elements()))
    assert N.order() == len(oracle) == 8


def test_normalizer_of_self():
    G = sym(4)
    assert normalizer(G, G).order() == 24


def test_normalizer_5cycle_in_s5_is_frobenius():
    from hatlab.signatures import group_name

    G = sym(5)
    S = G.subgroup([g("(0 1 2 3 4)")])
    N = normalizer(G, S)
    assert N.order() == 20
    assert group_name(N) == "F5"
    oracle = element_scan_normalizer(list(G.elements()), list(S.elements()))
    assert N.order() == len(oracle)


def roots(data, targets):
    """The square-root stream of ``data`` as image lists, with its blocks;
    every block's squares are checked against its rows."""
    blocks = list(data.square_roots(targets))
    for rows, squares in blocks:
        assert squares.tolist() == [[r[r[a]] for a in range(len(r))] for r in rows.tolist()]
    return [r for rows, _ in blocks for r in rows.tolist()], blocks


def test_normalizer_in_sym_of_cyclic_5():
    S = PermutationGroup([g("(0 1 2 3 4)")])
    N, _ = roots(SymNormalizerData(S), list(sym(5).elements()))
    assert len(N) == 20
    oracle = element_scan_normalizer(list(sym(5).elements()), list(S.elements()))
    assert sorted(N) == sorted(p.images.tolist() for p in oracle)


def test_normalizer_in_sym_of_full_symmetric():
    S = sym(4)
    N, _ = roots(SymNormalizerData(S), list(S.elements()))
    assert len(N) == 24


def test_normalizer_in_sym_semiregular_z3():
    S = PermutationGroup([g("(0 1 2)(3 4 5)")])
    N, _ = roots(SymNormalizerData(S), list(sym(6).elements()))
    oracle = element_scan_normalizer(list(sym(6).elements()), list(S.elements()))
    assert sorted(N) == sorted(p.images.tolist() for p in oracle)


def test_normalizer_in_sym_matches_scan_on_random_small_groups():
    """With every permutation a target, the stream is N_Sym(n)(S), each
    element once."""
    rng = random.Random(5)
    sym_elems = {n: list(sym(n).elements()) for n in (4, 5, 6)}
    done = 0
    while done < 6:
        n = rng.choice([4, 5, 6])
        gens = []
        for _ in range(rng.choice([1, 2])):
            imgs = list(range(n))
            rng.shuffle(imgs)
            gens.append(Permutation(imgs))
        S = PermutationGroup(gens, n)
        if S.order() == 1:
            continue
        oracle = {p.key() for p in element_scan_normalizer(sym_elems[n], list(S.elements()))}
        N, _ = roots(SymNormalizerData(S), sym_elems[n])
        stream = [Permutation(r).key() for r in N]
        assert len(stream) == len(set(stream))
        assert set(stream) == oracle
        done += 1


def _check_automorphisms_against_oracle(S):
    data = SymNormalizerData(S)
    auts = data.automorphisms()
    assert len(auts) == len(set(auts))
    # automorphisms() keeps the automorphisms that preserve cycle types,
    # the only ones conjugation inside Sym(n) can induce
    oracle = {
        phi
        for phi in automorphisms_by_images(data.table.elems, S.gens)
        if all(p.cycle_type() == data.table.elems[phi[i]].cycle_type() for i, p in enumerate(data.table.elems))
    }
    assert set(auts) == oracle
    return len(auts)


def _named_groups():
    return {
        "S3": PermutationGroup([g("(0 1 2)"), g("(0 1)", 3)]),
        "V4": PermutationGroup([g("(0 1)(2 3)"), g("(0 2)(1 3)")]),
        "D8": PermutationGroup([g("(0 1 2 3)"), g("(0 2)", 4)]),
        # the regular representation of Q8 = <i, j>
        "Q8": PermutationGroup([g("(0 1 2 3)(4 5 6 7)"), g("(0 4 2 6)(1 7 3 5)")]),
        "A4": PermutationGroup([g("(0 1 2)", 4), g("(1 2 3)")]),
        "S4": sym(4),
        # transitive 3^2:4; unlike the groups above, it has assignments
        # that pass the invariant on every element and still clash
        "3^2:4": PermutationGroup([g("(0 5)(1 4)"), g("(0 1 3 2)(4 5)")]),
    }


def test_automorphisms_match_brute_force_on_named_groups():
    groups = _named_groups()
    counts = {name: _check_automorphisms_against_oracle(S) for name, S in groups.items()}
    # |Aut| is 6, 6, 8, 24, 24, 24, 72; the outer automorphism of D8 swaps
    # a class of transpositions with a class of double transpositions
    assert counts == {
        "S3": 6, "V4": 6, "D8": 4, "Q8": 24, "A4": 24, "S4": 24, "3^2:4": 72,
    }


def test_automorphisms_match_brute_force_on_random_two_generator_groups():
    rng = random.Random(43)
    done = 0
    while done < 12:
        n = rng.randrange(4, 8)
        gens = []
        for _ in range(2):
            imgs = list(range(n))
            rng.shuffle(imgs)
            gens.append(Permutation(imgs))
        S = PermutationGroup(gens, n)
        if not 2 <= S.order() <= 24:
            continue
        assert _check_automorphisms_against_oracle(S) >= 1
        done += 1


def test_incremental_extension_matches_extension_from_scratch(monkeypatch):
    """At every node of the Aut(S) walk, and at every step of its generating
    sequence, extending the parent's map by one generator image gives what
    extend_homomorphism gives from scratch on the same pairs: the same list,
    or None for both; a returned map is defined exactly on the span list.
    Both ways to die occur: an edge clash, and an invariant mismatch where
    the same pairs extend once the invariants are ignored."""
    real, seen, table = normalizers._extend, Counter(), None

    def spy(src_inv, dst_inv, phi, span, old, edges):
        got = real(src_inv, dst_inv, phi, span, old, edges)
        if old:  # an incremental step; from scratch starts with old = 0
            pairs = [(rs[table.identity], rt[table.identity]) for rs, rt in edges]
            assert got == normalizers.extend_homomorphism(table, table, pairs)
            if got is None:
                plain = copy.copy(table)
                plain.invariants = [0] * len(table.elems)
                clash = normalizers.extend_homomorphism(plain, plain, pairs) is None
                seen["clash" if clash else "invariant"] += 1
            else:
                assert sorted(span) == [i for i, t in enumerate(got) if t != -1]
                seen["map"] += 1
        return got

    monkeypatch.setattr(normalizers, "_extend", spy)
    groups = list(_named_groups().values())
    rng = random.Random(71)
    while len(groups) < 19:
        n = rng.randrange(3, 8)
        S = PermutationGroup([Permutation(rng.sample(range(n), n)) for _ in range(2)], n)
        if 2 <= S.order() <= 24:
            groups.append(S)
    for S in groups:
        data = SymNormalizerData(S)
        table = data.table
        assert data.automorphisms()
    assert min(seen["map"], seen["clash"], seen["invariant"]) > 0


def test_automorphisms_budget_raises_on_elementary_abelian_16():
    # C2^4 acting regularly: every nonidentity element has cycle type 2^8,
    # so all |GL(4,2)| = 20160 automorphisms pass the invariant filter
    S = PermutationGroup(
        [Permutation([x ^ (1 << k) for x in range(16)]) for k in range(4)]
    )
    assert S.order() == 16
    with pytest.raises(ResourceExhausted):
        SymNormalizerData(S).automorphisms()


def _realized_alphas(monkeypatch, data):
    """Record the automorphisms ``data`` realizes and whether each came with
    a row prune."""
    realized = []

    def spy(alpha, prune=None):
        realized.append((alpha, prune is not None))
        return SymNormalizerData._realization_rows(data, alpha, prune)

    monkeypatch.setattr(data, "_realization_rows", spy)
    return realized


@pytest.mark.parametrize("seed", range(3))
def test_realizations_prune_matches_square_filter(seed, monkeypatch):
    """square_roots(targets) is the object-level DFS over every automorphism
    filtered to g*g among the targets, in the same order, and as a set the
    scan of Sym(n); on seeded S, n <= 7, with the targets {1}, {t}, a group
    L >= S and all of Sym(n).  Some automorphisms are never realized, and
    some rows are cut."""
    rng = random.Random(300 + seed)
    sym_elems = {}
    cases = hits = skipped = pruned = 0
    while cases < 6:
        n = rng.randrange(4, 8)
        gens = []
        for _ in range(rng.choice([1, 2])):
            moved = rng.sample(range(n), rng.randrange(2, n + 1))
            imgs = list(range(n))
            for a, b in zip(moved, rng.sample(moved, len(moved))):
                imgs[a] = b
            gens.append(Permutation(imgs))
        S = PermutationGroup(gens, n)
        if not 2 <= S.order() <= 24:
            continue
        L = PermutationGroup(list(S.gens) + [Permutation(rng.sample(range(n), n))], n)
        if L.order() > 720:
            continue
        if n not in sym_elems:
            sym_elems[n] = [Permutation(p) for p in permutations(range(n))]
        data = SymNormalizerData(S)
        elems = data.table.elems
        plain = [r for alpha in data.automorphisms() for r in dfs_realizations(elems, alpha, n)]
        normalizing = element_scan_normalizer(sym_elems[n], list(S.elements()))
        assert sorted(plain) == sorted(p.images.tolist() for p in normalizing)
        t = rng.choice(elems)
        for targets in ([S.identity()], [t], list(L.elements()), sym_elems[n]):
            keys = {p.key() for p in targets}
            wanted = [r for r in plain if (Permutation(r) * Permutation(r)).key() in keys]
            realized = _realized_alphas(monkeypatch, data)
            got, _ = roots(data, targets)
            assert got == wanted
            hits += len(got)
            skipped += len(realized) < len(data.automorphisms())
            pruned += any(p for _, p in realized)
        cases += 1
    assert hits > 0 and skipped > 0 and pruned > 0


def test_square_roots_budgets(monkeypatch):
    """Past SYM_NORM_SIZE_LIMIT realized rows, or with one automorphism's
    realization bound past 40 times that, the stream raises instead of
    ending short."""
    S = PermutationGroup([g("(0 1 2 3 4)")])
    everything = list(sym(5).elements())
    monkeypatch.setattr(normalizers, "SYM_NORM_SIZE_LIMIT", 20)
    assert len(roots(SymNormalizerData(S), everything)[0]) == 20
    monkeypatch.setattr(normalizers, "SYM_NORM_SIZE_LIMIT", 19)
    with pytest.raises(ResourceExhausted, match="more than 19 realized rows"):
        list(SymNormalizerData(S).square_roots(everything))
    # C5 on 5 of 12 points: each automorphism's bound is 5 * 7^7, and the
    # involutions and 1 in N are the identity or one of the 5 reflections
    # of the 5-cycle times one of the 232 of Sym(7)
    S = PermutationGroup([g("(0 1 2 3 4)", 12)])
    data = SymNormalizerData(S)
    bound = realization_bound(data, tuple(range(5)))
    assert bound == 5 * 7**7
    monkeypatch.setattr(normalizers, "SYM_NORM_SIZE_LIMIT", bound // 40)
    with pytest.raises(ResourceExhausted, match="per-automorphism bound"):
        list(data.square_roots([S.identity()]))
    monkeypatch.setattr(normalizers, "SYM_NORM_SIZE_LIMIT", bound // 40 + 1)
    assert len(roots(data, [S.identity()])[0]) == 6 * 232


def test_example_42_stays_inside_the_budgets():
    """Z's largest realization bound is 72^4, under 40 * SYM_NORM_SIZE_LIMIT."""
    *_, Z, t = _example_42_setting()
    data = SymNormalizerData(Z)
    bounds = [realization_bound(data, alpha) for alpha in data.automorphisms()]
    assert max(bounds) == 72**4 < 40 * normalizers.SYM_NORM_SIZE_LIMIT


def test_one_element_table_per_group(monkeypatch):
    built = []
    table = normalizers.ElementTable

    def spy(elems, invariants):
        built.append(len(elems))
        return table(elems, invariants)

    monkeypatch.setattr(normalizers, "ElementTable", spy)
    data = SymNormalizerData(sym(4))
    assert len(data.automorphisms()) == 24
    assert built == [24]


def _seeded_multi_orbit_groups(seed, count):
    """Seeded S of degree 6-12 with at least three orbits and a normalizer
    in Sym(n) small enough to enumerate by the object-level oracle."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randrange(6, 13)
        gens = []
        for _ in range(rng.choice([1, 2])):
            moved = rng.sample(range(n), rng.randrange(n // 2, n + 1))
            imgs = list(range(n))
            for a, b in zip(moved, rng.sample(moved, len(moved))):
                imgs[a] = b
            gens.append(Permutation(imgs))
        S = PermutationGroup(gens, n)
        if len(S.orbits()) < 3 or not 2 <= S.order() <= 48:
            continue
        data = SymNormalizerData(S)
        auts = data.automorphisms()
        if sum(realization_bound(data, a) for a in auts) <= 4000:
            out.append((S, data, auts))
    return out


# the involutions (0 1)(2 3)...(10 11): six orbits, and a centralizer of
# 2^6 * 6! = 46080 elements, nine blocks at the shipped budget
SIX_INVOLUTIONS = PermutationGroup([Permutation([i ^ 1 for i in range(12)])])


@pytest.mark.parametrize("budget", [normalizers.BLOCK_ENTRIES, 200, 24])
def test_realization_blocks_match_dfs_oracle(monkeypatch, budget):
    """Per automorphism, the blocks of ``_realization_rows`` are the
    object-level DFS rows in order, and each block fits the budget; the
    small budgets split the rows into chunks before the later orbits."""
    monkeypatch.setattr(normalizers, "BLOCK_ENTRIES", budget)
    cases = _seeded_multi_orbit_groups(1400, 8)
    cases.append((SIX_INVOLUTIONS, SymNormalizerData(SIX_INVOLUTIONS), None))
    several = 0
    for S, data, auts in cases:
        for alpha in auts or data.automorphisms():
            blocks = list(data._realization_rows(alpha))
            assert all(b.size <= budget or len(b) == 1 for b in blocks)
            rows = [r for b in blocks for r in b.tolist()]
            assert rows == dfs_realizations(data.table.elems, alpha, S.degree)
            several += len(blocks) > 1
    assert several > 0


@pytest.mark.parametrize("budget", [normalizers.BLOCK_ENTRIES, 200])
def test_group_stream_matches_dfs_oracle(monkeypatch, budget):
    """With the squares of N_Sym(n)(S) as the targets, the square-root
    stream is every automorphism's oracle rows in order, in blocks that fit
    the budget, none spanning two automorphisms."""
    monkeypatch.setattr(normalizers, "BLOCK_ENTRIES", budget)
    cases = _seeded_multi_orbit_groups(1500, 8) + [(SIX_INVOLUTIONS, None, None)]
    several = 0
    for S, data, auts in cases:
        data = data or SymNormalizerData(S)
        auts = auts or data.automorphisms()
        oracle = [dfs_realizations(data.table.elems, alpha, S.degree) for alpha in auts]
        N = [r for rows in oracle for r in rows]
        squares = {tuple(r[a] for a in r) for r in N}
        realized = _realized_alphas(monkeypatch, data)
        got, blocks = roots(data, [Permutation(q) for q in sorted(squares)])
        assert got == N
        assert all(rows.size <= budget or len(rows) == 1 for rows, _ in blocks)
        assert len(blocks) >= sum(1 for rows in oracle if rows)
        assert [alpha for alpha, _ in realized] == auts
        several += len(blocks) > 1
    assert several > 0


def test_coset_scan_branch():
    # G = F5 x C2 is no symmetric or alternating group; the coset scan
    # answers
    G = PermutationGroup([g("(0 1 2 3 4)", 7), g("(1 2 4 3)", 7), g("(5 6)", 7)])
    S = G.subgroup([g("(0 1 2 3 4)", 7)])
    N = normalizer(G, S)
    assert N.order() == 40
    oracle = element_scan_normalizer(list(G.elements()), list(S.elements()))
    assert set(N.element_set()) == {p.key() for p in oracle}


def test_either_scan_limit_admits_the_coset_scan():
    # |G| past SCAN_LIMIT with a small index, then an index past
    # COSET_SCAN_LIMIT in a G within SCAN_LIMIT
    G = sym(9)
    S = G.point_stabilizer(8)
    assert G.order() > normalizers.SCAN_LIMIT and G.order() // S.order() == 9
    assert normalizer(G, S).order() == S.order()
    G = sym(8)
    S = G.subgroup([g("(0 1 2)(3 4 5)", 8)])
    assert G.order() // S.order() > normalizers.COSET_SCAN_LIMIT
    N = normalizer(G, S)
    oracle = element_scan_normalizer(list(G.elements()), list(S.elements()))
    assert set(N.element_set()) == {p.key() for p in oracle}


def test_normalizer_resource_error_when_enumeration_hopeless():
    # Alt(40) and the index of a 3-cycle in it are past both scan limits,
    # and normalizer must say so rather than truncate.
    n = 40
    alt = PermutationGroup(
        [g("(0 1 2)", n), Permutation.from_cycles(n, [tuple(range(1, n))])]
    )
    S = alt.subgroup([g("(0 1 2)", n)])
    with pytest.raises(ResourceExhausted):
        normalizer(alt, S)


@pytest.mark.parametrize("seed", range(3))
def test_normalizer_and_centralizer_match_element_scans(seed):
    """normalizer(G, S) equals the element scan as a set, for S <= G cyclic
    or 2-generated."""
    rng = random.Random(700 + seed)
    done = 0
    while done < 4:
        n = rng.randrange(4, 8)
        G = PermutationGroup([Permutation(rng.sample(range(n), n)) for _ in range(2)], n)
        if not 2 <= G.order() <= 360:
            continue
        G_elems = list(G.elements())
        x = random_element(G, rng)
        gens = [x] + [random_element(G, rng) for _ in range(rng.choice([0, 1]))]
        S = G.subgroup(gens)
        N = normalizer(G, S)
        oracle = element_scan_normalizer(G_elems, list(S.elements()))
        assert set(N.element_set()) == {p.key() for p in oracle}
        done += 1


def test_normalizer_rejects_a_non_subgroup():
    G = sym(4)
    with pytest.raises(ValueError):
        normalizer(G.subgroup([g("(0 1 2)", 4)]), PermutationGroup([g("(0 1)", 4)]))
