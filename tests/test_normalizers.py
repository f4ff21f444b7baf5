import random

import pytest

from hatlab.examples import _cannot_square_to
from hatlab.group import PermutationGroup, ResourceExhausted
from hatlab.normalizers import (
    SymNormalizerData,
    centralizer,
    centralizer_in_sym,
    normalizer,
    normalizer_in_sym,
)
from hatlab.perm import Permutation

from oracles import element_scan_centralizer, element_scan_normalizer


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


def test_centralizer_matches_scan():
    G = sym(5)
    x = g("(0 1)(2 3)", 5)
    C = centralizer(G, x)
    oracle = element_scan_centralizer(list(G.elements()), x)
    assert C.order() == len(oracle)


def test_centralizer_in_sym_structure():
    x = g("(0 1 2)(3 4 5)", 8)
    C = centralizer_in_sym(x)
    # 3^2 * 2! for the two 3-cycles times 2! for the fixed points
    assert C.order() == 9 * 2 * 2
    oracle = element_scan_centralizer(list(sym(6).elements()), g("(0 1 2)(3 4 5)", 6))
    assert centralizer_in_sym(g("(0 1 2)(3 4 5)", 6)).order() == len(oracle)


def test_normalizer_in_sym_of_cyclic_5():
    S = PermutationGroup([g("(0 1 2 3 4)")])
    N = normalizer_in_sym(S)
    assert N.order() == 20
    oracle = element_scan_normalizer(list(sym(5).elements()), list(S.elements()))
    assert N.order() == len(oracle)
    for p in N.gens:
        assert all(s.conj(p) in S for s in S.gens)


def test_normalizer_in_sym_of_full_symmetric():
    S = sym(4)
    N = normalizer_in_sym(S)
    assert N.order() == 24


def test_normalizer_in_sym_semiregular_z3():
    S = PermutationGroup([g("(0 1 2)(3 4 5)")])
    N = normalizer_in_sym(S)
    oracle = element_scan_normalizer(list(sym(6).elements()), list(S.elements()))
    assert N.order() == len(oracle)


def test_normalizer_in_sym_matches_scan_on_random_small_groups():
    import random

    rng = random.Random(5)
    sym_elems = {n: list(sym(n).elements()) for n in (4, 5, 6)}
    done = 0
    while done < 6:
        n = rng.choice([4, 5, 6])
        imgs = list(range(n))
        rng.shuffle(imgs)
        p = Permutation(imgs)
        if p.is_identity():
            continue
        S = PermutationGroup([p])
        N = normalizer_in_sym(S)
        oracle = element_scan_normalizer(sym_elems[n], list(S.elements()))
        assert N.order() == len(oracle)
        done += 1


@pytest.mark.parametrize("seed", range(3))
def test_realizations_prune_matches_square_filter(seed):
    """realizations(alpha, prune=...) is the plain enumeration filtered to
    x*x == t, in the same order."""
    rng = random.Random(300 + seed)
    cases = hits = 0
    while cases < 4:
        n = rng.randrange(4, 9)
        gens = []
        for _ in range(rng.choice([1, 2])):
            imgs = list(range(n))
            rng.shuffle(imgs)
            gens.append(Permutation(imgs))
        S = PermutationGroup(gens, n)
        if not 2 <= S.order() <= 24:
            continue
        data = SymNormalizerData(S)
        for alpha in data.automorphisms():
            if data.realization_bound(alpha) > 500:
                continue
            plain = list(data.realizations(alpha))
            squares = {(x * x).key(): x * x for x in plain}
            targets = [S.identity(), rng.choice(data.elems)]
            targets += [q for k, q in sorted(squares.items()) if k in data.index_of][:3]
            for t in targets:
                wanted = [x for x in plain if x * x == t]
                assert list(data.realizations(alpha, prune=_cannot_square_to(t))) == wanted
                hits += len(wanted)
        cases += 1
    assert hits > 0


def test_coset_scan_branch():
    # ambient too large to scan by elements? force the coset branch by
    # exercising it directly on a moderate example
    from hatlab.normalizers import _normalizer_coset_scan

    G = sym(5)
    S = G.subgroup([g("(0 1 2 3 4)")])
    N = _normalizer_coset_scan(G, S)
    assert N.order() == 20


def test_normalizer_resource_error_when_enumeration_hopeless():
    # N_{Sym(40)}(<3-cycle>) contains Sym(37) on the fixed points: the exact
    # answer cannot be enumerated, and the ladder must say so rather than
    # truncate.
    n = 40
    alt = PermutationGroup(
        [g("(0 1 2)", n), Permutation.from_cycles(n, [tuple(range(1, n))])]
    )
    S = alt.subgroup([g("(0 1 2)", n)])
    with pytest.raises(ResourceExhausted):
        normalizer(alt, S)


def test_normalizer_in_alternating_ambient():
    # A9 is too big to scan and the index is too big for a coset scan, so the
    # sym-normalizer route restricted to even permutations must apply.
    n = 9
    alt = PermutationGroup(
        [g("(0 1 2)", n), Permutation.from_cycles(n, [tuple(range(n))])]
    )
    assert alt.order() == 181440
    x = g("(0 1 2)(3 4 5)(6 7 8)", n)
    S = alt.subgroup([x])
    N = normalizer(alt, S)
    sym_N = normalizer_in_sym(S)
    even_count = sum(1 for p in sym_N.elements() if p.is_even())
    assert N.order() == even_count
    for p in N.gens:
        assert p.is_even()
        assert all(s.conj(p) in S for s in S.gens)


def test_even_part():
    from hatlab.normalizers import _even_part

    G = sym(5)
    E = _even_part(G)
    assert E.order() == 60
    assert all(p.is_even() for p in E.gens)
