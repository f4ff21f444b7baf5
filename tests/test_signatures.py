from hatlab.group import PermutationGroup
from hatlab.perm import Permutation
from hatlab.signatures import group_name, signature


def g(s, n=None):
    return Permutation.parse(s, n)


def test_names_of_small_groups():
    assert group_name(PermutationGroup([g("(0 1)")])) == "C2"
    assert group_name(PermutationGroup([g("(0 1 2)")])) == "C3"
    assert group_name(PermutationGroup([g("(0 1 2)", 4), g("(1 2 3)", 4)])) == "A4"
    assert group_name(PermutationGroup([g("(0 1 2 3)"), g("(0 1)", 4)])) == "S4"
    assert group_name(PermutationGroup([g("(0 1 2 3 4)"), g("(0 1)", 5)])) == "S5"
    assert group_name(PermutationGroup([g("(0 1 2 3)"), g("(0 2)", 4)])) == "D8"


def test_frobenius_20_vs_other_order_20():
    F = PermutationGroup([g("(0 1 2 3 4)"), g("(1 2 4 3)", 5)])
    assert F.order() == 20
    assert group_name(F) == "F5"
    C20 = PermutationGroup([Permutation.from_cycles(20, [tuple(range(20))])])
    assert group_name(C20) != "F5"
    D20 = PermutationGroup(
        [Permutation.from_cycles(10, [tuple(range(10))]), Permutation([(-i) % 10 for i in range(10)])]
    )
    assert group_name(D20) == "D20"


def test_d8_separated_from_q8_and_abelians():
    D8 = PermutationGroup([g("(0 1 2 3)"), g("(0 2)", 4)])
    Q8 = PermutationGroup([g("(0 1 2 3)(4 5 6 7)"), g("(0 4 2 6)(1 7 3 5)")])
    assert Q8.order() == 8
    assert signature(D8) != signature(Q8)
    C4xC2 = PermutationGroup([g("(0 1 2 3)", 6), g("(4 5)", 6)])
    assert signature(D8) != signature(C4xC2)


def test_giant_alternating_names():
    A = PermutationGroup([g("(0 1 2)", 72), Permutation.from_cycles(72, [tuple(range(1, 72))])])
    assert group_name(A) == "A72"
    S = PermutationGroup([Permutation.from_cycles(72, [tuple(range(72))]), g("(0 1)", 72)])
    assert group_name(S) == "S72"


def test_s3xs4_reference():
    from hatlab.signatures import _direct_product, _symmetric

    P = _direct_product(_symmetric(3), _symmetric(4))
    assert P.order() == 144
    assert group_name(P) == "S3*S4"


def test_signature_invariant_under_conjugation():
    G = PermutationGroup([g("(0 1 2 3)"), g("(0 2)", 4)])
    h = g("(0 3 1)", 4)
    Gc = PermutationGroup([p.conj(h) for p in G.gens])
    assert signature(G) == signature(Gc)
