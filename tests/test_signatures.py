import random

import numpy as np

from hatlab.fpgroups import FpPresentation, todd_coxeter
from hatlab.group import PermutationGroup
from hatlab.perm import Permutation
from hatlab.signatures import REFERENCES, _isomorphic, _order_table, group_name

from oracles import isomorphisms_by_images


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
    assert group_name(Q8) == "Q8"
    assert group_name(D8) == "D8"
    C4xC2 = PermutationGroup([g("(0 1 2 3)", 6), g("(4 5)", 6)])
    assert group_name(C4xC2) != "D8"


def test_giant_alternating_names():
    A = PermutationGroup([g("(0 1 2)", 72), Permutation.from_cycles(72, [tuple(range(1, 72))])])
    assert group_name(A) == "A72"
    S = PermutationGroup([Permutation.from_cycles(72, [tuple(range(72))]), g("(0 1)", 72)])
    assert group_name(S) == "S72"


def test_s3xs4_reference():
    P = PermutationGroup([g("(0 1 2)", 7), g("(0 1)", 7), g("(3 4 5 6)"), g("(3 4)", 7)])
    assert P.order() == 144
    assert group_name(P) == "S3*S4"


def test_signature_invariant_under_conjugation():
    G = PermutationGroup([g("(0 1 2 3)"), g("(0 2)", 4)])
    h = g("(0 3 1)", 4)
    Gc = PermutationGroup([p.conj(h) for p in G.gens])
    assert group_name(G) == group_name(Gc) == "D8"


# -- the isomorphism proof behind a name --------------------------------------


def _regular(names, relators):
    table = todd_coxeter(FpPresentation.parse(names, relators), ())
    return table.group(order=table.coset_count)


def _relabelled(G, rng, extra=3):
    """G on extra more points, its points renamed by a random permutation,
    generated by its conjugated generators and one product of them."""
    n = G.degree + extra
    pi = rng.sample(range(n), n)
    gens = []
    for p in G.gens:
        imgs = [0] * n
        for i in range(n):
            imgs[pi[i]] = pi[int(p.images[i])] if i < G.degree else pi[i]
        gens.append(Permutation(imgs))
    return PermutationGroup(gens + [gens[0] * gens[-1]], n)


def _by_extension(A, B):
    ta, _ = _order_table(A)
    tb, _ = _order_table(B)
    return _isomorphic(ta, ta.indices(np.stack([p.images for p in A.gens])).tolist(), tb)


def _by_oracle(A, B):
    found = isomorphisms_by_images(list(A.elements()), A.gens, list(B.elements()))
    return next(found, None) is not None


def test_extension_agrees_with_the_table_oracle():
    """Pairs with equal element-order profiles: C4xC4 against C4:C4, and
    C3^3 against the Heisenberg group mod 3, are not isomorphic; random
    relabellings of each group are."""
    rng = random.Random(8)
    c4c4 = PermutationGroup([g("(0 1 2 3)", 8), g("(4 5 6 7)")])
    c4_c4 = PermutationGroup([g("(0 1 2 3)", 8), g("(1 3)(4 5 6 7)")])
    c3_3 = PermutationGroup([g("(0 1 2)", 9), g("(3 4 5)", 9), g("(6 7 8)")])
    heis = _regular(["x", "y"], ["x^3", "y^3", "[x,y]^3", "[[x,y],x]", "[[x,y],y]"])
    for A, B in ((c4_c4, c4c4), (heis, c3_3)):
        assert A.order() == B.order()
        assert _order_table(A)[1] == _order_table(B)[1]
        assert not _by_oracle(A, B)
        assert not _by_extension(A, B) and not _by_extension(B, A)
        assert group_name(A) == group_name(B) == "group of order %d" % A.order()
    for A in (c4c4, c4_c4, heis):
        B = _relabelled(A, rng)
        assert _by_oracle(A, B)
        assert _by_extension(A, B) and _by_extension(B, A)


def test_every_reference_named_from_a_relabelling():
    rng = random.Random(20)
    for name, (degree, *cycles) in REFERENCES.items():
        R = PermutationGroup([Permutation.parse(c, degree) for c in cycles], degree)
        assert group_name(_relabelled(R, rng)) == name


def test_references_win_over_giants_and_degrees():
    assert group_name(PermutationGroup([g("(0 1 2)")])) == "C3"
    # S5 on the 10 two-element subsets of five points
    pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]

    def on_pairs(p):
        return Permutation([pairs.index(tuple(sorted((p(i), p(j))))) for i, j in pairs])

    S5 = PermutationGroup([on_pairs(g("(0 1 2 3 4)")), on_pairs(g("(0 1)", 5))])
    assert S5.degree == 10 and S5.order() == 120
    assert group_name(S5) == "S5"


def test_unreferenced_order_is_not_enumerated(monkeypatch):
    group_name(PermutationGroup([g("(0 1)")]))  # the references are built
    G = PermutationGroup([g("(0 1)", 8), g("(0 2)(1 3)", 8), g("(0 4)(1 5)(2 6)(3 7)")])
    assert G.order() == 128

    def refuse(self):
        raise AssertionError("elements enumerated")

    monkeypatch.setattr(PermutationGroup, "elements", refuse)
    assert group_name(G) == "group of order 128"
