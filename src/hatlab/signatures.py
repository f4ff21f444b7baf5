"""Abstract isomorphism-type signatures for the groups the reports name.

A signature is the tuple (order, exponent, abelianization profile, derived
length, element-order multiset); that quintuple separates every group named
in a report (D8 from Q8, F5 from C20, S3*S4 from its order-144 lookalikes).
Full isomorphism testing is deliberately out of scope.  Groups too large to
enumerate are recognized only when they are full alternating or symmetric
groups on their moved points (``group.giant_type``).
"""

from __future__ import annotations

from math import lcm

from .cosets import coset_action, derived_subgroup
from .group import PermutationGroup, giant_type
from .perm import Permutation

_ENUM_LIMIT = 20000


def signature(G: PermutationGroup):
    order = G.order()
    if order > _ENUM_LIMIT:
        return giant_type(G.gens, order) or ("big", order)
    orders = sorted(p.order() for p in G.elements())
    exponent = 1
    for k in set(orders):
        exponent = lcm(exponent, k)
    derived = derived_subgroup(G)
    # derived series
    length = 0
    D, nxt = G, derived
    while D.order() > 1:
        if nxt is None:
            nxt = derived_subgroup(D)
        if nxt.order() == D.order():
            length = -1  # perfect tail, not solvable
            break
        D, nxt = nxt, None
        length += 1
    ab = _abelianization_profile(G, derived)
    return ("small", order, exponent, ab, length, tuple(orders))


def _abelianization_profile(G, derived):
    """Element orders of G/G', given the derived subgroup G'."""
    if derived.order() == G.order():
        return (1,)
    Q = coset_action(G, derived).image
    return tuple(sorted(p.order() for p in Q.elements()))


# reference constructions, degree-minimal


def _cyclic(n):
    return PermutationGroup([Permutation.from_cycles(n, [tuple(range(n))])])


def _dihedral(n):
    rot = Permutation.from_cycles(n, [tuple(range(n))])
    refl = Permutation([(-i) % n for i in range(n)])
    return PermutationGroup([rot, refl])


def _symmetric(n):
    return PermutationGroup(
        [
            Permutation.from_cycles(n, [tuple(range(n))]),
            Permutation.from_cycles(n, [(0, 1)]),
        ]
    )


def _alternating(n):
    gens = [Permutation.from_cycles(n, [(0, 1, 2)])]
    if n > 3:
        cyc = tuple(range(n)) if n % 2 else tuple(range(1, n))
        gens.append(Permutation.from_cycles(n, [cyc]))
    return PermutationGroup(gens)


def _frobenius20():
    # AGL(1,5) = Z5 : Z4 on 5 points
    return PermutationGroup(
        [
            Permutation.from_cycles(5, [(0, 1, 2, 3, 4)]),
            Permutation.from_cycles(5, [(1, 2, 4, 3)]),
        ]
    )


def _direct_product(A, B):
    n, m = A.degree, B.degree
    gens = []
    for g in A.gens:
        gens.append(Permutation(list(g.images) + list(range(n, n + m))))
    for g in B.gens:
        gens.append(Permutation(list(range(n)) + [int(i) + n for i in g.images]))
    return PermutationGroup(gens, n + m, order=A.order() * B.order())


_REFERENCES = None


def _references():
    global _REFERENCES
    if _REFERENCES is None:
        s3 = _symmetric(3)
        s4 = _symmetric(4)
        refs = {
            "C2": _cyclic(2),
            "C3": _cyclic(3),
            "C4": _cyclic(4),
            "V4": PermutationGroup(
                [Permutation.parse("(0 1)(2 3)"), Permutation.parse("(0 2)(1 3)")]
            ),
            "S3": s3,
            "D8": _dihedral(4),
            "Q8": PermutationGroup(
                [
                    Permutation.parse("(0 1 2 3)(4 5 6 7)"),
                    Permutation.parse("(0 4 2 6)(1 7 3 5)"),
                ]
            ),
            "A4": _alternating(4),
            "D10": _dihedral(5),
            "D12": _dihedral(6),
            "C12": _cyclic(12),
            "S4": s4,
            "F5": _frobenius20(),
            "C20": _cyclic(20),
            "D20": _dihedral(10),
            "S5": _symmetric(5),
            "A5": _alternating(5),
            "S3*S3": _direct_product(s3, s3),
            "S3*S4": _direct_product(s3, s4),
            "Z3*A4": _direct_product(_cyclic(3), _alternating(4)),
        }
        _REFERENCES = {name: signature(G) for name, G in refs.items()}
    return _REFERENCES


def group_name(G: PermutationGroup) -> str:
    """A display name for G's isomorphism type, or a signature string."""
    sig = signature(G)
    if sig[0] == "alt":
        return "A%d" % sig[1]
    if sig[0] == "sym":
        return "S%d" % sig[1]
    if sig[0] == "big":
        return "group of order %d" % sig[1]
    order = sig[1]
    for name, ref in _references().items():
        if ref == sig:
            return name
    if 0 <= sig[4] <= 1:
        return "abelian %s" % (sig[5],)
    if _is_dihedral_signature(sig):
        return "D%d" % order
    return "sig%r" % (sig,)


def _is_dihedral_signature(sig):
    order = sig[1]
    if order % 2 or order < 6:
        return False
    n = order // 2
    ref = signature(_dihedral(n))
    return ref == sig

