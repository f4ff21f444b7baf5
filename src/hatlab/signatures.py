"""Names for the isomorphism types of the groups the reports mention.

G gets the name of a reference group R only through a proved isomorphism:
images of R's generators, drawn from G's elements of the same orders, that
``normalizers.extend_homomorphism`` extends to a bijective homomorphism
R -> G.  A reference is tried only when its order and element-order
multiset match G's.  Past the references, a full alternating or symmetric
group on its moved points is named by ``PermutationGroup.giant_type``;
every other group is "group of order N", and its elements are enumerated
only when some reference has its order.
"""

from __future__ import annotations

from functools import cache
from itertools import product

import numpy as np

from .group import ElementTable, PermutationGroup
from .normalizers import extend_homomorphism
from .perm import Permutation

# name: (degree, generators in cycle notation)
REFERENCES = {
    "C2": (2, "(0 1)"),
    "C3": (3, "(0 1 2)"),
    "C4": (4, "(0 1 2 3)"),
    "V4": (4, "(0 1)(2 3)", "(0 2)(1 3)"),
    "S3": (3, "(0 1 2)", "(0 1)"),
    "D8": (4, "(0 1 2 3)", "(1 3)"),
    "Q8": (8, "(0 1 2 3)(4 5 6 7)", "(0 4 2 6)(1 7 3 5)"),
    "A4": (4, "(0 1 2)", "(1 2 3)"),
    "D10": (5, "(0 1 2 3 4)", "(1 4)(2 3)"),
    "D12": (6, "(0 1 2 3 4 5)", "(1 5)(2 4)"),
    "C12": (12, "(0 1 2 3 4 5 6 7 8 9 10 11)"),
    "S4": (4, "(0 1 2 3)", "(0 1)"),
    "F5": (5, "(0 1 2 3 4)", "(1 2 4 3)"),
    "C20": (20, "(0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19)"),
    "D20": (10, "(0 1 2 3 4 5 6 7 8 9)", "(1 9)(2 8)(3 7)(4 6)"),
    "S5": (5, "(0 1 2 3 4)", "(0 1)"),
    "A5": (5, "(0 1 2)", "(0 1 2 3 4)"),
    "S3*S3": (6, "(0 1 2)(3 4)", "(0 1)(3 4 5)"),
    "S3*S4": (7, "(0 1 2)(3 4 5 6)", "(0 1)(3 4)"),
    "Z3*A4": (7, "(0 1 2)(3 4 5)", "(4 5 6)"),
}


def _order_table(G: PermutationGroup):
    elems = list(G.elements())
    orders = [p.order() for p in elems]
    return ElementTable(elems, orders), sorted(orders)


@cache
def _references():
    """name -> (order, sorted element orders, element table, generator
    indices), built once per process."""
    refs = {}
    for name, (degree, *cycles) in REFERENCES.items():
        R = PermutationGroup([Permutation.parse(c, degree) for c in cycles], degree)
        table, orders = _order_table(R)
        gens = table.indices(np.stack([g.images for g in R.gens])).tolist()
        refs[name] = (R.order(), orders, table, gens)
    return refs


def _isomorphic(R: ElementTable, gens, G: ElementTable) -> bool:
    """Whether some images of R's generators in G, of the same orders,
    extend to a bijective homomorphism R -> G (|R| = |G| and equal
    element-order multisets assumed)."""
    by_order = {}
    for i, k in enumerate(G.invariants):
        by_order.setdefault(k, []).append(i)
    for images in product(*(by_order[R.invariants[s]] for s in gens)):
        phi = extend_homomorphism(R, G, list(zip(gens, images)))
        if phi is not None and len(set(phi)) == len(phi):
            return True
    return False


def group_name(G: PermutationGroup) -> str:
    """R's name when G is isomorphic to the reference R, else "An"/"Sn" for
    a full alternating or symmetric group of degree n on its moved points,
    else "group of order N"."""
    order = G.order()
    candidates = [(name, ref) for name, ref in _references().items() if ref[0] == order]
    if candidates:
        table, orders = _order_table(G)
        for name, (_, ref_orders, ref_table, gens) in candidates:
            if ref_orders == orders and _isomorphic(ref_table, gens, table):
                return name
    kind = G.giant_type()
    if kind is not None:
        return ("A%d" if kind[0] == "alt" else "S%d") % kind[1]
    return "group of order %d" % order
