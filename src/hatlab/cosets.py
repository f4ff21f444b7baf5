"""Coset actions, cores, block systems, and subgroup machinery.

Right cosets Hx are identified by a canonical representative: the unique
element of Hx whose base-image tuple under H's chain is lexicographically
minimal.  This makes coset enumeration a plain BFS keyed on bytes.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .group import PermutationGroup, ResourceExhausted, closure_elements
from .perm import Permutation


def commutator(a: Permutation, b: Permutation) -> Permutation:
    return a.inverse() * b.inverse() * a * b


def coset_canonical(H: PermutationGroup, x: Permutation) -> Permutation:
    """The minimal element of Hx under the base-image order of H's chain.

    Greedy per level: elements of H are distinguished by their base images,
    so minimizing the image of each base point in turn picks out one element
    of the coset, the same one for every x in Hx.
    """
    p = x
    for lvl in H.levels():
        imgs = p.images[lvl.points_arr]
        j = int(np.argmin(imgs))
        a = int(lvl.points_arr[j])
        if a != lvl.base:
            p = lvl.transversal(a) * p
    return p


class CosetSpace:
    """The right cosets of H in G, with G acting by right multiplication."""

    def __init__(self, G: PermutationGroup, H: PermutationGroup, max_index=10**6):
        if not all(g in G for g in H.gens):
            raise ValueError("H is not a subgroup of G")
        self.G = G
        self.H = H
        H._ensure_chain()
        rep0 = self.canonical(G.identity())
        reps = [rep0]
        index = {rep0.key(): 0}
        head = 0
        while head < len(reps):
            r = reps[head]
            head += 1
            for g in G.gens:
                nxt = self.canonical(r * g)
                k = nxt.key()
                if k not in index:
                    if len(reps) >= max_index:
                        raise ResourceExhausted(
                            "coset enumeration exceeded %d" % max_index
                        )
                    index[k] = len(reps)
                    reps.append(nxt)
        self.reps = reps
        self.index = index

    def __len__(self):
        return len(self.reps)

    def canonical(self, x: Permutation) -> Permutation:
        return coset_canonical(self.H, x)

    def coset_of(self, x: Permutation) -> int:
        return self.index[self.canonical(x).key()]

    def action_of(self, g: Permutation) -> Permutation:
        imgs = [self.coset_of(r * g) for r in self.reps]
        return Permutation(imgs, validate=False)


class CosetAction:
    """Result of G acting on [G:H]: the coset space and the image group."""

    def __init__(self, space, image, phi_gens):
        self.space = space
        self.image = image
        self._phi_gens = phi_gens  # generator index -> image permutation

    @property
    def degree(self):
        return len(self.space)


def coset_action(G: PermutationGroup, H: PermutationGroup) -> CosetAction:
    """Right-multiplication action of G on the right cosets of H.  Its
    kernel is ``core(G, H)``; the image group certifies its own chain."""
    space = CosetSpace(G, H)
    phi_gens = [space.action_of(g) for g in G.gens]
    image = PermutationGroup(phi_gens, len(space))
    return CosetAction(space, image, phi_gens)


def core(G: PermutationGroup, H: PermutationGroup):
    """Core_G(H): the largest normal subgroup of G contained in H.

    Two strategies: when H is small enough to enumerate, keep the largest
    subset of H closed under conjugation by G's generators (that subset is
    automatically a subgroup, and equals the core).  Otherwise stabilize the
    coset points of [G:H] in a combined action, which exhibits the core as
    the kernel of the coset action.
    """
    if H.order() <= 20000 and H.order() * G.degree <= 4 * 10**6:
        return _core_fixpoint(G, H)
    return _core_via_combined(G, H)


def _core_fixpoint(G, H):
    elems = _conjugation_invariant_part(H.element_set(), G.gens)
    return PermutationGroup.from_generator_stream(
        (p for _, p in sorted(elems.items())), G.degree, order=len(elems), parent=G
    )


def _conjugation_invariant_part(elems, conj_gens):
    """The largest subset of the element dict (key -> perm) closed under
    conjugation by conj_gens.  For the elements of a subgroup H this is the
    core of H in <H, conj_gens>; it always holds the identity."""
    alive = dict(elems)
    while True:
        doomed = []
        for k, u in alive.items():
            if u.is_identity():
                continue
            for g in conj_gens:
                if u.conj(g).key() not in alive:
                    doomed.append(k)
                    break
        if not doomed:
            return alive
        for k in doomed:
            del alive[k]


def _core_via_combined(G, H):
    space = CosetSpace(G, H)
    m = len(space)
    n = G.degree
    combined = []
    for g in G.gens:
        act = space.action_of(g)
        imgs = np.concatenate([act.images, g.images + m])
        combined.append(Permutation(imgs, validate=False))
    big = PermutationGroup(combined, m + n, order=G.order(), base_prefix=range(m))
    kernel_gens = []
    kernel_order = 1
    for lvl in big.levels()[m:]:
        kernel_order *= len(lvl)
        for p in lvl.gens:
            kernel_gens.append(Permutation(p.images[m:] - m, validate=False))
    return G.subgroup(kernel_gens, order=kernel_order)


# -- block systems -----------------------------------------------------------


def block_system(G: PermutationGroup, beta: int):
    """Finest block system of the transitive group G with 0 and beta together.

    Atkinson's union-find algorithm.  Returns the partition as a sorted tuple
    of sorted tuples.
    """
    n = G.degree
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    queue = [(0, beta)]
    parent[beta] = 0
    while queue:
        a, b = queue.pop()
        for g in G.gens:
            ga, gb = int(g.images[a]), int(g.images[b])
            ra, rb = find(ga), find(gb)
            if ra != rb:
                parent[rb] = ra
                queue.append((ra, rb))
    blocks = {}
    for v in range(n):
        blocks.setdefault(find(v), []).append(v)
    return tuple(sorted(tuple(sorted(b)) for b in blocks.values()))


def is_primitive(G: PermutationGroup) -> bool:
    """Whether the transitive group G has only the trivial block systems: the
    system joining 0 and beta is the whole domain for every beta."""
    if not G.is_transitive():
        raise ValueError("block systems require a transitive group")
    return all(len(block_system(G, beta)) == 1 for beta in range(1, G.degree))


def is_maximal_subgroup(G: PermutationGroup, M: PermutationGroup) -> bool:
    """M < G is maximal iff the action of G on [G:M] is primitive."""
    act = coset_action(G, M)
    if act.degree == 1:
        raise ValueError("M equals G; maximality is undefined")
    return is_primitive(act.image)


# -- subgroup constructions --------------------------------------------------


def normal_closure(G: PermutationGroup, seeds) -> PermutationGroup:
    gens = [s for s in seeds if not s.is_identity()]
    if not gens:
        return G.subgroup([], order=1)
    H = PermutationGroup(gens, G.degree)
    while True:
        new = []
        for s in list(gens):
            for g in G.gens:
                c = s.conj(g)
                if c not in H:
                    new.append(c)
        if not new:
            break
        gens.extend(new)
        H = PermutationGroup(gens, G.degree)
    return G.subgroup(gens, order=H.order())


def derived_subgroup(G: PermutationGroup) -> PermutationGroup:
    comms = []
    for a, b in combinations(G.gens, 2):
        comms.append(commutator(a, b))
    D = normal_closure(G, comms)
    for a, b in combinations(G.gens, 2):
        if commutator(a, b) not in D:
            raise AssertionError("a generator commutator lies outside the derived subgroup")
    return D


def small_subgroups(G: PermutationGroup, order_bound: int):
    """All subgroups of G whose order divides order_bound (bound <= 16).

    Layered single-element extensions starting from the trivial subgroup;
    complete because every subgroup is reached by adding one generator at a
    time, each intermediate subgroup again having order dividing the bound.
    """
    if order_bound > 16:
        raise ValueError("order bound %d exceeds 16" % order_bound)
    ident = G.identity()
    candidates = [
        p for p in G.elements() if not p.is_identity() and order_bound % p.order() == 0
    ]
    trivial = frozenset([ident.key()])
    seen = {trivial: [ident]}
    frontier = [trivial]
    while frontier:
        nxt = []
        for key_set in frontier:
            elems = seen[key_set]
            for p in candidates:
                if p.key() in key_set:
                    continue
                try:
                    closed = closure_elements(elems + [p], G.degree, limit=order_bound)
                except ResourceExhausted:
                    continue  # too big
                if order_bound % len(closed) != 0:
                    continue
                fs = frozenset(closed)
                if fs not in seen:
                    seen[fs] = list(closed.values())
                    nxt.append(fs)
        frontier = nxt
    out = []
    for fs, elems in seen.items():
        nontrivial = [p for p in elems if not p.is_identity()]
        out.append(G.subgroup(nontrivial, order=len(elems)))
    out.sort(key=lambda S: (S.order(), sorted(S.element_set().keys())))
    return out


def double_coset(A: PermutationGroup, x: Permutation, B: PermutationGroup, budget=10**7):
    """The set AxB as a dict key -> permutation."""
    if A.order() * B.order() > budget:
        raise ResourceExhausted("double coset budget exceeded")
    out = {}
    bs = list(B.elements())
    for a in A.elements():
        ax = a * x
        for b in bs:
            p = ax * b
            out.setdefault(p.key(), p)
    return out


def wreath_square(P: PermutationGroup):
    """P wr Sym(2) in its imprimitive action on two copies of P's domain.

    Returns (X, embed1, embed2, swap) where the embeddings map P into the
    two coordinates and swap conjugates one to the other.
    """
    n = P.degree
    fix = np.arange(n, dtype=np.int64)

    def embed1(p):
        return Permutation(np.concatenate([p.images, fix + n]), validate=False)

    def embed2(p):
        return Permutation(np.concatenate([fix, p.images + n]), validate=False)

    swap = Permutation(np.concatenate([fix + n, fix]), validate=False)
    gens = [embed1(g) for g in P.gens] + [embed2(g) for g in P.gens] + [swap]
    X = PermutationGroup(gens, 2 * n, order=P.order() ** 2 * 2)
    return X, embed1, embed2, swap
