"""Coset actions, cores, block systems, and subgroup machinery.

Right cosets Hx are identified by a canonical representative: the unique
element of Hx whose base-image tuple under H's chain is lexicographically
minimal.  Coset enumeration is a BFS over blocks of image rows: each block
of representatives is multiplied by every generator in one gather,
canonicalized as a whole by the routine behind ``coset_canonical`` and keyed
on the rows' bytes.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations

import numpy as np

from .group import (
    PermutationGroup, ResourceExhausted, _check_deadline, _level_gens, closure_elements,
)
from .perm import _DTYPE, Permutation, _wrap


def commutator(a: Permutation, b: Permutation) -> Permutation:
    return a.inverse() * b.inverse() * a * b


# Image entries per block of rows: 32 KiB of int32, or one row if longer.
# Blocks of 2**16 entries, the normalizers' BLOCK_ENTRIES, ran as fast but
# raised the examples' coset enumerations' peak RSS more than twice as much.
BLOCK_ENTRIES = 1 << 13


def _rows_per_block(width: int) -> int:
    return max(1, BLOCK_ENTRIES // max(1, width))


def coset_canonical(H: PermutationGroup, rows):
    """The minimal element of each right coset H·row under the base-image
    order of H's chain, for every row of the 2-D image array ``rows``, as a
    new array.

    Greedy per level: elements of H are distinguished by their base images,
    so minimizing the image of each base point in turn picks out one element
    of the coset, the same one for every element of it.
    """
    return _canonicalize(H.levels(), np.array(rows, dtype=_DTYPE), {})


def _canonicalize(levels, P, u):
    """Canonicalize the rows of P in place and return P: per level, take
    each row's least image of an orbit point a and, where a is not the
    base, replace the row p by u_a * p, one gather per distinct a.  ``u``
    caches the transversal images by (level, a), computed only for the
    points hit."""
    for depth, lvl in enumerate(levels):
        pts = lvl.points_arr
        if len(pts) == 1:
            continue
        hit = pts[P[:, pts].argmin(axis=1)]
        moved = np.flatnonzero(hit != lvl.base)
        hit = hit[moved]
        for a in sorted(set(hit.tolist())):
            ua = u.get((depth, a))
            if ua is None:
                ua = u[depth, a] = lvl.transversal(a).images
            rows = moved[hit == a]
            P[rows] = P[rows[:, None], ua]
    return P


def _row_keys(P):
    """The bytes of each row of the C-contiguous int32 array P, as
    ``Permutation.key`` gives them."""
    if not P.shape[1]:
        return [b""] * len(P)  # numpy has no void type of size 0
    return P.view(np.dtype((np.void, P.shape[1] * P.itemsize))).ravel().tolist()


COSET_LIMIT = 10**6


class CosetSpace:
    """The right cosets of H in G, with G acting by right multiplication;
    ``gen_images[i]`` is the action of ``G.gens[i]``.

    The BFS takes a block of consecutive representatives at a time, forms every
    product r·g in (r, g) order with one gather, canonicalizes the block and
    then walks it in order, so each new coset gets the next index as in a
    one-product-at-a-time BFS.  A block holds at least one representative, so
    up to max(BLOCK_ENTRIES, k·n) entries for k generators on n points: 19,404
    in example 4.1's normalizer scan.  It raises ResourceExhausted past
    COSET_LIMIT cosets.  ``reps`` lists the canonical representatives as
    permutations and ``index`` maps their keys to their indices.  ``image`` is
    the group the ``gen_images`` generate, built on first use; its kernel is
    ``core(G, H)`` and |G| bounds its order."""

    def __init__(self, G: PermutationGroup, H: PermutationGroup):
        if not all(g in G for g in H.gens):
            raise ValueError("H is not a subgroup of G")
        self.G = G
        self.H = H
        self._u = {}  # u_a images by (level, a), for _canonicalize
        n, levels = G.degree, H.levels()
        k = len(G.gens)
        gens = np.array([g.images for g in G.gens], dtype=_DTYPE).reshape(k, n)
        which = np.arange(k)[:, None]  # gens[which, block[:, None]][r, g] is r·g
        rep0 = _canonicalize(levels, np.arange(n, dtype=_DTYPE)[None], self._u)
        reps = [_wrap(rep0[0].copy())]
        index = {reps[0].key(): 0}
        flat = []  # the coset index of each product r·g, in (r, g) order
        step = _rows_per_block(k * n)
        head = 0
        while head < len(reps):
            block = np.array([r.images for r in reps[head : head + step]])
            head += len(block)
            products = gens[which, block[:, None]].reshape(len(block) * k, n)
            _canonicalize(levels, products, self._u)
            for q, key in enumerate(_row_keys(products)):
                i = index.get(key)
                if i is None:
                    if len(reps) >= COSET_LIMIT:
                        raise ResourceExhausted("coset enumeration exceeded %d" % COSET_LIMIT)
                    i = index[key] = len(reps)
                    reps.append(_wrap(products[q].copy()))
                flat.append(i)
        self.reps = reps
        self.index = index
        self.gen_images = [_wrap(np.array(flat[j::k], dtype=_DTYPE)) for j in range(k)]

    def __len__(self):
        return len(self.reps)

    def _indices(self, rows):
        """The coset index of each row of the fresh array rows; ValueError
        for a row outside G."""
        try:
            return [self.index[k] for k in _row_keys(_canonicalize(self.H.levels(), rows, self._u))]
        except KeyError:
            raise ValueError("the permutation is not in G") from None

    def coset_of(self, x: Permutation) -> int:
        return self.cosets_of([x])[0]

    def cosets_of(self, xs):
        """The coset index of each permutation in xs; ValueError unless
        every one is in G."""
        if any(x.degree != self.G.degree for x in xs):
            raise ValueError("the permutation is not in G: its degree is not G's")
        rows = np.array([x.images for x in xs], dtype=_DTYPE).reshape(len(xs), self.G.degree)
        step = _rows_per_block(self.G.degree)
        return [i for s in range(0, len(rows), step) for i in self._indices(rows[s : s + step])]

    def action_of(self, g: Permutation) -> Permutation:
        step = _rows_per_block(self.G.degree)
        blocks = (
            np.array([r.images for r in self.reps[s : s + step]]) for s in range(0, len(self), step)
        )
        return _wrap(np.array([i for b in blocks for i in self._indices(g.images[b])], dtype=_DTYPE))

    @cached_property
    def image(self) -> PermutationGroup:
        return PermutationGroup(self.gen_images, len(self), bound=self.G)


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
    # drop the elements with a conjugate outside the rest until none is left
    alive = dict(H.element_set())
    while doomed := [
        k for k, u in alive.items()
        if not u.is_identity() and any(u.conj(g).key() not in alive for g in G.gens)
    ]:
        for k in doomed:
            del alive[k]
    return PermutationGroup.from_generator_stream(
        (p for _, p in sorted(alive.items())), G.degree, order=len(alive), parent=G
    )


def _core_via_combined(G, H):
    space = CosetSpace(G, H)
    m = len(space)
    n = G.degree
    combined = []
    for g, act in zip(G.gens, space.gen_images):
        combined.append(_wrap(np.concatenate([act.images, g.images + m])))
    big = PermutationGroup(combined, m + n, order=G.order(), base_prefix=range(m))
    kernel_gens = []
    kernel_order = 1
    for lvl in big.levels()[m:]:
        kernel_order *= len(lvl)
        for p in lvl.gens:
            kernel_gens.append(_wrap(p.images[m:] - m))
    return G.subgroup(kernel_gens, order=kernel_order)


# -- block systems -----------------------------------------------------------


def block_system(G: PermutationGroup, beta: int):
    """Finest block system of the transitive group G with 0 and beta together.

    Atkinson's union-find algorithm, on image lists made once per call.
    Returns the partition as a sorted tuple of sorted tuples.
    """
    n = G.degree
    parent = list(range(n))
    gens = [g.images.tolist() for g in G.gens]

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    queue = [(0, beta)]
    parent[beta] = 0
    while queue:
        a, b = queue.pop()
        for g in gens:
            ra, rb = find(g[a]), find(g[b])
            if ra != rb:
                parent[rb] = ra
                queue.append((ra, rb))
    blocks = {}
    for v in range(n):
        blocks.setdefault(find(v), []).append(v)
    return tuple(sorted(tuple(sorted(b)) for b in blocks.values()))


# Block systems for this many betas cost about as much as the sampled Jordan
# test (measured on degrees 18 and 72), so a chainless ``is_primitive`` runs
# them first: they catch most imprimitive groups, and a giant pays at most
# about twice the test.
BETAS_BEFORE_SAMPLES = 8


def is_primitive(G: PermutationGroup) -> bool:
    """Whether G is transitive with only the trivial block systems; an
    intransitive group is not primitive.

    Sym(n) and Alt(n), certified by a chain or a Jordan proof, are
    primitive.  Otherwise, with a chain one beta per G_0-orbit suffices, a
    block of 0 being a union of them (Holt, Eick and O'Brien, *Handbook*,
    ch. 4); u_0 carries the first level's G_b orbits to G_0's.  Without a
    chain it builds none and tries every beta, but once the first
    ``BETAS_BEFORE_SAMPLES`` give no block, ``prove_giant`` draws its fixed
    budget of samples for a Jordan proof, which ends the scan."""
    if not G.is_transitive():
        return False
    if G.degree < 3 or (G.is_certified() and G.giant_type() is not None):
        return True
    if G.is_certified():
        top, stab = G.levels()[0], PermutationGroup(_level_gens(G.levels(), 1), G.degree)
        u0 = top.transversal(0)
        return all(
            len(block_system(G, u0(b))) == 1
            for b, label in enumerate(stab.orbit_labels().tolist()) if b == label != top.base
        )
    betas = range(1, G.degree)
    head, tail = betas[:BETAS_BEFORE_SAMPLES], betas[BETAS_BEFORE_SAMPLES:]
    if not all(len(block_system(G, beta)) == 1 for beta in head):
        return False
    if tail and G.prove_giant():
        return True
    return all(len(block_system(G, beta)) == 1 for beta in tail)


def is_maximal_subgroup(G: PermutationGroup, M: PermutationGroup) -> bool:
    """M < G is maximal iff the action of G on [G:M] is primitive."""
    space = CosetSpace(G, M)
    if len(space) == 1:
        raise ValueError("M equals G; maximality is undefined")
    return is_primitive(space.image)


# -- subgroup constructions --------------------------------------------------


def normal_closure(G: PermutationGroup, seeds) -> PermutationGroup:
    gens = [s for s in seeds if not s.is_identity()]
    H = PermutationGroup(gens, G.degree)
    while new := [c for s in gens for g in G.gens if (c := s.conj(g)) not in H]:
        gens += new
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


def small_subgroups(G: PermutationGroup, order_bound: int, deadline=None):
    """All subgroups of G whose order divides order_bound (bound <= 16).

    Layered extensions of the subgroups found so far by one cyclic subgroup
    <p> each (p first of its generators), complete since every subgroup is
    reached one generator at a time below the bound, joined as right cosets
    (Dimino; Butler, LNCS 559).  A join whose product set S<p>, of size
    |S||<p>|/|S & <p>|, exceeds the bound is skipped before any product.
    Elements are keyed by their images of G's base points (an int for a
    one-point base).  A subgroup's generators are its elements in
    ``closure_elements`` order from the first pair that reached it.  Raises
    BudgetExpired once ``time.time()`` passes ``deadline``.
    """
    if order_bound > 16:
        raise ValueError("order bound %d exceeds 16" % order_bound)
    base = [lvl.base for lvl in G.levels()]

    def key(p):
        return p.images[base[0]].item() if len(base) == 1 else tuple(p.images[base].tolist())

    first_of = {}  # cyclic subgroup (key set) -> its first generator in element order
    for p in G.elements():
        _check_deadline(deadline)
        powers = [p]  # up to the identity, or past the bound
        while not powers[-1].is_identity() and len(powers) <= order_bound:
            powers.append(powers[-1] * p)
        if len(powers) > 1 and order_bound % len(powers) == 0:
            first_of.setdefault(frozenset(map(key, powers)), p)
    cyclics = [(cyclic, p, key(p), p.images.tolist()) for cyclic, p in first_of.items()]
    ident = G.identity()
    frontier = [frozenset([key(ident)])]
    seen = {frontier[0]: ([ident], [])}  # key set -> (elements, generator images)
    while frontier:
        nxt = []
        for key_set in frontier:
            elems, gens = seen[key_set]
            table = np.stack([s.images for s in elems])[:, base].ravel().tolist()
            for cyclic, p, p_key, p_images in cyclics:
                _check_deadline(deadline)
                if p_key in key_set:
                    continue
                if len(key_set) * len(cyclic) > order_bound * len(key_set & cyclic):
                    continue
                joined = _coset_join(key_set, table, len(base), gens + [p_images], order_bound)
                if joined is None or order_bound % len(joined) != 0 or joined in seen:
                    continue
                closed = list(closure_elements(elems + [p], G.degree).values())
                if frozenset(map(key, closed)) != joined:
                    raise AssertionError("coset closure disagrees with the plain closure")
                seen[joined] = (closed, gens + [p_images])
                nxt.append(joined)
        frontier = nxt
    out = sorted((len(e), sorted(s.key() for s in e), e[1:]) for e, _ in seen.values())
    return [G.subgroup(gens, order=size) for size, _, gens in out]


def _coset_join(key_set, table, width, gens, limit):
    """The base keys of <gens> as right cosets S*r of S = <gens[:-1]>, None past
    limit; S has keys ``key_set`` and images ``table`` of the ``width`` base points,
    flattened, identity first.  Each r holds its images of the table's points."""
    keys, reps, size = set(key_set), [table], len(table) // width
    for r in reps:
        for g in gens:
            x = [g[i] for i in r]  # r * g
            if (x[0] if width == 1 else tuple(x[:width])) not in keys:
                if len(keys) + size > limit:
                    return None
                keys.update(x if width == 1 else zip(*[iter(x)] * width))  # S * x
                reps.append(x)
    return frozenset(keys)


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
    fix = np.arange(n, dtype=_DTYPE)

    def embed1(p):
        return _wrap(np.concatenate([p.images, fix + n]))

    def embed2(p):
        return _wrap(np.concatenate([fix, p.images + n]))

    swap = _wrap(np.concatenate([fix + n, fix]))
    gens = [embed1(g) for g in P.gens] + [embed2(g) for g in P.gens] + [swap]
    X = PermutationGroup(gens, 2 * n, order=P.order() ** 2 * 2)
    return X, embed1, embed2, swap
