"""Coset actions, cores, block systems, and subgroup machinery.

Right cosets Hx are identified by a canonical representative: the unique
element of Hx whose base-image tuple under H's chain is lexicographically
minimal.  Coset enumeration is a BFS over blocks of image rows restricted
to a column set Ω, the H-orbits of the base points of G and of H: each
block of representatives is multiplied by every generator in one gather,
canonicalized as a whole by the routine behind ``coset_canonical`` and keyed
on the bytes of the rows' Ω-columns, which determine an element of G (Holt,
Eick and O'Brien, *Handbook of Computational Group Theory*, ch. 4).  Only a
new coset's representative is formed on every point.
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
    of the coset, the same one for every element of it.  Each step reads
    only the images of the level's orbit points.
    """
    return _canonicalize(H.levels(), np.array(rows, dtype=_DTYPE), {})


def _canonicalize(levels, P, u, pos=None, omega=None):
    """Canonicalize the rows of P in place and return P: per level, take
    each row's least image of an orbit point a and, where a is not the
    base, replace the row p by u_a * p, one gather per distinct a.  ``u``
    caches the transversal images by (level, a), computed only for the
    points hit.

    Without ``pos`` the rows are whole image arrays.  With it they are
    the images of the points ``omega`` only, an H-invariant set holding
    every level's orbit, and ``pos`` maps each point of omega to its
    column: a level reads the columns pos[pts], and u_a * p is the gather
    of the columns pos[u_a[omega]], which ``u`` caches in place of u_a."""
    for depth, lvl in enumerate(levels):
        pts = lvl.points_arr
        if len(pts) == 1:
            continue
        hit = pts[P[:, pts if pos is None else pos[pts]].argmin(axis=1)]
        moved = np.flatnonzero(hit != lvl.base)
        hit = hit[moved]
        for a in sorted(set(hit.tolist())):
            ua = u.get((depth, a))
            if ua is None:
                ua = lvl.transversal(a).images
                ua = u[depth, a] = ua if pos is None else pos[ua[omega]]
            rows = moved[hit == a]
            P[rows] = P[rows[:, None], ua]
    return P


def _row_keys(P):
    """The bytes of each row of the C-contiguous int32 array P, as
    ``Permutation.key`` gives them."""
    if not P.shape[1]:
        return [b""] * len(P)  # numpy has no void type of size 0
    return P.view(np.dtype((np.void, P.shape[1] * P.itemsize))).ravel().tolist()


def _columns(G, H):
    """The column set Ω of ``CosetSpace(G, H)``, sorted: the union of the
    H-orbits of the base points of G and of H.  It is every point when
    Jordan's theorem proves G a giant, which gets no chain here, and when
    H's first chain orbit is, so H is transitive; H's orbit labels, which
    copy every generator's image array, are then not computed."""
    G.order()
    levels = H.levels()
    if G.prove_giant() or levels and len(levels[0].points_arr) == G.degree:
        return np.arange(G.degree)
    base = [lvl.base for lvl in G.levels()] + [lvl.base for lvl in levels]
    labels = H.orbit_labels()
    keep = np.zeros(G.degree, dtype=bool)
    keep[labels[base]] = True
    return np.flatnonzero(keep[labels])


def _block_rows(reps, rows, start, stop):
    """The Ω-rows of reps[start:stop]: a slice of the array ``rows`` of
    them, or their images when Ω is every point (``rows`` None)."""
    if rows is None:
        return np.array([r.images for r in reps[start:stop]])
    return rows[start:stop]


COSET_LIMIT = 10**6


class CosetSpace:
    """The right cosets of H in G, with G acting by right multiplication;
    ``gen_images[i]`` is the action of ``G.gens[i]``.

    The BFS runs on the images of a column set Ω: the union of the H-orbits
    of the base points of G and of H (every point for a Jordan-proven giant
    G).  Ω is H-invariant, so u_a * p, for u_a in H, permutes the columns of
    p's row; it holds every orbit of H's chain, so a row's canonical form
    (see ``coset_canonical``) is read off its Ω-row; and it holds a base of
    G, so elements of G with equal Ω-rows are equal.  So two canonical
    products are the same coset exactly when their Ω-rows are equal, and
    the Ω-rows' bytes key the cosets.  An Ω-row alone does not prove an
    element in G, so ``coset_of`` and ``cosets_of`` canonicalize an
    element's whole row and raise ValueError unless it is the
    representative its Ω-row names; ``action_of(g)`` checks g so, then
    reads the products r·g off the representatives' Ω-rows, kept as one
    array unless Ω is every point, where they are the representatives.

    The BFS takes a block of consecutive representatives at a time, forms
    the Ω-row of every product r·g in (r, g) order with one gather,
    canonicalizes the block and then walks it in order, so each new coset
    gets the next index as in a one-product-at-a-time BFS.  A block holds
    at least one representative, so up to max(BLOCK_ENTRIES, k·|Ω|)
    entries for k generators.  Only a new coset gets a whole image row: its
    parent's row times g, canonicalized, in blocks of at most
    ``_rows_per_block(n)`` rows of n points.  When Ω is every point the
    canonical products are those rows.  It raises ResourceExhausted, before
    any product, when the index |G:H| passes COSET_LIMIT.  ``reps`` lists
    the canonical representatives as permutations.  ``image`` is the group
    the ``gen_images`` generate, built on first use; its kernel is
    ``core(G, H)`` and |G| bounds its order."""

    def __init__(self, G: PermutationGroup, H: PermutationGroup):
        if not all(g in G for g in H.gens):
            raise ValueError("H is not a subgroup of G")
        self.G = G
        self.H = H
        n, levels = G.degree, H.levels()
        omega = self._omega = _columns(G, H)
        m = G.order() // H.order()
        if m > COSET_LIMIT:
            raise ResourceExhausted("coset enumeration exceeded %d" % COSET_LIMIT)
        w = len(omega)
        self._u = {}  # u_a images by (level, a), for _canonicalize on whole rows
        k = len(G.gens)
        gens = np.array([g.images for g in G.gens], dtype=_DTYPE).reshape(k, n)
        which = np.arange(k)[:, None]  # gens[which, block[:, None]][r, g] is r·g
        rep0 = _canonicalize(levels, np.arange(n, dtype=_DTYPE)[None], self._u)
        reps = [_wrap(rep0[0].copy())]
        # unless Ω is every point: each point's column of Ω, the reps' Ω-rows
        # and the u_a as gathers of Ω-rows
        self._pos = self._rows = None
        self._uc = self._u
        if w < n:
            self._pos = np.full(n, -1, dtype=np.int64)
            self._pos[omega] = np.arange(w)
            self._rows = np.empty((m, w), dtype=_DTYPE)
            self._rows[0] = rep0[0, omega]
            self._uc = {}
        rows = self._rows
        index = {_row_keys(rep0[:, omega])[0]: 0}
        flat = []  # the coset index of each product r·g, in (r, g) order
        step = _rows_per_block(k * w)
        head = 0
        while head < len(reps):
            start = head
            block = _block_rows(reps, rows, head, min(head + step, len(reps)))
            head += len(block)
            products = gens[which, block[:, None]].reshape(len(block) * k, w)
            _canonicalize(levels, products, self._uc, self._pos, omega)
            new = []  # the products that are new cosets, in order
            for q, key in enumerate(_row_keys(products)):
                i = index.get(key)
                if i is None:
                    i = index[key] = len(index)
                    new.append(q)
                flat.append(i)
            if rows is None:
                reps += [_wrap(products[q].copy()) for q in new]
            elif new:
                rows[len(reps) : len(reps) + len(new)] = products[new]
                reps += self._full_reps(levels, gens, reps, start, new)
        if len(reps) != m:
            raise AssertionError("%d cosets enumerated, index %d" % (len(reps), m))
        self.reps = reps
        self._index = index
        self.gen_images = [_wrap(np.array(flat[j::k], dtype=_DTYPE)) for j in range(k)]

    def __len__(self):
        return len(self.reps)

    def _full_reps(self, levels, gens, reps, start, new):
        """The representatives of the new cosets ``new``, products r·g
        numbered from the block that begins at reps[start]: the parent's
        image row gathered by g, then canonicalized."""
        k, step, out = len(gens), _rows_per_block(gens.shape[1]), []
        for s in range(0, len(new), step):
            q = np.array(new[s : s + step])
            parents = np.array([reps[i].images for i in (start + q // k).tolist()])
            full = _canonicalize(levels, gens[(q % k)[:, None], parents], self._u)
            out += [_wrap(row.copy()) for row in full]
        return out

    def _indices(self, rows):
        """The coset index of each whole image row of the fresh array rows;
        ValueError for a row outside G.  A row x whose canonical form h·x
        is reps[i] is h^-1·reps[i], in G; one in G has reps[i] as its
        canonical form.  So the canonical row, found by its Ω-columns, must
        equal reps[i] on the other points too."""
        P = _canonicalize(self.H.levels(), rows, self._u)
        whole = _row_keys(P)
        if len(self._omega) == self.G.degree:
            out = [self._index.get(key) for key in whole]
        else:
            keys = _row_keys(P.take(self._omega, axis=1))
            out = [self._index.get(key) for key in keys]
            out = [
                i if i is not None and self.reps[i].images.tobytes() == row else None
                for i, row in zip(out, whole)
            ]
        if None in out:
            raise ValueError("the permutation is not in G")
        return out

    def _check_degree(self, xs):
        if any(x.degree != self.G.degree for x in xs):
            raise ValueError("the permutation is not in G: its degree is not G's")

    def coset_of(self, x: Permutation) -> int:
        return self.cosets_of([x])[0]

    def cosets_of(self, xs):
        """The coset index of each permutation in xs; ValueError unless
        every one is in G."""
        self._check_degree(xs)
        rows = np.array([x.images for x in xs], dtype=_DTYPE).reshape(len(xs), self.G.degree)
        step = _rows_per_block(self.G.degree)
        return [i for s in range(0, len(rows), step) for i in self._indices(rows[s : s + step])]

    def action_of(self, g: Permutation) -> Permutation:
        """The permutation of the cosets by g; ValueError unless g is in G.
        Membership is checked once, on g's whole row.  The products r·g are
        then in G, so their Ω-rows, gathered from the representatives'
        Ω-rows in blocks, determine their cosets; a miss is an internal
        error and raises KeyError."""
        self.coset_of(g)
        step = _rows_per_block(len(self._omega))
        out = []
        for s in range(0, len(self), step):
            P = g.images[_block_rows(self.reps, self._rows, s, s + step)]
            _canonicalize(self.H.levels(), P, self._uc, self._pos, self._omega)
            out += [self._index[key] for key in _row_keys(P)]
        return _wrap(np.array(out, dtype=_DTYPE))

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
