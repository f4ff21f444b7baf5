"""Normalizers, and homomorphisms extended from generator images.

Inside an ambient group G the normalizer N_G(S) is a union of right cosets
of S, found by one scan over coset representatives while |G:S| or |G| is
moderate; past that it raises ResourceExhausted.  The normalizer in the
full symmetric group is computed exactly by a different route: every
normalizing permutation g induces an automorphism of S by conjugation, and
for a fixed automorphism alpha the solutions are assembled orbit by orbit
(the image of one point per orbit determines g on the whole orbit, and a
point q is a valid image of p iff the point stabilizers satisfy
S_q = alpha(S_p)).  Enumerating Aut(S) (images of a generating sequence,
each node's homomorphism extended from its parent's by one image) and those
assembly choices streams N_{Sym(n)}(S), none stored, with no search over
Sym(n).  ``extend_homomorphism``, the same extension from the identity,
proves the isomorphisms behind ``signatures.group_name``.

That stream is read only as ``square_roots``: the g with g*g among some
targets (the pair search's arc reversers, example 4.2's witness).  Its two
cuts are exact, since g*g normalizes S and induces alpha o alpha when g
induces alpha: alpha is realized only when some target induces alpha o
alpha on S's generators, and a partial g is cut once a known g(g(a)) is
no target's image of a.

The assembly works on blocks of image rows of at most BLOCK_ENTRIES
entries.  Each orbit is assigned as one array: it multiplies the rows by
its candidates with one gather and drops the rows that reuse an image
orbit.  The rows are then split into chunks of as many rows as still fit
the budget once completed over the later orbits (at least one), and the
walk goes on chunk by chunk.  Each block is yielded as soon as it is
built.

Budgets are explicit; exceeding one raises ResourceExhausted rather than
returning a truncated answer.
"""

from __future__ import annotations

from math import prod

import numpy as np

from .group import PermutationGroup, ResourceExhausted, orbit_labels
from .perm import _DTYPE

SCAN_LIMIT = 10**5
COSET_SCAN_LIMIT = 10**4
AUT_ENUM_LIMIT = 500
SYM_NORM_DEGREE_LIMIT = 256
SYM_NORM_SIZE_LIMIT = 4 * 10**6
BLOCK_ENTRIES = 1 << 16  # image entries per block of rows: 256 KiB of int32


def normalizer(G: PermutationGroup, S: PermutationGroup) -> PermutationGroup:
    """N_G(S) for S <= G; exact or ResourceExhausted.

    While |G:S| <= COSET_SCAN_LIMIT or |G| <= SCAN_LIMIT, N_G(S) is the union
    of the right cosets Sr of S whose representative r normalizes S.  Past
    both limits it raises ResourceExhausted.
    """
    from .cosets import CosetSpace

    if S.order() == 1:
        return G
    if not all(g in G for g in S.gens):
        raise ValueError("S is not a subgroup of G")
    index = G.order() // S.order()
    if index > COSET_SCAN_LIMIT and G.order() > SCAN_LIMIT:
        raise ResourceExhausted("coset scan past its limits: |G|=%d" % G.order())
    gens = list(S.gens)
    count = 0
    for r in CosetSpace(G, S).reps:
        if all(s.conj(r) in S for s in S.gens):
            count += 1
            if not r.is_identity():
                gens.append(r)
    return G.subgroup(gens, order=S.order() * count)


# -- homomorphisms from generator images ------------------------------------


class ElementTable:
    """A finite group's elements in a fixed order, each with an invariant
    that the homomorphisms sought must preserve, and stacked as ``images``;
    ``row(t)[p]`` is the index of elems[p] * elems[t]."""

    def __init__(self, elems, invariants):
        self.elems = elems
        self.invariants = invariants
        self.index_of = {p.key(): i for i, p in enumerate(elems)}
        self.identity = next(i for i, p in enumerate(elems) if p.is_identity())
        self.images = np.stack([p.images for p in elems])
        self._rows = {}

    def row(self, t):
        if t not in self._rows:
            self._rows[t] = [
                self.index_of[r.tobytes()] for r in self.elems[t].images[self.images]
            ]
        return self._rows[t]


def extend_homomorphism(src: ElementTable, dst: ElementTable, pairs):
    """The homomorphism phi on <s_1, ..., s_k> <= src with phi(s_j) = t_j,
    for the index pairs (s_j, t_j), as an index list over src (-1 outside
    the span); None when there is none or it maps an element to one of
    another invariant.

    Breadth-first over right multiplication, phi(p s_j) = phi(p) t_j: every
    element of the span is reached and every such edge checked, so a
    returned phi is a homomorphism.
    """
    phi = [-1] * len(src.elems)
    phi[src.identity] = dst.identity
    edges = [(src.row(s), dst.row(t)) for s, t in pairs]
    return _extend(src.invariants, dst.invariants, phi, [src.identity], 0, edges)


def _extend(src_inv, dst_inv, phi, span, old, edges):
    """Extend phi, a homomorphism on the elements listed in ``span``, in
    place by the last of ``edges``: span[:old] follow only that edge, the
    rest and every element reached follow all, as in ``Orbit.extend``.  The
    map, or None, is ``extend_homomorphism``'s on the same pairs."""
    last = edges[-1:]
    for i, p in enumerate(span):  # the iterator sees the elements appended
        fp = phi[p]
        for rs, rt in last if i < old else edges:
            q, t = rs[p], rt[fp]
            known = phi[q]
            if known == -1:
                if src_inv[q] != dst_inv[t]:
                    return None
                phi[q] = t
                span.append(q)
            elif known != t:
                return None
    return phi


# -- N_{Sym(n)}(S) -----------------------------------------------------------


class SymNormalizerData:
    """Precomputed structure of S used to assemble normalizing permutations."""

    def __init__(self, S: PermutationGroup):
        if S.degree > SYM_NORM_DEGREE_LIMIT:
            raise ResourceExhausted(
                "symmetric normalizer limited to degree %d (got %d)"
                % (SYM_NORM_DEGREE_LIMIT, S.degree)
            )
        self.S = S
        self.n = S.degree
        # the invariants, set below, are read off the table itself
        self.table = table = ElementTable([p for _, p in sorted(S.element_set().items())], None)
        m = len(table.elems)
        self._fixes = table.images == np.arange(self.n)  # [i, v]: elems[i] fixes v
        # conjugation by g permutes the element indices (row i of
        # g[T[:, g^-1]] is elems[i]^g); the classes are the orbits
        conj = [
            [table.index_of[r.tobytes()] for r in g.images[table.images[:, g.inverse().images]]]
            for g in S.gens
        ]
        labels = orbit_labels(conj, m)
        class_size = np.bincount(labels)[labels]
        table.invariants = [(p.order(), int(class_size[i]), p.cycle_type()) for i, p in enumerate(table.elems)]
        # orbits (points, sigma), rep first, sigma[j] the index of an element
        # taking rep to points[j]; orbit_of[v] the number of v's orbit
        self.orbits = []
        reps, self._orbit_of = np.unique(S.orbit_labels(), return_inverse=True)
        for orb in map(S.orbit, reps.tolist()):
            sigma = [table.index_of[orb.transversal(a).key()] for a in orb.points]
            self.orbits.append((orb.points_arr, np.array(sigma)))

    def automorphisms(self):
        """All automorphisms of S as index permutations of the element list.

        Depth-first over images of a generating sequence g_1, g_2, ...: the
        images of g_1..g_k extend to at most one homomorphism on <g_1..g_k>,
        which a child node extends from its parent's by one image (``_extend``).
        A branch dies when an edge clashes or when an element and its image
        differ in the (order, class size, cycle type) invariant, from which
        the candidate images are also drawn.
        """
        table = self.table
        elems, inv_class = table.elems, table.invariants
        m = len(elems)
        candidates_of = {}
        for i in range(m):
            candidates_of.setdefault(inv_class[i], []).append(i)

        # generating sequence, greedily preferring rare invariants; extending
        # the identity images spans the subgroup generated so far
        root = extend_homomorphism(table, table, [])  # defined on the identity
        gens_idx, edges, phi, span = [], [], root[:], [table.identity]
        by_rarity = sorted(
            (i for i in range(m) if i != table.identity),
            key=lambda i: (len(candidates_of[inv_class[i]]), elems[i].key()),
        )
        for i in by_rarity:
            if phi[i] == -1:
                gens_idx.append(i)
                edges.append((table.row(i), table.row(i)))
                _extend(inv_class, inv_class, phi, span, len(span), edges)
                if len(span) == m:
                    break

        auts = []

        def dfs(edges, phi, span):
            level = len(edges)
            if level == len(gens_idx):
                if len(set(phi)) == m:
                    auts.append(tuple(phi))
                    if len(auts) > AUT_ENUM_LIMIT:
                        raise ResourceExhausted(
                            "more than %d automorphisms" % AUT_ENUM_LIMIT
                        )
                return
            rs = table.row(gens_idx[level])
            for img in candidates_of[inv_class[gens_idx[level]]]:
                child, child_phi, child_span = edges + [(rs, table.row(img))], phi[:], span[:]
                if _extend(inv_class, inv_class, child_phi, child_span, len(span), child):
                    dfs(child, child_phi, child_span)

        dfs([], root, [table.identity])
        return auts

    def _orbit_candidates(self, alpha):
        """Per orbit (points, rows, cands): rows[j] = alpha(sigma[j]), and cands
        the points q whose stabilizer is alpha of rep's, the images of rep."""
        arr = np.asarray(alpha)
        out = []
        for pts, sigma in self.orbits:
            want = np.zeros(len(arr), dtype=bool)
            want[arr[self._fixes[:, pts[0]]]] = True
            out.append((pts, arr[sigma], np.flatnonzero((self._fixes.T == want).all(axis=1))))
        return out

    def _realization_rows(self, alpha, prune=None):
        """The g in Sym(n) with s^g = alpha(s) for all s in S, as blocks of
        image rows.

        Orbits are assigned in order, each over its candidate images of the
        rep in increasing order, so the rows come in that lexicographic
        order.  Each orbit is assigned to a block of rows as one array; the
        rows are then split into chunks whose rows, completed over the later
        orbits, fit BLOCK_ENTRIES entries (or one row, when even one does
        not fit), and the walk goes on chunk by chunk.  ``prune``, when
        given, maps a block of partial rows (-1 where still unknown) to a
        boolean mask of the rows to cut, after each orbit is assigned.
        Raises ResourceExhausted when the realization bound of alpha passes
        40 times SYM_NORM_SIZE_LIMIT.
        """
        orbit_cands = self._orbit_candidates(alpha)
        sizes = [len(cands) for *_, cands in orbit_cands]
        if prod(sizes) > 40 * SYM_NORM_SIZE_LIMIT:
            raise ResourceExhausted(
                "symmetric normalizer enumeration is hopeless "
                "(per-automorphism bound above %d)" % (40 * SYM_NORM_SIZE_LIMIT)
            )

        def walk(rows, taken, k):
            if k == len(orbit_cands):
                yield rows
                return
            # every row times every candidate q of orbit k whose image orbit
            # the row has not taken yet, in (row, q) order
            pts, elt_rows, cands = orbit_cands[k]
            mine = self._orbit_of[cands]
            row, q = np.nonzero((taken[:, :, None] != mine).all(axis=1))
            rows = rows[row]
            rows[:, pts] = self.table.images[elt_rows[:, None], cands].T[q]
            taken = np.column_stack([taken[row], mine[q]])
            if prune is not None:
                ok = ~prune(rows)
                rows, taken = rows[ok], taken[ok]
            step = max(1, BLOCK_ENTRIES // (self.n * prod(sizes[k + 1 :])))
            for i in range(0, len(rows), step):
                yield from walk(rows[i : i + step], taken[i : i + step], k + 1)

        yield from walk(
            np.full((1, self.n), -1, dtype=_DTYPE), np.empty((1, 0), dtype=np.intp), 0
        )

    def square_roots(self, targets):
        """Yield (rows, squares): the image rows of the g in N_{Sym(n)}(S)
        with g*g among ``targets`` (permutations of degree n), in blocks in
        realization order, each with the image rows of the squares.

        Only the alpha in Aut(S) whose square alpha o alpha some target
        induces on S are realized, compared on S's generators; a partial row
        is cut once some known g(g(a)) is no target's image of a (unless
        every pair occurs, as for a transitive group of targets); and each
        full row's square is looked up among the targets.  Raises
        ResourceExhausted past SYM_NORM_SIZE_LIMIT realized rows, or when the
        realization bound of one alpha passes 40 times that.
        """
        index_of = self.table.index_of
        gens = [index_of[s.key()] for s in self.S.gens]
        T = np.stack([tau.images for tau in targets])
        # the generator images of what each target induces on S, with a -1,
        # which no alpha o alpha matches, where it does not normalize S
        induced = set()
        for tau in T:
            inv = np.argsort(tau)  # tau[s[tau^-1]] is the image row of s^tau
            induced.add(tuple(index_of.get(tau[s.images[inv]].tobytes(), -1) for s in self.S.gens))
        prune, member = _square_filters(T)
        count = 0
        for alpha in self.automorphisms():
            if tuple(alpha[alpha[s]] for s in gens) not in induced:
                continue
            for rows in self._realization_rows(alpha, prune):
                count += len(rows)
                if count > SYM_NORM_SIZE_LIMIT:
                    raise ResourceExhausted(
                        "more than %d realized rows in N_Sym(n)(S)" % SYM_NORM_SIZE_LIMIT
                    )
                squares = _squares(rows)
                hit = member(squares)
                if hit.any():
                    yield rows[hit], squares[hit]


def _square_filters(roots):
    """For the image rows ``roots``: a prune cutting the partial rows g with
    some known g(g(a)) that no root has at a (None when every pair occurs),
    and a membership test of full rows among the roots."""
    n = roots.shape[1]
    base = np.arange(n) * n  # allowed[a * n + b]: some root takes a to b
    allowed = np.zeros(n * n, dtype=bool)
    allowed[base + roots] = True
    as_bytes = np.dtype((np.void, roots.itemsize * n))
    keys = np.sort(roots.view(as_bytes).ravel())

    def member(rows):
        v = rows.view(as_bytes).ravel()
        return np.searchsorted(keys, v, "right") > np.searchsorted(keys, v)

    def prune(rows):
        # an unknown g(a) = -1 reads the last column; ``known`` drops it
        gga = _squares(rows)
        known = (rows >= 0) & (gga >= 0)
        return (known & ~allowed[base + gga]).any(axis=1)

    return (None if allowed.all() else prune), member


def _squares(rows):
    """g[g] for each image row g of a block."""
    return rows[np.arange(len(rows))[:, None], rows]
