"""Normalizers, and homomorphisms extended from generator images.

Inside an ambient group G the normalizer N_G(S) is a union of right cosets
of S, found by one scan over coset representatives while |G:S| or |G| is
moderate.  Past that, the natural Sym(n) and Alt(n) take the answer in
Sym(n), cut to even permutations for Alt(n).  The normalizer in the full
symmetric group is computed exactly by a different route: every normalizing
permutation g induces an automorphism of S by conjugation, and for a fixed
automorphism alpha the solutions are assembled orbit by orbit (the image of
one point per orbit determines g on the whole orbit, and a point q is a
valid image of p iff the point stabilizers satisfy S_q = alpha(S_p)).
Enumerating Aut(S) (images of a generating sequence, each extended to a
homomorphism by ``extend_homomorphism``) and those assembly choices streams
N_{Sym(n)}(S), none stored, with no search over Sym(n).  The same extension
proves the isomorphisms behind ``signatures.group_name``.

Budgets are explicit; exceeding one raises ResourceExhausted rather than
returning a truncated answer.
"""

from __future__ import annotations

from itertools import chain
from math import prod

import numpy as np

from .group import PermutationGroup, ResourceExhausted, giant_type
from .perm import _DTYPE, Permutation, _wrap

SCAN_LIMIT = 10**5
COSET_SCAN_LIMIT = 10**4
AUT_ENUM_LIMIT = 500
SYM_NORM_DEGREE_LIMIT = 256
SYM_NORM_SIZE_LIMIT = 4 * 10**6


def normalizer(G: PermutationGroup, S: PermutationGroup) -> PermutationGroup:
    """N_G(S) for S <= G; exact or ResourceExhausted.

    While |G:S| <= COSET_SCAN_LIMIT or |G| <= SCAN_LIMIT, N_G(S) is the union
    of the right cosets Sr of S whose representative r normalizes S.  Past
    that, the natural Sym(n) takes N_{Sym(n)}(S), cut to its even part when
    G is the natural Alt(n).
    """
    from .cosets import CosetSpace

    if S.order() == 1:
        return G
    if not all(g in G for g in S.gens):
        raise ValueError("S is not a subgroup of G")
    index = G.order() // S.order()
    if index <= COSET_SCAN_LIMIT or G.order() <= SCAN_LIMIT:
        gens = list(S.gens)
        count = 0
        for r in CosetSpace(G, S, max_index=index).reps:
            if all(s.conj(r) in S for s in S.gens):
                count += 1
                if not r.is_identity():
                    gens.append(r)
        return G.subgroup(gens, order=S.order() * count)
    kind = giant_type(G.gens, G.order())
    if kind == ("sym", G.degree):
        return normalizer_in_sym(S)
    if kind == ("alt", G.degree):
        return _even_part(normalizer_in_sym(S), parent=G)
    raise ResourceExhausted("no normalizer strategy applies: |G|=%d" % G.order())


def _even_part(N: PermutationGroup, parent=None) -> PermutationGroup:
    """Kernel of the sign map on N (Reidemeister-Schreier over {1, o0})."""
    evens = [g for g in N.gens if g.is_even()]
    odds = [g for g in N.gens if not g.is_even()]
    if not odds:
        gens, order = N.gens, N.order()
    else:
        o0 = odds[0]
        o0i = o0.inverse()
        gens = list(evens)
        gens += [o0 * e * o0i for e in evens]
        gens += [o * o0i for o in odds]
        gens += [o0 * o for o in odds]
        order = N.order() // 2
    if parent is not None:
        return parent.subgroup(gens, order=order)
    return PermutationGroup(gens, N.degree, order=order)


# -- homomorphisms from generator images ------------------------------------


class ElementTable:
    """A finite group's elements in a fixed order, each with an invariant
    that the homomorphisms sought must preserve; ``row(t)[p]`` is the index
    of elems[p] * elems[t]."""

    def __init__(self, elems, invariants):
        self.elems = elems
        self.invariants = invariants
        self.index_of = {p.key(): i for i, p in enumerate(elems)}
        self.identity = next(i for i, p in enumerate(elems) if p.is_identity())
        self._table = np.stack([p.images for p in elems])
        self._rows = {}

    def row(self, t):
        if t not in self._rows:
            self._rows[t] = [
                self.index_of[r.tobytes()] for r in self.elems[t].images[self._table]
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
    queue = [src.identity]
    for p in queue:
        fp = phi[p]
        for rs, rt in edges:
            q, t = rs[p], rt[fp]
            known = phi[q]
            if known == -1:
                if src.invariants[q] != dst.invariants[t]:
                    return None
                phi[q] = t
                queue.append(q)
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
        self.elems = [p for _, p in sorted(S.element_set().items())]
        self.index_of = {p.key(): i for i, p in enumerate(self.elems)}
        self.table = np.stack([p.images for p in self.elems])
        # stabilizer key per point: frozenset of element indices fixing it
        fix = self.table == np.arange(self.n)
        self.stab_key = [frozenset(np.flatnonzero(fix[:, v]).tolist()) for v in range(self.n)]
        self.points_by_key = {}
        for v in range(self.n):
            self.points_by_key.setdefault(self.stab_key[v], []).append(v)
        # orbits (points, sigma), rep first, sigma[j] the index of an element
        # taking rep to points[j]; head_of maps a point to its orbit's rep
        self.orbits = []
        self._head_of = {}
        for orb in S.orbits():
            sigma = [self.index_of[orb.transversal(a).key()] for a in orb.points]
            self.orbits.append((orb.points_arr, np.array(sigma)))
            for a in orb.points:
                self._head_of[a] = orb.base

    def automorphisms(self):
        """All automorphisms of S as index permutations of the element list.

        Depth-first over images of a generating sequence g_1, g_2, ...: the
        images of g_1..g_k extend to at most one homomorphism on <g_1..g_k>
        (``extend_homomorphism``).  A branch dies when an edge clashes or
        when an element and its image differ in the (order, class size,
        cycle type) invariant, from which the candidate images are also
        drawn.
        """
        elems = self.elems
        m = len(elems)
        class_id = [-1] * m
        classes = []
        for i in range(m):
            if class_id[i] != -1:
                continue
            cid = len(classes)
            members = [i]
            class_id[i] = cid
            head = 0
            while head < len(members):
                p = elems[members[head]]
                head += 1
                for g in self.S.gens:
                    j = self.index_of[p.conj(g).key()]
                    if class_id[j] == -1:
                        class_id[j] = cid
                        members.append(j)
            classes.append(members)
        inv_class = [
            (elems[i].order(), len(classes[class_id[i]]), elems[i].cycle_type())
            for i in range(m)
        ]
        candidates_of = {}
        for i in range(m):
            candidates_of.setdefault(inv_class[i], []).append(i)
        table = ElementTable(elems, inv_class)

        def extend(gens, images):
            return extend_homomorphism(table, table, list(zip(gens, images)))

        # generating sequence, greedily preferring rare invariants; extending
        # the identity images spans the subgroup generated so far
        gens_idx = []
        span = extend([], [])
        by_rarity = sorted(
            (i for i in range(m) if i != table.identity),
            key=lambda i: (len(candidates_of[inv_class[i]]), elems[i].key()),
        )
        for i in by_rarity:
            if span[i] == -1:
                gens_idx.append(i)
                span = extend(gens_idx, gens_idx)
                if -1 not in span:
                    break

        auts = []

        def dfs(images, phi):
            level = len(images)
            if level == len(gens_idx):
                if len(set(phi)) == m:
                    auts.append(tuple(phi))
                    if len(auts) > AUT_ENUM_LIMIT:
                        raise ResourceExhausted(
                            "more than %d automorphisms" % AUT_ENUM_LIMIT
                        )
                return
            for img in candidates_of[inv_class[gens_idx[level]]]:
                nxt = extend(gens_idx[: level + 1], images + [img])
                if nxt is not None:
                    dfs(images + [img], nxt)

        dfs([], extend([], []))
        return auts

    def _orbit_candidates(self, alpha):
        """Per orbit (points, rows, cands): rows[j] = alpha(sigma[j]), and cands
        the points q whose stabilizer is alpha of rep's, the images of rep."""
        arr = np.asarray(alpha)
        return [
            (pts, arr[sigma], self.points_by_key.get(
                frozenset(alpha[i] for i in self.stab_key[pts[0]]), []))
            for pts, sigma in self.orbits
        ]

    def realization_bound(self, alpha) -> int:
        """Upper bound on the number of realizations of alpha."""
        return prod(len(cands) for *_, cands in self._orbit_candidates(alpha))

    def realizations(self, alpha, prune=None):
        """Yield every g in Sym(n) with s^g = alpha(s) for all s in S.

        Orbits are assigned one at a time.  ``prune``, when given, sees the
        partial image array after each assignment (-1 where still unknown)
        and cuts the branch when it returns True; it must only cut branches
        that hold no wanted realization.
        """
        for rows in self._realization_rows(alpha, prune):
            for row in rows:
                yield _wrap(np.array(row, dtype=_DTYPE))

    def _realization_rows(self, alpha, prune=None):
        """``realizations`` as image rows, the last orbit's candidates at once."""
        orbit_cands = self._orbit_candidates(alpha)
        head_of = self._head_of
        g = np.full(self.n, -1, dtype=_DTYPE)
        used = set()

        def assign(k):
            pts, rows, cands = orbit_cands[k]
            free = [q for q in cands if head_of[q] not in used]
            if k == len(orbit_cands) - 1:
                block = np.repeat(g[None, :], len(free), axis=0)
                block[:, pts] = self.table[rows[:, None], free].T
                if prune is not None:
                    block = block[[not prune(b) for b in block]]
                if len(block):
                    yield block
                return
            for q in free:
                g[pts] = self.table[rows, q]
                if prune is None or not prune(g):
                    used.add(head_of[q])
                    yield from assign(k + 1)
                    used.discard(head_of[q])
            g[pts] = -1  # unknown again for the prune of earlier orbits

        yield from assign(0)

    def group(self, visit=None) -> PermutationGroup:
        """N_{Sym(n)}(S), its elements enumerated once and each block of them,
        rows of image arrays, passed to ``visit``.  An element induces one
        automorphism of S, and the images of the orbit representatives tell
        the realizations of one apart, so none comes twice.  The count is
        certified from one realization per automorphism and then
        C_{Sym(n)}(S); N's generators are re-verified to normalize S."""
        firsts, count = [], 0
        for alpha in self.automorphisms():
            if self.realization_bound(alpha) > 40 * SYM_NORM_SIZE_LIMIT:
                raise ResourceExhausted(
                    "symmetric normalizer enumeration is hopeless "
                    "(per-automorphism bound above %d)" % (40 * SYM_NORM_SIZE_LIMIT)
                )
            start = count
            for rows in self._realization_rows(alpha):
                if count == start:
                    firsts.append(_wrap(np.array(rows[0], dtype=_DTYPE)))
                count += len(rows)
                if count > SYM_NORM_SIZE_LIMIT:
                    raise ResourceExhausted(
                        "symmetric normalizer larger than %d elements" % SYM_NORM_SIZE_LIMIT
                    )
                if visit is not None:
                    visit(rows)
        identity = tuple(range(len(self.elems)))
        N = PermutationGroup.from_generator_stream(
            chain(firsts, self.realizations(identity)), self.n, order=count
        )
        if not N.normalizes(self.S):
            raise AssertionError("normalizer generator does not normalize S")
        return N


def normalizer_in_sym(S: PermutationGroup) -> PermutationGroup:
    """N_{Sym(n)}(S), counted by enumerating its elements once."""
    return SymNormalizerData(S).group()
