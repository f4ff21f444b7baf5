"""Normalizers and centralizers.

Inside an ambient group G both the normalizer N_G(S) and the centralizer
C_G(x) = C_G(<x>) are unions of right cosets of S, found by one scan over
coset representatives while |G:S| or |G| is moderate.  Past that, the
natural Sym(n) and Alt(n) take the answer in Sym(n), cut to even
permutations for Alt(n).  The normalizer in the full symmetric group is
computed exactly by a different route: every normalizing permutation g
induces an automorphism of S by conjugation, and for a fixed automorphism
alpha the solutions are assembled orbit by orbit (the image of one point per
orbit determines g on the whole orbit, and a point q is a valid image of p
iff the point stabilizers satisfy S_q = alpha(S_p)).  Enumerating Aut(S)
(images of a generating sequence, each extended to a homomorphism) and those
assembly choices streams N_{Sym(n)}(S), none stored, with no search over Sym(n).

Budgets are explicit; exceeding one raises ResourceExhausted rather than
returning a truncated answer.
"""

from __future__ import annotations

from itertools import chain
from math import factorial, prod

import numpy as np

from .group import PermutationGroup, ResourceExhausted, giant_type
from .perm import _DTYPE, Permutation

SCAN_LIMIT = 10**5
COSET_SCAN_LIMIT = 10**4
AUT_ENUM_LIMIT = 500
SYM_NORM_DEGREE_LIMIT = 256
SYM_NORM_SIZE_LIMIT = 4 * 10**6


def normalizer(G: PermutationGroup, S: PermutationGroup) -> PermutationGroup:
    """N_G(S) for S <= G; exact or ResourceExhausted."""
    if S.order() == 1:
        return G
    N = _coset_scan(G, S, lambda r: all(s.conj(r) in S for s in S.gens))
    if N is not None:
        return N
    return _in_giant(G, lambda: normalizer_in_sym(S), "normalizer")


def centralizer(G: PermutationGroup, x: Permutation) -> PermutationGroup:
    """C_G(x) for x in G, by the normalizer's ladder with S = <x>."""
    C = _coset_scan(G, G.subgroup([x]), lambda r: r * x == x * r)
    if C is not None:
        return C
    return _in_giant(G, lambda: centralizer_in_sym(x), "centralizer")


def _coset_scan(G: PermutationGroup, S: PermutationGroup, keep):
    """The union of the right cosets Sr of S in G whose representative r
    passes ``keep``, as a subgroup of G, or None when G is too big to scan.

    ``keep`` must take the same value on every element of a coset and pick
    out a subgroup; the normalizer and the centralizer of S are such unions.
    The scan runs when |G:S| <= COSET_SCAN_LIMIT or |G| <= SCAN_LIMIT.
    """
    from .cosets import CosetSpace

    if not all(g in G for g in S.gens):
        raise ValueError("S is not a subgroup of G")
    index = G.order() // S.order()
    if index > COSET_SCAN_LIMIT and G.order() > SCAN_LIMIT:
        return None
    space = CosetSpace(G, S, max_index=index)
    gens = list(S.gens)
    count = 0
    for r in space.reps:
        if keep(r):
            count += 1
            if not r.is_identity():
                gens.append(r)
    return G.subgroup(gens, order=S.order() * count)


def _in_giant(G: PermutationGroup, in_sym, what: str) -> PermutationGroup:
    """``in_sym()``, the answer in Sym(n), cut down to G when G is the
    natural Sym(n) or Alt(n) on its n points."""
    kind = giant_type(G.gens, G.order())
    if kind == ("sym", G.degree):
        return in_sym()
    if kind == ("alt", G.degree):
        return _even_part(in_sym(), parent=G)
    raise ResourceExhausted("no %s strategy applies: |G|=%d" % (what, G.order()))


def centralizer_in_sym(x: Permutation) -> PermutationGroup:
    """C_{Sym(n)}(x) from the cycle structure: cycle powers and cycle transports."""
    n = x.degree
    by_len = {}
    for cyc in x.cycles(include_fixed=True):
        by_len.setdefault(len(cyc), []).append(cyc)
    gens = []
    order = 1
    for length, cycs in sorted(by_len.items()):
        k = len(cycs)
        order *= length**k * factorial(k)
        if length > 1:
            gens.append(Permutation.from_cycles(n, [cycs[0]]))
        for i in range(k - 1):
            a, b = cycs[i], cycs[i + 1]
            gens.append(Permutation.from_cycles(n, list(zip(a, b))))
    return PermutationGroup(gens, n, order=order)


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
        images of g_1..g_k extend to at most one homomorphism on <g_1..g_k>,
        found by BFS over right multiplication, phi(p g_j) = phi(p) t_j.  A
        branch dies when an edge clashes or when an element and its image
        differ in the (order, class size, cycle type) invariant, from which
        the candidate images are also drawn.
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

        ident_idx = next(i for i, p in enumerate(elems) if p.is_identity())
        # rows[t][p] is the index of elems[p] * elems[t]
        rows = [[self.index_of[r.tobytes()] for r in t.images[self.table]] for t in elems]

        def extend(gens, images):
            """phi as an index list (-1 outside <gens>), or None."""
            phi = [-1] * m
            phi[ident_idx] = ident_idx
            edges = [(rows[s], rows[t]) for s, t in zip(gens, images)]
            queue = [ident_idx]
            for p in queue:
                fp = phi[p]
                for rs, rt in edges:
                    q, t = rs[p], rt[fp]
                    known = phi[q]
                    if known == -1:
                        if inv_class[q] != inv_class[t]:
                            return None
                        phi[q] = t
                        queue.append(q)
                    elif known != t:
                        return None
            return phi

        # generating sequence, greedily preferring rare invariants; extending
        # the identity images spans the subgroup generated so far
        gens_idx = []
        span = extend([], [])
        by_rarity = sorted(
            (i for i in range(m) if i != ident_idx),
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
                yield Permutation(row, validate=False)

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
                    firsts.append(Permutation(rows[0], validate=False))
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
