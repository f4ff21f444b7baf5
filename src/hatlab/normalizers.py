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
assembly choices yields N_{Sym(n)}(S) with no search over Sym(n).

Budgets are explicit; exceeding one raises ResourceExhausted rather than
returning a truncated answer.
"""

from __future__ import annotations

from math import factorial, prod

import numpy as np

from .group import PermutationGroup, ResourceExhausted, giant_type
from .perm import Permutation

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
        m = len(self.elems)
        # stabilizer key per point: frozenset of element indices fixing it
        fix = np.zeros((m, self.n), dtype=bool)
        for i, p in enumerate(self.elems):
            fix[i] = p.images == np.arange(self.n)
        self.stab_key = [frozenset(np.flatnonzero(fix[:, v]).tolist()) for v in range(self.n)]
        self.points_by_key = {}
        for v in range(self.n):
            self.points_by_key.setdefault(self.stab_key[v], []).append(v)
        # orbits with transversal element indices: point -> index of sigma with
        # rep^sigma = point; head_of maps each point to its orbit's rep
        self.orbits = []
        self._head_of = {}
        for orb in S.orbits():
            sigma = {a: self.index_of[orb.transversal(a).key()] for a in orb.points}
            self.orbits.append((orb.base, orb.points, sigma))
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
        table = np.stack([p.images for p in elems])
        # rows[t][p] is the index of elems[p] * elems[t]
        rows = [[self.index_of[r.tobytes()] for r in t.images[table]] for t in elems]

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
        """Per orbit (rep, points, sigma, cands): cands are the points q whose
        stabilizer is alpha of rep's, the possible images of rep."""
        return [
            (rep, pts, sigma, self.points_by_key.get(
                frozenset(alpha[i] for i in self.stab_key[rep]), []))
            for rep, pts, sigma in self.orbits
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
        orbit_cands = self._orbit_candidates(alpha)
        head_of = self._head_of
        g = np.full(self.n, -1, dtype=np.int64)
        used = set()

        def assign(k):
            if k == len(orbit_cands):
                yield Permutation(g.copy(), validate=False)
                return
            rep, pts, sigma, cands = orbit_cands[k]
            for q in cands:
                head = head_of[q]
                if head in used:
                    continue
                used.add(head)
                for a in pts:
                    g[a] = self.elems[alpha[sigma[a]]].images[q]
                if prune is None or not prune(g):
                    yield from assign(k + 1)
                used.discard(head)
            if prune is not None:
                g[pts] = -1  # unknown again for the prune of earlier orbits

        yield from assign(0)

    def all_elements(self):
        elems = {}
        for alpha in self.automorphisms():
            if self.realization_bound(alpha) > 40 * SYM_NORM_SIZE_LIMIT:
                raise ResourceExhausted(
                    "symmetric normalizer enumeration is hopeless "
                    "(per-automorphism bound above %d)" % (40 * SYM_NORM_SIZE_LIMIT)
                )
            for g in self.realizations(alpha):
                elems[g.key()] = g
                if len(elems) > SYM_NORM_SIZE_LIMIT:
                    raise ResourceExhausted(
                        "symmetric normalizer larger than %d elements" % SYM_NORM_SIZE_LIMIT
                    )
        return elems


def normalizer_in_sym(S: PermutationGroup):
    """N_{Sym(n)}(S) as a group whose full element list has been assembled.

    Every element is normalizing by construction (each realization is
    conjugation-equivariant); the group generators are re-verified as a
    spot check.
    """
    data = SymNormalizerData(S)
    elems = data.all_elements()
    N = PermutationGroup.from_generator_stream(
        (p for _, p in sorted(elems.items())), S.degree, order=len(elems)
    )
    for g in N.gens:
        for s in S.gens:
            if s.conj(g) not in S:
                raise AssertionError("normalizer generator does not normalize S")
    N._elements_cache = dict(sorted(elems.items()))
    return N
