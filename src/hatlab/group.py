"""Permutation groups backed by a base and strong generating set.

The chain is built by a randomized Schreier-Sims pass, and the order is
made exact by one of four routes: a proven upper bound (``bound=``: the
order of a parent, of a source the group is a homomorphic image of, or a
search-tree count; or a claimed order, ``order=``), which ends the build
once the chain reaches it; Jordan's theorem, which proves the group Alt(n)
or Sym(n) from one sample and ends the build without a chain; the
alternating/symmetric sandwich, when the chain reaches the ceiling of its
moved points; or else a deterministic verification that sifts every
Schreier generator.  The chain order is always a lower bound for the group
order (every stored permutation is a product of input generators), so
matching an upper bound certifies completeness.  A claim is a bound that
the certified order must also equal.

Jordan's theorem: a primitive group of degree n with a p-cycle, p prime and
p <= n - 3, contains Alt(n) (Wielandt, *Finite Permutation Groups*, 1964,
Thm 13.9; Seress, *Permutation Group Algorithms*, 2003, §10.2).  Once the
partial chain shows the group transitive on its n >= 8 moved points with a
transitive point stabilizer, each sample is tested before it is sifted: a
cycle of prime length p, n/2 < p <= n - 3, is the only cycle of the sample
with length divisible by p (the others hold fewer than p points), so a
power of the sample is a p-cycle; and a transitive group with a p-cycle,
p > n/2, is primitive, since the p-cycle must fix each of the fewer than p
blocks, none of which has p points.  The parity of the generators then
decides between Alt(n) and Sym(n).  A proven giant answers its order,
membership (support and parity) and primitivity from the proof, and builds
its chain only when one is read: from scratch, with the proven order as its
bound, which gives the chain of the build without the Jordan route.

Each level's Schreier tree is extended incrementally as strong generators
arrive and fully rebuilt only when it would pass its shallow-tree depth
bound (Seress, *Permutation Group Algorithms*, §4.2).

Base points are chosen smallest-moved-first, and all randomness is seeded,
so chains are reproducible run to run.
"""

from __future__ import annotations

import random
import time
from functools import cache
from math import factorial, isqrt

import numpy as np

from .perm import _DTYPE, DegreeMismatch, Permutation, _inverse_images, _wrap

_STATIONARY_ROUNDS = 14
# Jordan's theorem needs a prime p with n/2 < p <= n - 3, which exists from
# n = 8 on; a chainless primitivity test draws this many samples for it.
JORDAN_MIN_DEGREE = 8
JORDAN_SAMPLES = 48
# orbit_labels' image entries per block of generators (small groups: one block)
LABEL_BLOCK_ENTRIES = 1 << 13


class ResourceExhausted(RuntimeError):
    """A search or enumeration exceeded its configured budget."""


class BudgetExpired(ResourceExhausted):
    """A time budget ran out; the search that set it reports itself incomplete."""


def _check_deadline(deadline):
    """Raise BudgetExpired once ``time.time()`` passes deadline (None: never)."""
    if deadline is not None and time.time() > deadline:
        raise BudgetExpired("time budget exhausted")


class Orbit:
    """Orbit of a base point with a shallow Schreier tree (Seress,
    *Permutation Group Algorithms*, §4.2), built by ``extend``.

    A stabilizer-chain level is an orbit whose ``gens`` holds the strong
    generators introduced at that level.
    """

    __slots__ = ("base", "degree", "gens", "tree_gens", "nav", "depth", "points", "points_arr")

    def __init__(self, base: int, degree: int):
        self.base = base
        self.degree = degree
        self.gens = []        # strong generators introduced at this chain level
        self.tree_gens = []   # (g, g_inv) pairs: tree generators + shortcuts
        self.nav = {base: None}  # point -> (tree_gen_index, polarity) of incoming edge
        self.depth = {base: 0}   # point -> number of edges from base in the tree
        self.points = [base]  # discovery order
        self.points_arr = np.array([base], dtype=np.int64)

    def __len__(self):
        return len(self.points)

    def __contains__(self, point):
        return point in self.nav

    def extend(self, new) -> None:
        """Add the tree generators ``new``, a list of ``_tree_gen`` triples.

        The old orbit points only need the new generators; BFS under every
        generator runs from the new points alone.  Past the depth bound the
        whole tree is rebuilt, with a shortcut added.
        """
        first = len(self.tree_gens)
        self.tree_gens += [(g, g_inv) for g, g_inv, _ in new]
        newest = [(first + i, lists) for i, (_, _, lists) in enumerate(new)]
        old = len(self.points)
        while not self._bfs(old, newest):
            self.nav = {self.base: None}
            self.depth = {self.base: 0}
            self.points = [self.base]
            old = 0

    def _bfs(self, old: int, newest) -> bool:
        """BFS onward from ``self.points``; the first ``old`` points take only
        the ``newest`` (index, image lists) tree generators.  On a point
        deeper than the bound, adds the path to its parent as a shortcut
        generator and returns False."""
        tree_gens = self.tree_gens
        nav, depth, order = self.nav, self.depth, self.points
        limit = 2 * len(tree_gens) + 2
        every = None
        head = 0
        while head < len(order):
            a = order[head]
            if head < old:
                moves = newest
            else:
                if every is None:
                    every = [
                        (g.images.tolist(), ginv.images.tolist()) for g, ginv in tree_gens
                    ]
                moves = enumerate(every)
            head += 1
            d = depth[a] + 1
            for idx, imgs in moves:
                for pol in (0, 1):
                    b = imgs[pol][a]
                    if b in nav:
                        continue
                    if d > limit:
                        shortcut = self.transversal(a)
                        tree_gens.append((shortcut, shortcut.inverse()))
                        return False
                    nav[b] = (idx, pol)
                    depth[b] = d
                    order.append(b)
        self.points_arr = np.array(order, dtype=np.int64)
        return True

    def transversal(self, a: int) -> Permutation:
        """u_a with base^(u_a) = a: the tree path's labels composed as image
        arrays from a up to the base (g * u is u.images[g.images])."""
        if a == self.base:
            return Permutation.identity(self.degree)
        idx, pol = self.nav[a]
        g, imgs = self.tree_gens[idx][pol], None
        a = int(self.tree_gens[idx][1 - pol].images[a])
        while a != self.base:
            idx, pol = self.nav[a]
            imgs = (g.images if imgs is None else imgs)[self.tree_gens[idx][pol].images]
            a = int(self.tree_gens[idx][1 - pol].images[a])
        return g if imgs is None else _wrap(imgs)

    def cancel_into(self, p: Permutation) -> Permutation:
        """Right-multiply p by u_a^{-1} where a = base^p, so base is fixed:
        image arrays composed along the tree path, p itself when a = base."""
        a, imgs = int(p.images[self.base]), p.images
        while a != self.base:
            idx, pol = self.nav[a]
            back = self.tree_gens[idx][1 - pol].images
            imgs, a = back[imgs], int(back[a])
        return p if imgs is p.images else _wrap(imgs)

    def schreier_generators(self, gens):
        """Schreier's lemma, lazily: u_a * g * u_{a^g}^-1 for each orbit
        point a, in discovery order, and each g in gens; skips the identities
        from g labelling the tree edge into a^g (the tree not rebuilt since)."""
        for a in self.points:
            nav, u_a = self.nav, self.transversal(a)
            for g in gens:
                edge = nav.get(int(g.images[a]))
                if edge is not None and self.nav is nav and self.tree_gens[edge[0]][edge[1]] == g:
                    continue
                yield self.cancel_into(u_a * g)


def orbit_labels(images, n):
    """The least point of each point's orbit under the permutations of
    {0,...,n-1} with image arrays ``images`` (a list), as an array.

    Labels only fall, each to a point of its orbit.  Where labels differ
    along g, a round hooks, along g and its inverse, the label of x's label
    to that of g(x) (Shiloach and Vishkin, J. Algorithms 3, 1982), then
    jumps once through the labels; labels equal along every g are the least
    points.  Lowering only x's own label took 11,692 rounds on a 60,000-cycle.
    """
    lab = np.arange(n)
    step = max(1, LABEL_BLOCK_ENTRIES // max(1, n))
    blocks = [np.array(images[i : i + step], dtype=np.intp).ravel() for i in range(0, len(images), step)]
    src = np.tile(lab, min(step, len(images)))
    while True:
        moved = False
        for dst in blocks:
            a, b = lab[src[: len(dst)]], lab[dst]
            if (a != b).any():
                moved = True
                np.minimum.at(lab, a, b)
                np.minimum.at(lab, b, a)
        if not moved:
            return lab
        lab = lab[lab]


def _label_classes(labels):
    """The classes of equal labels, as sorted index arrays ordered by label."""
    order = np.argsort(labels, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(labels[order])) + 1) if len(order) else []


def _tree_gen(g: Permutation):
    """(g, g^-1, image lists of both), as ``Orbit.extend`` takes them."""
    inv = g.inverse()
    return g, inv, (g.images.tolist(), inv.images.tolist())


def _dedupe(perms):
    seen = set()
    out = []
    for p in perms:
        k = p.key()
        if k not in seen and not p.is_identity():
            seen.add(k)
            out.append(p)
    return out


class PermutationGroup:
    """A group of permutations of {0,...,degree-1}, its order certified by
    one of the four routes of the module docstring.

    ``bound=`` is a proven upper bound: an int, or a group mapping
    homomorphically onto this one (generators onto generators), whose order
    is read only when the chain is built; a ``parent`` (checked to hold
    every generator) is the default.  A chain short of its bound, such as
    that of a proper subgroup or a non-faithful image, is finished as
    without one; a chain or a Jordan proof past it raises.  ``order=``
    claims a trusted order, e.g. one obtained from the orbit-stabilizer
    identity, and takes the place of the bound; a certified order other
    than the claim raises.  Claiming a proper divisor of the true order is
    undetectable here (the build stops at the claim), so the value must come
    from a sound derivation.  A group that Jordan's theorem proves Alt(n) or
    Sym(n) keeps the proof instead of a chain until ``levels`` is read.
    """

    def __init__(
        self, generators, degree=None, *, order=None, parent=None, bound=None, base_prefix=()
    ):
        gens = list(generators)
        if degree is None:
            if not gens:
                raise ValueError("degree required for an empty generating set")
            degree = gens[0].degree
        for g in gens:
            if g.degree != degree:
                raise DegreeMismatch("generator degree %d != %d" % (g.degree, degree))
        self.degree = degree
        self.gens = _dedupe(gens)
        self.parent = parent
        self._claim = order
        self._bound = order if order is not None else parent if bound is None else bound
        self._levels = None
        self._order = None
        self._proof = None  # (giant type, fixed points) of a Jordan proof
        self._base_prefix = tuple(base_prefix)
        self._elements_cache = None
        if parent is not None:
            for g in self.gens:
                if g not in parent:
                    raise ValueError("generator is not a member of the parent group")

    # -- chain construction ------------------------------------------------

    def _certify(self):
        """Certify the order: by a Jordan proof, or else by a complete chain."""
        if self._order is None:
            self._accept(*self._build(self._bound))

    def _build(self, upper):
        """A chain from scratch, with the Jordan proof that cut it short, if any."""
        levels = [Orbit(b, self.degree) for b in self._base_prefix]
        for g in self.gens:
            self._chain_add(levels, g)
        return levels, self._complete(levels, self.gens, upper)

    def _accept(self, levels, proof):
        """Keep the certificate of the order: the complete chain ``levels``,
        or else a Jordan proof, which must not pass the bound.  An order
        other than the claim raises."""
        if proof is None:
            what, order = "chain", _chain_order(levels)
        else:
            (kind, n), _ = proof
            what, order, levels = "proven", factorial(n) // (2 if kind == "alt" else 1), None
            bound = self._bound
            if bound is not None and not isinstance(bound, int):
                bound = bound.order()
            if bound is not None and order > bound:
                raise ValueError("proven order %d exceeds its bound %d" % (order, bound))
        if self._claim is not None and order != self._claim:
            raise ValueError("%s order %d is not the claimed %d" % (what, order, self._claim))
        self._levels, self._proof, self._order = levels, proof, order

    def _complete(self, levels, gens, upper):
        """Complete the chain of <gens>: randomized Schreier-Sims, then a
        rigorous finish (Seress, *Permutation Group Algorithms*, §4.2).

        Seeded product-replacement samples are sifted into the chain until
        it reaches the bound ``upper`` (an int, a group whose order is read
        here, or None), which needs no finish, or for ``_STATIONARY_ROUNDS``
        idle samples, after which the Alt/Sym sandwich or else the Schreier
        pass certifies it; a chain past the bound raises.  Unless the group
        holds a Jordan proof, once the partial chain shows <gens> transitive
        on its n >= ``JORDAN_MIN_DEGREE`` moved points with a transitive
        point stabilizer, each sample is first tested for a Jordan cycle; on
        the first, the build stops and returns the proof (else None).
        """
        if not gens:
            return None
        bound = upper if upper is None or isinstance(upper, int) else upper.order()
        if bound is None or _chain_order(levels) < bound:
            rng = _Rattle(gens, random.Random(0))
            moved = None  # counted once the partial chain looks 2-transitive
            idle = 0
            while idle < _STATIONARY_ROUNDS and (bound is None or _chain_order(levels) < bound):
                p = rng.sample()
                if (
                    self._proof is None
                    and len(levels) > 1
                    and len(levels[0]) >= JORDAN_MIN_DEGREE
                    and len(levels[1]) == len(levels[0]) - 1
                ):
                    if moved is None:
                        moved = _moved_points(gens)
                    if len(levels[0]) == len(moved) and _jordan_cycle(
                        p.images, _jordan_primes(len(moved))
                    ):
                        return _giant_proof(gens, moved, self.degree)
                idle = 0 if self._chain_add(levels, p) else idle + 1
            short = bound is None or _chain_order(levels) < bound
            if short and _giant_type(gens, _chain_order(levels)) is None:
                self._schreier_complete(levels)
        if bound is not None and _chain_order(levels) > bound:
            raise ValueError("chain order %d exceeds its bound %d" % (_chain_order(levels), bound))
        return None

    def _chain_add(self, levels, p, start=0) -> bool:
        """Sift p; install a nontrivial residue as a strong generator and
        extend the trees of the levels it generates incrementally (a tree is
        fully rebuilt only past its depth bound)."""
        residue, depth = _sift(levels, p, start)
        if residue.is_identity():
            return False
        if depth == len(levels):
            b = residue.first_moved()
            levels.append(Orbit(b, self.degree))
        levels[depth].gens.append(residue)
        new = [_tree_gen(residue)]
        for i in range(depth + 1):
            levels[i].extend(new)
        return True

    def _schreier_complete(self, levels):
        """Deterministic completion: sift every Schreier generator, bottom-up.

        Trees are always current, so each level is scanned as it stands; any
        install restarts from the bottom.
        """
        i = len(levels) - 1
        while i >= 0:
            lvl = levels[i]
            restart = False
            for schreier in lvl.schreier_generators(_level_gens(levels, i)):
                if self._chain_add(levels, schreier, start=i + 1):
                    restart = True
            if restart:
                i = len(levels) - 1
            else:
                i -= 1

    # -- queries -------------------------------------------------------------

    def order(self) -> int:
        self._certify()
        return self._order

    def __len__(self):
        return self.order()

    def __contains__(self, p: Permutation) -> bool:
        if p.degree != self.degree:
            return False
        self._certify()
        if self._proof is not None:
            (kind, _), fixed = self._proof
            return np.array_equal(p.images[fixed], fixed) and (kind == "sym" or p.is_even())
        residue, _ = _sift(self._levels, p, 0)
        return residue.is_identity()

    def is_certified(self) -> bool:
        """Whether the order is certified, by a chain or a Jordan proof
        (``order`` certifies it)."""
        return self._order is not None

    def giant_type(self):
        """("alt", n) or ("sym", n) when the group is the full alternating or
        symmetric group on its n >= 3 moved points, else None; from the
        Jordan proof when there is one, else from the certified order."""
        self._certify()
        if self._proof is not None:
            return self._proof[0]
        return _giant_type(self.gens, self._order)

    def prove_giant(self) -> bool:
        """Whether Jordan's theorem proves the group Alt(n) or Sym(n) on its
        n moved points, without a chain: by the proof of an earlier order
        certification or, when no order is certified yet, by
        ``JORDAN_SAMPLES`` fresh seeded samples of a group transitive on its
        n >= ``JORDAN_MIN_DEGREE`` moved points.  A proof found certifies
        the order (see ``_accept``); False proves nothing."""
        if self._order is None:
            moved = _moved_points(self.gens)
            n = len(moved)
            if n >= JORDAN_MIN_DEGREE and (self.orbit_labels() == min(moved)).sum() == n:
                primes, rng = _jordan_primes(n), _Rattle(self.gens, random.Random(0))
                if any(_jordan_cycle(rng.sample().images, primes) for _ in range(JORDAN_SAMPLES)):
                    self._accept(None, _giant_proof(self.gens, moved, self.degree))
        return self._proof is not None

    def levels(self):
        """The stabilizer chain.  A proven giant builds it here, from scratch
        with its proven order as the bound (and no Jordan test: it has one)."""
        if self._levels is None:
            self._certify()
            if self._levels is None:
                self._levels, _ = self._build(self._order)
        return self._levels

    def identity(self) -> Permutation:
        return Permutation.identity(self.degree)

    def elements(self):
        """All elements, in deterministic chain-transversal order.

        Only sensible for small groups; iterating a group of order above
        10**7 raises.
        """
        if self.order() > 10**7:
            raise ResourceExhausted("refusing to enumerate %d elements" % self.order())

        levels = self.levels()

        def rec(i):
            # elements of the level-i group: g = h * u_a with h one level down
            if i == len(levels):
                yield Permutation.identity(self.degree)
                return
            lvl = levels[i]
            for rest in rec(i + 1):
                for a in lvl.points:
                    yield rest * lvl.transversal(a)

        return rec(0)

    def element_set(self):
        if self._elements_cache is None:
            self._elements_cache = {p.key(): p for p in self.elements()}
        return self._elements_cache

    # -- orbits and actions ----------------------------------------------

    def orbit(self, point: int) -> "Orbit":
        if not 0 <= point < self.degree:
            raise ValueError("point %d out of range" % point)
        orb = Orbit(point, self.degree)
        orb.extend([_tree_gen(g) for g in self.gens])
        return orb

    def orbit_labels(self):
        """``orbit_labels`` of the generators: the least point of each orbit."""
        return orbit_labels([g.images for g in self.gens], self.degree)

    def orbits(self):
        """The orbits as sorted point arrays, ordered by least point."""
        return _label_classes(self.orbit_labels())

    def is_transitive(self) -> bool:
        return not self.orbit_labels().any()

    def transitivity_profile(self):
        """{transitive, semiregular, regular} on the whole domain.

        Semiregular means every point stabilizer is trivial, checked through
        chain orders; regular adds transitivity.
        """
        order, orbits = self.order(), self.orbits()
        transitive = len(orbits) <= 1
        semiregular = all(len(orb) == order for orb in orbits)
        return {
            "transitive": transitive,
            "semiregular": semiregular,
            "regular": transitive and semiregular and order == self.degree,
        }

    def point_stabilizer(self, point: int) -> "PermutationGroup":
        """Stabilizer of a point, via Schreier generators with a known order.

        The Schreier generators are consumed lazily: once the chain of the
        collected ones reaches |G| / |orbit|, the rest are redundant.
        """
        orb = self.orbit(point)
        total = self.order()
        if total % len(orb) != 0:
            raise AssertionError("orbit size does not divide group order")
        sub_order = total // len(orb)
        return PermutationGroup.from_generator_stream(
            orb.schreier_generators(self.gens), self.degree, order=sub_order, parent=self
        )

    @classmethod
    def from_generator_stream(cls, stream, degree, *, order, parent=None):
        """Group from a generator stream known to generate a group of the
        claimed order; generators are consumed only until the chain reaches
        that order.  A chain the stream left short is completed with the
        claim as its bound, which may end in a Jordan proof instead; either
        certificate is checked against the claim.
        """
        levels = []
        shell = cls([], degree)
        kept = []
        if order > 1:
            for p in stream:
                if shell._chain_add(levels, p):
                    kept.append(p)
                    if _chain_order(levels) == order:
                        break
        G = cls(kept, degree, order=order, parent=parent)
        G._accept(levels, G._complete(levels, G.gens, order))
        return G

    def subgroup(self, generators, *, order=None) -> "PermutationGroup":
        return PermutationGroup(generators, self.degree, order=order, parent=self)

    def normalizes(self, sub: "PermutationGroup") -> bool:
        return all(s.conj(g) in sub for g in self.gens for s in sub.gens)

    def is_normal_in(self, big: "PermutationGroup") -> bool:
        return big.normalizes(self)


class _Rattle:
    """Seeded product-replacement sampler over a fixed generating set (Seress,
    §3.3), on image arrays never written in place: p * q is q[p]."""

    def __init__(self, gens, rng):
        self.rng = rng
        ident = np.arange(gens[0].degree, dtype=_DTYPE)
        self.pool = [ident] * 6 + [g.images for g in gens]
        self.accu = [ident] * 4
        self.k = 0
        for _ in range(max(40, 6 * len(self.pool))):
            self._stir()

    def _stir(self):
        rng, pool = self.rng, self.pool
        p = pool[rng.randrange(1, len(pool))]
        if rng.randrange(2):
            p = _inverse_images(p)
        pool[0] = c = p[pool[0]]
        j = rng.randrange(1, len(pool))
        pool[j] = (_inverse_images(c) if rng.randrange(2) else c)[pool[j]]
        self.k = (self.k + 1) % len(self.accu)
        self.accu[self.k] = r = pool[j][self.accu[self.k]]
        return r

    def sample(self) -> Permutation:
        return _wrap(self._stir())


def _level_gens(levels, i):
    return [g for lvl in levels[i:] for g in lvl.gens]


def _chain_order(levels) -> int:
    order = 1
    for lvl in levels:
        order *= len(lvl)
    return order


def _sift(levels, p, start):
    for i in range(start, len(levels)):
        lvl = levels[i]
        a = int(p.images[lvl.base])
        if a == lvl.base:
            continue
        if a not in lvl.nav:
            return p, i
        p = lvl.cancel_into(p)
    return p, len(levels)


def _moved_points(gens):
    moved = set()
    for g in gens:
        moved.update(int(i) for i in g.support())
    return moved


def _giant_type(gens, order):
    """("sym", n) or ("alt", n) when <gens>, of the given order, is the full
    symmetric or alternating group on its n >= 3 moved points, else None.

    A group of order n! on n points is Sym(n); one of order n!/2 whose
    generators are even is Alt(n).  A chain order below the true order only
    makes this say None.
    """
    n = len(_moved_points(gens))
    if n < 3:
        return None
    if order == factorial(n):
        return ("sym", n)
    if order == factorial(n) // 2 and all(g.is_even() for g in gens):
        return ("alt", n)
    return None


@cache
def _jordan_primes(n):
    """The primes p with n/2 < p <= n - 3."""
    return frozenset(
        p for p in range(n // 2 + 1, n - 2) if all(p % d for d in range(2, isqrt(p) + 1))
    )


def _jordan_cycle(images, primes) -> bool:
    """Whether the permutation (an image array) has a cycle whose length is
    in ``primes``, the Jordan primes of its group's moved points; the scan
    stops once fewer points than the least prime are left."""
    imgs = images.tolist()
    seen = [False] * len(imgs)
    left, least = len(imgs), min(primes)
    for start in range(len(imgs)):
        if left < least:
            return False
        if seen[start]:
            continue
        length, x = 0, start
        while not seen[x]:
            seen[x] = True
            x = imgs[x]
            length += 1
        if length in primes:
            return True
        left -= length
    return False


def _giant_proof(gens, moved, degree):
    """The Jordan proof of <gens> on its moved points: (giant type, fixed
    points), the type Alt(n) exactly when every generator is even."""
    kind = "alt" if all(g.is_even() for g in gens) else "sym"
    fixed = np.array(sorted(set(range(degree)) - moved), dtype=np.int64)
    return (kind, len(moved)), fixed


# -- operations over groups ------------------------------------------------


def closure_elements(gens, degree, limit=2 * 10**6):
    """All elements of <gens> by breadth-first multiplication.

    Independent of the stabilizer chain; used as an oracle in tests and for
    exhaustive scans.
    """
    ident = Permutation.identity(degree)
    found = {ident.key(): ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = p * g
                k = q.key()
                if k not in found:
                    if len(found) >= limit:
                        raise ResourceExhausted("closure exceeded %d elements" % limit)
                    found[k] = q
                    nxt.append(q)
        frontier = nxt
    return found


def group_2part(n: int) -> int:
    """Largest power of 2 dividing n."""
    return n & (-n)


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def write_group_file(G: PermutationGroup) -> str:
    """Group text format: first line ``degree k``, then k cycle-notation lines."""
    lines = ["%d %d" % (G.degree, len(G.gens))]
    lines += [g.cycle_string() for g in G.gens]
    return "\n".join(lines) + "\n"


def read_counted_lines(text: str, what: str):
    """Split the text formats: a header ``size count``, then ``count`` lines
    of ``what``.  Returns (size, lines); raises ValueError when the header
    holds a negative number or another number of lines follows."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty input: no header line")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError("header %r is not 'size count'" % lines[0])
    size, count = int(head[0]), int(head[1])
    if size < 0 or count < 0:
        raise ValueError("header %r has a negative size or count" % lines[0])
    if len(lines) - 1 != count:
        raise ValueError("header %r announces %d %s, found %d"
                         % (lines[0], count, what, len(lines) - 1))
    return size, lines[1:]


def read_group_file(text: str) -> PermutationGroup:
    degree, lines = read_counted_lines(text, "generators")
    return PermutationGroup([Permutation.parse(ln, degree) for ln in lines], degree)
