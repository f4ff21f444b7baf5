"""Permutation groups backed by a base and strong generating set.

The chain is built by a randomized Schreier-Sims pass and then made exact by
one of two rigorous routes: a deterministic verification that sifts every
Schreier generator, or a sandwich argument when the order can be bounded
from above (a known order, or the ambient alternating/symmetric group when
the chain already reaches that ceiling).  The chain order is always a lower
bound for the group order (every stored permutation is a product of input
generators), so matching an upper bound certifies completeness.

Each level's Schreier tree is extended incrementally as strong generators
arrive and fully rebuilt only when it would pass its shallow-tree depth
bound (Seress, *Permutation Group Algorithms*, §4.2).

Base points are chosen smallest-moved-first, and all randomness is seeded,
so chains are reproducible run to run.
"""

from __future__ import annotations

import random
from math import factorial

import numpy as np

from .perm import DegreeMismatch, Permutation

_STATIONARY_ROUNDS = 14


class ResourceExhausted(RuntimeError):
    """A search or enumeration exceeded its configured budget."""


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
        """u_a with base^(u_a) = a."""
        p = None
        while a != self.base:
            idx, pol = self.nav[a]
            g = self.tree_gens[idx][pol]
            p = g if p is None else g * p
            a = int(self.tree_gens[idx][1 - pol].images[a])
        return Permutation.identity(self.degree) if p is None else p

    def cancel_into(self, p: Permutation) -> Permutation:
        """Right-multiply p by u_a^{-1} where a = base^p, so base is fixed."""
        a = int(p.images[self.base])
        while a != self.base:
            idx, pol = self.nav[a]
            back = self.tree_gens[idx][1 - pol]
            p = p * back
            a = int(p.images[self.base])
        return p

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
    """A group of permutations of {0,...,degree-1}.

    ``order=`` passes a trusted order, e.g. one obtained from the
    orbit-stabilizer identity; the chain build then runs until that order is
    reached and needs no verification pass (the chain enumeration is always
    an injection into the group, so hitting a true order proves
    completeness).  Claiming an order the generators cannot reach raises;
    claiming a proper divisor of the true order is undetectable here, so the
    value must come from a sound derivation.  Without ``order=`` the chain
    is verified deterministically unless the alternating/symmetric sandwich
    applies.
    """

    def __init__(self, generators, degree=None, *, order=None, parent=None, base_prefix=()):
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
        self._claimed_order = order
        self._levels = None
        self._order = None
        self._base_prefix = tuple(base_prefix)
        self._elements_cache = None
        if parent is not None:
            for g in self.gens:
                if g not in parent:
                    raise ValueError("generator is not a member of the parent group")

    # -- chain construction ------------------------------------------------

    def _ensure_chain(self):
        if self._levels is not None:
            return
        levels = [Orbit(b, self.degree) for b in self._base_prefix]
        for g in self.gens:
            self._chain_add(levels, g)
        self._complete(levels, self.gens, self._claimed_order)
        self._levels = levels
        self._order = _chain_order(levels)

    def _complete(self, levels, gens, target):
        """Complete the chain of <gens>: randomized Schreier-Sims, then a
        rigorous finish (Seress, *Permutation Group Algorithms*, §4.2).

        Seeded product-replacement samples are sifted into the chain.  With a
        claimed order ``target`` sampling runs until the chain reaches it,
        and the Schreier pass finishes after more than 400 idle samples; a
        chain that ends anywhere but at the claim raises ValueError.  Without
        a claim sampling stops after ``_STATIONARY_ROUNDS`` idle samples, and
        the Alt/Sym sandwich or else the Schreier pass certifies the chain.
        """
        if gens and (target is None or _chain_order(levels) < target):
            rng = _Rattle(gens, random.Random(0))
            patience = _STATIONARY_ROUNDS if target is None else 401
            idle = 0
            while idle < patience and (target is None or _chain_order(levels) < target):
                idle = 0 if self._chain_add(levels, rng.sample()) else idle + 1
            if target is None:
                if giant_type(gens, _chain_order(levels)) is None:
                    self._schreier_complete(levels)
            elif _chain_order(levels) < target:
                self._schreier_complete(levels)
        if target is not None and _chain_order(levels) != target:
            raise ValueError(
                "chain order %d does not match claimed order %d"
                % (_chain_order(levels), target)
            )

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
        self._ensure_chain()
        return self._order

    def __len__(self):
        return self.order()

    def __contains__(self, p: Permutation) -> bool:
        if p.degree != self.degree:
            return False
        self._ensure_chain()
        residue, _ = _sift(self._levels, p, 0)
        return residue.is_identity()

    def has_chain(self) -> bool:
        """Whether the stabilizer chain is built (``levels`` builds it)."""
        return self._levels is not None

    def levels(self):
        self._ensure_chain()
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

        def rec(i):
            # elements of the level-i group: g = h * u_a with h one level down
            if i == len(self._levels):
                yield Permutation.identity(self.degree)
                return
            lvl = self._levels[i]
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

    def orbits(self):
        seen = np.zeros(self.degree, dtype=bool)
        out = []
        for v in range(self.degree):
            if not seen[v]:
                orb = self.orbit(v)
                seen[orb.points_arr] = True
                out.append(orb)
        return out

    def is_transitive(self) -> bool:
        n = self.degree
        if n <= 1:
            return True
        return len(self.orbit(0)) == n

    def transitivity_profile(self):
        """{transitive, semiregular, regular} on the whole domain.

        Semiregular means every point stabilizer is trivial, checked through
        chain orders; regular adds transitivity.
        """
        n = self.degree
        transitive = self.is_transitive()
        order = self.order()
        seen = set()
        semiregular = True
        for v in range(n):
            if v in seen:
                continue
            orb = self.orbit(v)
            seen.update(orb.points)
            if len(orb) != order:
                semiregular = False
                break
        return {
            "transitive": transitive,
            "semiregular": semiregular,
            "regular": transitive and semiregular and self.order() == n,
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
        given order; generators are consumed only until the chain reaches
        that order, and ``_complete`` finishes a chain the stream left short.
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
        shell._complete(levels, kept, order)
        G = cls(kept, degree, order=order, parent=parent)
        G._levels = levels
        G._order = order
        return G

    def subgroup(self, generators, *, order=None) -> "PermutationGroup":
        return PermutationGroup(generators, self.degree, order=order, parent=self)

    def normalizes(self, sub: "PermutationGroup") -> bool:
        return all(s.conj(g) in sub for g in self.gens for s in sub.gens)

    def is_normal_in(self, big: "PermutationGroup") -> bool:
        return big.normalizes(self)


class _Rattle:
    """Seeded product-replacement sampler over a fixed generating set."""

    def __init__(self, gens, rng):
        self.rng = rng
        self.pool = [Permutation.identity(gens[0].degree)] * 6 + list(gens)
        self.accu = [Permutation.identity(gens[0].degree)] * 4
        self.k = 0
        for _ in range(max(40, 6 * len(self.pool))):
            self.sample()

    def sample(self) -> Permutation:
        rng = self.rng
        i = rng.randrange(1, len(self.pool))
        p = self.pool[i]
        if rng.randrange(2):
            p = p.inverse()
        self.pool[0] = c = self.pool[0] * p
        j = rng.randrange(1, len(self.pool))
        self.pool[j] = self.pool[j] * (c.inverse() if rng.randrange(2) else c)
        self.k = (self.k + 1) % len(self.accu)
        self.accu[self.k] = r = self.accu[self.k] * self.pool[j]
        return r


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


def giant_type(gens, order):
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
    of ``what``.  Returns (size, lines); raises ValueError when fewer lines
    follow than the header claims."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty input: no header line")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError("header %r is not 'size count'" % lines[0])
    size, count = int(head[0]), int(head[1])
    body = lines[1 : count + 1]
    if len(body) != count:
        raise ValueError("expected %d %s, found %d" % (count, what, len(body)))
    return size, body


def read_group_file(text: str) -> PermutationGroup:
    degree, lines = read_counted_lines(text, "generators")
    return PermutationGroup([Permutation.parse(ln, degree) for ln in lines], degree)
