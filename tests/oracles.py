"""Independent brute-force oracles used to freeze expected values.

Everything here avoids the stabilizer chain and the refinement machinery on
purpose: closures are plain BFS products, scans iterate explicit element
lists, and partition checks enumerate candidate partitions directly.  The
exceptions are ``random_element``, which draws test inputs rather than
expected values, ``tree_path_product``, which reads a Schreier tree's
edge labels but multiplies them with public products only,
``realization_bound``, which sizes test cases and budgets, and
``CosetsByElements``, which reads the base points of H's chain, since
they define the canonical coset representatives.
"""

import hashlib
import json
from itertools import permutations as iter_permutations
from itertools import product
from math import prod

import numpy as np

from hatlab.group import closure_elements
from hatlab.perm import Permutation


def closure_order(gens, degree):
    return len(closure_elements(gens, degree))


def orbit_points(gens, point):
    """The orbit of point under gens, by forward breadth-first search."""
    seen = {point}
    order = [point]
    for a in order:
        for g in gens:
            b = int(g.images[a])
            if b not in seen:
                seen.add(b)
                order.append(b)
    return order


def orbits_by_bfs(items, gens, act):
    """The orbits of <gens> on ``items``, ordered by first item in ``items``
    order, each in forward-BFS order from it; ``act(g, x)`` is the image of
    x under g."""
    seen = set()
    orbits = []
    for x in items:
        if x in seen:
            continue
        seen.add(x)
        orbit = [x]
        for y in orbit:
            for g in gens:
                z = act(g, y)
                if z not in seen:
                    seen.add(z)
                    orbit.append(z)
        orbits.append(orbit)
    return orbits


def element_scan_normalizer(ambient_elems, sub_elems):
    sub_keys = {p.key() for p in sub_elems}
    out = []
    for g in ambient_elems:
        gi = g.inverse()
        if all((gi * s * g).key() in sub_keys for s in sub_elems):
            out.append(g)
    return out


def h_candidates_by_scan(L_elems, B_elems, n):
    """Every h in Sym(n) that normalizes the group with elements B_elems,
    lies outside the group with elements L_elems, has h^2 inside it and has
    2-power order; sorted by images.  A scan of all n! permutations."""
    L_keys = {p.key() for p in L_elems}
    B_keys = {p.key() for p in B_elems}
    out = []
    for imgs in iter_permutations(range(n)):
        h = Permutation(imgs)
        if h.key() in L_keys or (h * h).key() not in L_keys:
            continue
        order, q = 1, h
        while not q.is_identity():
            order, q = order + 1, q * h
        if order & (order - 1):
            continue
        hi = h.inverse()
        if all((hi * b * h).key() in B_keys for b in B_elems):
            out.append(h)
    return sorted(out, key=lambda h: h.images.tolist())


def dfs_realizations(elems, alpha, n):
    """Every g in Sym(n) with s^g = alpha(s) for all s in the group whose
    element list is ``elems`` (alpha an index map on it), as image lists.

    The object-level depth-first search, one orbit at a time: orbits in
    order of their least point p, p sent to each q with S_q = alpha(S_p) in
    increasing order whose orbit no earlier orbit was sent into, and then
    p^s to q^alpha(s) for every s.
    """
    stab = [frozenset(i for i, p in enumerate(elems) if int(p.images[v]) == v) for v in range(n)]
    orbits, orbit_of = [], {}
    for v in range(n):
        if v not in orbit_of:
            sigma = {}
            for i, p in enumerate(elems):
                sigma.setdefault(int(p.images[v]), i)
            orbit_of.update((a, len(orbits)) for a in sigma)
            orbits.append((v, sigma))
    out, g = [], [-1] * n

    def assign(k, used):
        if k == len(orbits):
            out.append(list(g))
            return
        rep, sigma = orbits[k]
        want = frozenset(alpha[i] for i in stab[rep])
        for q in range(n):
            if stab[q] == want and orbit_of[q] not in used:
                for a, s in sigma.items():
                    g[a] = int(elems[alpha[s]].images[q])
                assign(k + 1, used | {orbit_of[q]})
        for a in sigma:
            g[a] = -1

    assign(0, frozenset())
    return out


def realization_bound(data, alpha):
    """Upper bound on the number of g in Sym(n) realizing alpha, for
    ``SymNormalizerData`` data: the product of the orbits' candidate counts."""
    return prod(len(cands) for *_, cands in data._orbit_candidates(alpha))


def _mul_table(elems):
    index = {p.key(): i for i, p in enumerate(elems)}
    return index, [[index[(a * b).key()] for b in elems] for a in elems]


def isomorphisms_by_images(elems, gens, dst_elems):
    """Yield every isomorphism from the group whose element list is elems
    onto the one whose element list is dst_elems, as a tuple phi with
    elems[i] -> dst_elems[phi[i]].

    Every tuple of images for gens is spread along words in gens; the map it
    gives counts only when it is a bijection that respects the full
    multiplication tables, phi(xy) = phi(x)phi(y) for all pairs.
    """
    m = len(elems)
    if len(dst_elems) != m:
        return
    index, mul = _mul_table(elems)
    _, dst_mul = _mul_table(dst_elems)
    ident = next(i for i, p in enumerate(elems) if p.is_identity())
    dst_ident = next(i for i, p in enumerate(dst_elems) if p.is_identity())
    gen_idx = [index[g.key()] for g in gens]
    for images in product(range(m), repeat=len(gens)):
        phi = {ident: dst_ident}
        words = [ident]
        for p in words:
            for s, t in zip(gen_idx, images):
                q = mul[p][s]
                if q not in phi:
                    phi[q] = dst_mul[phi[p]][t]
                    words.append(q)
        if len(phi) != m:
            raise ValueError("gens do not generate the group")
        if len(set(phi.values())) != m:
            continue
        if all(phi[mul[a][b]] == dst_mul[phi[a]][phi[b]] for a in range(m) for b in range(m)):
            yield tuple(phi[i] for i in range(m))


def automorphisms_by_images(elems, gens):
    """Every automorphism of the group whose element list is elems, as a
    tuple phi with elems[i] -> elems[phi[i]]."""
    return set(isomorphisms_by_images(elems, gens, elems))


def all_subgroups(elems, degree):
    """Every subgroup of a small group, as frozensets of element keys."""
    elems = list(elems)
    key_to = {p.key(): p for p in elems}
    subgroups = set()
    ident = Permutation.identity(degree)
    frontier = {frozenset([ident.key()])}
    subgroups.add(frozenset([ident.key()]))
    while frontier:
        nxt = set()
        for fs in frontier:
            base = [key_to[k] for k in fs]
            for p in elems:
                if p.key() in fs:
                    continue
                closed = closure_elements(base + [p], degree)
                new_fs = frozenset(closed.keys())
                if new_fs not in subgroups:
                    subgroups.add(new_fs)
                    nxt.add(new_fs)
        frontier = nxt
    return subgroups


def is_maximal_by_lattice(group_elems, sub_keys, lattice):
    """Maximality via the full subgroup lattice of a small group, as
    ``all_subgroups`` returns it."""
    whole = frozenset(p.key() for p in group_elems)
    for t in lattice:
        if sub_keys < t < whole:
            return False
    return sub_keys < whole


def random_element(G, rng):
    """A random element of G: one random transversal element per chain
    level, from the bottom level up."""
    p = Permutation.identity(G.degree)
    for lvl in reversed(G.levels()):
        p = p * lvl.transversal(rng.choice(lvl.points))
    return p


def brute_force_graph_aut_order(n, edge_set):
    count = 0
    for imgs in iter_permutations(range(n)):
        ok = True
        for u, v in edge_set:
            a, b = imgs[u], imgs[v]
            if (a, b) not in edge_set and (b, a) not in edge_set:
                ok = False
                break
        if ok:
            count += 1
    return count


def graph_isomorphism_by_backtracking(n, edge_set, other_edge_set):
    """A vertex bijection (as a list) carrying the first graph on n vertices
    onto the second, or None.  Vertices are mapped in increasing order, each
    to an unused vertex of equal degree whose adjacency to the earlier
    images matches."""
    edges = {frozenset(e) for e in edge_set}
    other = {frozenset(e) for e in other_edge_set}
    if len(edges) != len(other):
        return None
    degree = [sum(1 for e in edges if v in e) for v in range(n)]
    other_degree = [sum(1 for e in other if v in e) for v in range(n)]
    imgs = []

    def extend(u):
        if u == n:
            return True
        for w in range(n):
            if w in imgs or degree[u] != other_degree[w]:
                continue
            if all((frozenset((v, u)) in edges) == (frozenset((imgs[v], w)) in other)
                   for v in range(u)):
                imgs.append(w)
                if extend(u + 1):
                    return True
                imgs.pop()
        return False

    return imgs if extend(0) else None


def all_partitions(items):
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in all_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def block_systems_exhaustive(gens, n):
    """All nontrivial block systems of a transitive group, by partition scan."""
    out = []
    for part in all_partitions(range(n)):
        if len(part) in (1, n):
            continue
        sets = [frozenset(b) for b in part]
        size = len(sets[0])
        if any(len(b) != size for b in sets):
            continue
        as_set = set(sets)
        ok = True
        for g in gens:
            for b in sets:
                img = frozenset(int(g.images[v]) for v in b)
                if img not in as_set:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(frozenset(sets))
    return out


def finest_block_system(systems, n, beta):
    """Among ``systems`` (as ``block_systems_exhaustive`` returns them) and
    the one-block system, the finest that puts 0 and beta in one block."""
    together = [s for s in systems if any(0 in b and beta in b for b in s)]
    return max(together, key=len, default=frozenset([frozenset(range(n))]))


def is_equitable(n, edges, cells):
    """Whether cells partition range(n) so that each vertex of a cell has
    the same number of neighbours in each cell."""
    if sorted(v for cell in cells for v in cell) != list(range(n)):
        return False
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    cell_of = {v: i for i, cell in enumerate(cells) for v in cell}
    for cell in cells:
        counts = set()
        for v in cell:
            row = [0] * len(cells)
            for w in adj[v]:
                row[cell_of[w]] += 1
            counts.add(tuple(row))
        if len(counts) > 1:
            return False
    return True


class ObjectRattle:
    """The product-replacement sampler of ``group._Rattle`` on Permutation
    objects, one public product or inverse per step: the reference stream
    for the array-level sampler, drawing the same ``rng`` calls in the same
    order."""

    def __init__(self, gens, rng):
        self.rng = rng
        self.pool = [Permutation.identity(gens[0].degree)] * 6 + list(gens)
        self.accu = [Permutation.identity(gens[0].degree)] * 4
        self.k = 0
        for _ in range(max(40, 6 * len(self.pool))):
            self.sample()

    def sample(self):
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


def tree_path_product(orbit, a):
    """u_a of a Schreier-tree orbit as public products of the edge labels
    on the path from the base to a."""
    labels = []
    while a != orbit.base:
        idx, pol = orbit.nav[a]
        labels.append(orbit.tree_gens[idx][pol])
        a = orbit.tree_gens[idx][1 - pol](a)
    u = Permutation.identity(orbit.degree)
    for g in reversed(labels):
        u = u * g
    return u


def edge_map_is_automorphism(graph, p):
    """Whether p maps every edge of graph to an edge, by a plain loop."""
    edges = set(graph.edges)
    return all((min(p(u), p(v)), max(p(u), p(v))) in edges for u, v in graph.edges)


def pair_tuples(results):
    """Pair-search results as plain data: n, the images of h and m, the
    generators of H and M, the four orders and the quadruple."""
    return [
        {
            "n": r.n,
            "h": r.h.images.tolist(),
            "m": r.m.images.tolist(),
            "H.gens": [g.images.tolist() for g in r.H.gens],
            "M.gens": [g.images.tolist() for g in r.M.gens],
            "orders": [str(G.order()) for G in (r.H, r.M, r.Hu_image, r.Mu_image)],
            "quadruple": list(r.quadruple),
        }
        for r in results
    ]


def json_digest(payload):
    """sha256 of the canonical JSON of payload: sorted keys, no spaces."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class CosetsByElements:
    """The right cosets of H in G by a BFS that canonicalizes one product
    r·g at a time: ``reps``, ``gen_images`` (lists) and ``index`` as
    ``CosetSpace`` numbers them.  The canonical element of a coset Hx is
    the hx, over the closure elements h of H, whose images of H's base
    points are lexicographically least."""

    def __init__(self, G, H):
        self.base = [lvl.base for lvl in H.levels()]
        self.h_rows = np.array([h.images for h in closure_elements(H.gens, H.degree).values()])
        rep0 = self.canonical(G.identity())
        self.reps, self.index = [rep0], {rep0.key(): 0}
        self.gen_images = [[] for _ in G.gens]
        for r in self.reps:
            for g, imgs in zip(G.gens, self.gen_images):
                nxt = self.canonical(r * g)
                if nxt.key() not in self.index:
                    self.index[nxt.key()] = len(self.reps)
                    self.reps.append(nxt)
                imgs.append(self.index[nxt.key()])

    def canonical(self, x):
        rows = x.images[self.h_rows].tolist()  # h * x for every h in H
        return Permutation(min(rows, key=lambda row: [row[b] for b in self.base]))

    def coset_of(self, x):
        return self.index[self.canonical(x).key()]

    def action_of(self, g):
        return [self.coset_of(r * g) for r in self.reps]
