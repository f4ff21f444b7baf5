"""Independent brute-force oracles used to freeze expected values.

Everything here avoids the stabilizer chain and the refinement machinery on
purpose: closures are plain BFS products, scans iterate explicit element
lists, and partition checks enumerate candidate partitions directly.  The
one exception is ``random_element``, which draws test inputs rather than
expected values.
"""

from itertools import permutations as iter_permutations
from itertools import product

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
