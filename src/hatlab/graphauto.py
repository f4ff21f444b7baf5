"""Graph automorphisms by individualization-refinement.

The search is the classical one: refine an ordered partition until
equitable, pick the first smallest non-singleton cell, branch on its
vertices, and compare every later leaf with the first leaf.  A leaf yields
an automorphism only if its path invariants (the cell-size sequences along
the path) equal the first leaf's, so a node whose path leaves the first
path's track is pruned.  At a leaf on that track, the permutation sending
each vertex to the first leaf's vertex at the same position is kept when
the graph check accepts it.
Branches are also pruned through orbits of the automorphisms found so far
(only those fixing the current prefix).  An automorphism fixing a path's
prefix maps its next vertex into its target cell, so the first path's
target cell sizes multiply to a proven bound on the order of the group
found, which certifies that group's chain.

For vertex-transitive graphs the full group is assembled as <transitive
seed, stabilizer of one vertex> with the order fixed by orbit-stabilizer,
which avoids any search over the whole vertex set; the seed's vertex
stabilizer prunes that search.  The seed's generators and its stabilizer's
are verified against the graph first.  Every search visits at most
NODE_BUDGET refinement nodes and raises ResourceExhausted past it.

A partition is stored as in nauty (McKay and Piperno, Practical graph
isomorphism II, 2014): ``lab`` lists the vertices cell by cell, each cell in
increasing order, and a cell is named by its offset in ``lab``.  ``start[v]``
is the offset of v's cell and ``end[s]`` the end of the cell at offset s (0
where no cell starts).  A split keeps the first part at the old offset, so
offsets are only added and the cell order is their order.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from .graphs import Graph
from .group import PermutationGroup, ResourceExhausted
from .perm import _DTYPE, _wrap

NODE_BUDGET = 200000


class _Partition:
    """Ordered partition in the arrays ``lab``, ``start`` and ``end``."""

    __slots__ = ("lab", "start", "end")

    def __init__(self, n):
        self.lab = np.arange(n, dtype=np.int64)
        self.start = np.zeros(n, dtype=np.int64)
        self.end = np.zeros(n, dtype=np.int64)
        self.end[0] = n

    def copy(self):
        p = _Partition.__new__(_Partition)
        p.lab = self.lab.copy()
        p.start = self.start.copy()
        p.end = self.end.copy()
        return p

    def sizes(self):
        offsets = self.end.nonzero()[0]
        return tuple((self.end[offsets] - offsets).tolist())

    def labeling(self):
        """vertex -> position map as a Permutation (discrete partitions only)."""
        return _wrap(np.array(np.argsort(self.lab), dtype=_DTYPE))

    def split(self, s, keys):
        """Sort the cell at s stably by keys (one per member, in order) and
        cut it where the key changes; return the parts' offsets.  The
        first part keeps the offset s."""
        e = int(self.end[s])
        order = keys.argsort(kind="stable")
        keys = keys[order]
        cell = self.lab[s:e][order]
        self.lab[s:e] = cell
        offsets = [s] + ((keys[1:] != keys[:-1]).nonzero()[0] + (s + 1)).tolist()
        for a, b in zip(offsets, offsets[1:] + [e]):
            self.start[cell[a - s : b - s]] = a
            self.end[a] = b
        return offsets


def _refine(graph: Graph, part: _Partition, pending):
    """Equitable refinement by neighbor counts against pending splitter cells."""
    indptr, indices = graph.csr()
    lab, start, end = part.lab, part.start, part.end
    queue = deque(pending)
    queued = set(pending)
    while queue:
        s = queue.popleft()
        queued.discard(s)
        nbrs = np.concatenate(
            [indices[indptr[v] : indptr[v + 1]] for v in lab[s : end[s]]]
        )
        cnt = np.bincount(nbrs, minlength=graph.n)
        # the distinct cells hit; faster than np.unique on the small inputs most calls see
        for a in sorted(set(start[nbrs].tolist())):
            if end[a] - a == 1:
                continue
            parts = part.split(a, cnt[lab[a : end[a]]])
            if len(parts) == 1:
                continue
            if a in queued:
                queue.remove(a)  # every part goes to the back, the first too
            else:
                sizes = [end[b] - b for b in parts]
                del parts[sizes.index(max(sizes))]
            queue.extend(parts)
            queued.update(parts)
    return part


def _initial_partition(graph: Graph, v=None):
    """The refined partition into cells of equal degree, in increasing
    degree, after a first cell {v} when a vertex v is individualized."""
    n = graph.n
    part = _Partition(n)
    keys = np.diff(graph.csr()[0]) + n  # (u is not v, degree); degrees < n
    if v is not None:
        keys[v] -= n
    return _refine(graph, part, part.split(0, keys))


def _target_cell(part: _Partition):
    """Offset of the first smallest non-singleton cell, or None when discrete."""
    offsets = part.end.nonzero()[0]
    sizes = part.end[offsets] - offsets
    sizes[sizes == 1] = part.lab.size + 1
    i = sizes.argmin()
    return None if sizes[i] > part.lab.size else int(offsets[i])


class _Search:
    def __init__(self, graph, initial, seed_gens=()):
        self.graph = graph
        self.root = initial
        if not all(graph.is_automorphism(p) for p in seed_gens):
            raise ValueError("seed permutation is not an automorphism")
        self.auts = list(seed_gens)
        self.first_leaf = None  # (inv_path, labeling)
        self.nodes = 0
        self.bound = 1  # product of the first path's target cell sizes

    def _orbit_reps(self, cell, prefix):
        """``find`` over cell: find(v) names v's orbit under the found
        automorphisms fixing prefix."""
        gens = [
            p for p in self.auts if all(int(p.images[b]) == b for b in prefix)
        ]
        parent = {int(v): int(v) for v in cell}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        if gens:
            members = set(parent)
            for g in gens:
                for v in list(members):
                    w = int(g.images[v])
                    if w in members:
                        ra, rb = find(v), find(w)
                        if ra != rb:
                            parent[max(ra, rb)] = min(ra, rb)
        return find

    def run(self):
        self._descend(self.root, [], [])
        return self

    def _descend(self, part, prefix, inv_path):
        self.nodes += 1
        if self.nodes > NODE_BUDGET:
            raise ResourceExhausted("refinement search exceeded node budget")
        inv_path = inv_path + [part.sizes()]
        if self.first_leaf is not None and inv_path != self.first_leaf[0][: len(inv_path)]:
            return  # off the first path's track: no automorphism below

        target = _target_cell(part)
        if target is None:
            self._leaf(part, inv_path)
            return

        cell = part.lab[target : part.end[target]]
        if self.first_leaf is None:
            self.bound *= len(cell)
        tried = []
        for v in [int(x) for x in cell]:
            # orbit pruning against automorphisms fixing the prefix
            skip = False
            if tried and self.auts:
                find = self._orbit_reps(cell, prefix)
                rv = find(v)
                for t in tried:
                    if find(t) == rv:
                        skip = True
                        break
            if skip:
                continue
            tried.append(v)
            child = part.copy()
            _refine(self.graph, child, child.split(target, cell != v))
            self._descend(child, prefix + [v], inv_path)

    def _leaf(self, part, inv_path):
        lab = part.labeling()
        if self.first_leaf is None:
            self.first_leaf = (inv_path, lab)
            return
        g = lab * self.first_leaf[1].inverse()
        if not g.is_identity() and self.graph.is_automorphism(g):
            self.auts.append(g)


def automorphism_group(graph: Graph, transitive_seed=None) -> PermutationGroup:
    """The full automorphism group of the graph.

    ``transitive_seed`` may pass a vertex-transitive group of automorphisms;
    the result is then assembled as <seed, Aut_0>, which is how the large
    Cayley/coset graphs stay cheap.  Its claimed order n*|Aut_0| holds by
    orbit-stabilizer: the seed is transitive and checked to act by
    automorphisms, so Aut is transitive, and ``stab`` is all of Aut_0, the
    stabilizer of vertex 0 that the search finds.  A seed generator that is
    not an automorphism raises ValueError.
    """
    if graph.n == 0:
        raise ValueError("empty graph")
    if transitive_seed is not None:
        if not transitive_seed.is_transitive():
            raise ValueError("transitive_seed is not transitive")
        if not all(graph.is_automorphism(g) for g in transitive_seed.gens):
            raise ValueError("transitive_seed has a generator that is not an automorphism")
        stab_seed = transitive_seed.point_stabilizer(0)
        stab = automorphism_stabilizer(graph, 0, seed_gens=stab_seed.gens)
        order = graph.n * stab.order()
        return PermutationGroup(
            list(transitive_seed.gens) + list(stab.gens), graph.n, order=order
        )
    initial = _initial_partition(graph)
    search = _Search(graph, initial)
    search.run()
    return PermutationGroup(list(search.auts), graph.n, bound=search.bound)


def automorphism_stabilizer(graph: Graph, v: int, seed_gens=()):
    """Generators of the automorphisms fixing vertex v."""
    n = graph.n
    part = _initial_partition(graph, v)
    search = _Search(graph, part, seed_gens=seed_gens)
    search.run()
    gens = [p for p in search.auts if int(p.images[v]) == v]
    if len(gens) != len(search.auts):
        raise AssertionError("stabilizer search produced a moving automorphism")
    return PermutationGroup(gens, n, bound=search.bound)
