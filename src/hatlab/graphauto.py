"""Graph automorphisms and canonical labelings by individualization-refinement.

The search is the classical one: refine an ordered partition until
equitable, pick the first smallest non-singleton cell, branch on its
vertices, and walk the tree keeping (a) the first leaf, against which later
equal-certificate leaves yield automorphisms, and (b) the best leaf, whose
labeling defines the canonical form.  Branches are pruned through orbits of
the automorphisms found so far (only those fixing the current prefix) and
through path invariants (cell-size sequences), which are isomorphism
invariants, so the canonical form does not depend on the input labeling.

For vertex-transitive graphs the full group is assembled as <transitive
seed, stabilizer of one vertex> with the order fixed by orbit-stabilizer,
which avoids any search over the whole vertex set; the seed's vertex
stabilizer prunes that search, each seeded permutation verified against the
graph first.  Every search visits at most NODE_BUDGET refinement nodes and
raises ResourceExhausted past it.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from .graphs import Graph
from .group import PermutationGroup, ResourceExhausted
from .perm import Permutation

NODE_BUDGET = 200000


class _Partition:
    """Ordered partition with stable cell ids."""

    __slots__ = ("cells", "order", "cell_of", "next_id")

    def __init__(self, n, initial_cells):
        self.cells = {}
        self.order = []
        self.cell_of = np.zeros(n, dtype=np.int64)
        self.next_id = 0
        for cell in initial_cells:
            arr = np.asarray(sorted(cell), dtype=np.int64)
            cid = self.next_id
            self.next_id += 1
            self.cells[cid] = arr
            self.order.append(cid)
            self.cell_of[arr] = cid

    def copy(self):
        p = _Partition.__new__(_Partition)
        p.cells = dict(self.cells)
        p.order = list(self.order)
        p.cell_of = self.cell_of.copy()
        p.next_id = self.next_id
        return p

    def sizes(self):
        return tuple(len(self.cells[cid]) for cid in self.order)

    def labeling(self):
        """vertex -> position map as a Permutation (discrete partitions only)."""
        n = self.cell_of.size
        lab = np.empty(n, dtype=np.int64)
        for pos, cid in enumerate(self.order):
            lab[self.cells[cid][0]] = pos
        return Permutation(lab, validate=False)

    def split(self, cid, groups):
        """Replace cell cid by the given ordered groups; return new ids."""
        pos = self.order.index(cid)
        ids = []
        for arr in groups:
            nid = self.next_id
            self.next_id += 1
            self.cells[nid] = arr
            self.cell_of[arr] = nid
            ids.append(nid)
        del self.cells[cid]
        self.order[pos : pos + 1] = ids
        return ids


def _refine(graph: Graph, part: _Partition, pending):
    """Equitable refinement by neighbor counts against pending splitter cells."""
    indptr, indices = graph.csr()
    queue = deque(pending)
    queued = set(pending)
    while queue:
        sid = queue.popleft()
        queued.discard(sid)
        splitter = part.cells.get(sid)
        if splitter is None:
            continue  # cell was split; its parts are queued
        nbrs = np.concatenate(
            [indices[indptr[v] : indptr[v + 1]] for v in splitter]
        ) if len(splitter) else np.empty(0, dtype=np.int64)
        if nbrs.size == 0:
            continue
        cnt = np.bincount(nbrs, minlength=graph.n)
        affected = np.unique(part.cell_of[np.unique(nbrs)])
        pos = {cid: i for i, cid in enumerate(part.order)}
        for cid in sorted(affected, key=pos.get):
            cell = part.cells.get(cid)
            if cell is None or len(cell) == 1:
                continue
            vals = cnt[cell]
            uniq = np.unique(vals)
            if uniq.size == 1:
                continue
            groups = [cell[vals == u] for u in uniq]
            new_ids = part.split(cid, groups)
            was_queued = cid in queued
            if was_queued:
                queued.discard(cid)
                for nid in new_ids:
                    queue.append(nid)
                    queued.add(nid)
            else:
                largest = max(range(len(groups)), key=lambda i: len(groups[i]))
                for i, nid in enumerate(new_ids):
                    if i != largest:
                        queue.append(nid)
                        queued.add(nid)
    return part


def _initial_partition(graph: Graph, v=None):
    """The refined partition into cells of equal degree, in increasing
    degree, after a first cell {v} when a vertex v is individualized."""
    groups = {}
    for u in range(graph.n):
        groups.setdefault((u != v, graph.degree(u)), []).append(u)
    part = _Partition(graph.n, [groups[c] for c in sorted(groups)])
    return _refine(graph, part, list(part.order))


def _certificate(graph: Graph, labeling: Permutation) -> bytes:
    lab = labeling.images
    pairs = []
    for u, v in graph.edges:
        a, b = int(lab[u]), int(lab[v])
        pairs.append((a, b) if a < b else (b, a))
    pairs.sort()
    return np.asarray(pairs, dtype=np.int64).tobytes()


def _target_cell(part: _Partition):
    """First smallest non-singleton cell id, or None when discrete."""
    best = None
    best_size = None
    for cid in part.order:
        size = len(part.cells[cid])
        if size > 1 and (best_size is None or size < best_size):
            best = cid
            best_size = size
    return best


class _Search:
    def __init__(self, graph, initial, seed_gens=()):
        self.graph = graph
        self.n = graph.n
        self.root = initial
        if not all(graph.is_automorphism(p) for p in seed_gens):
            raise ValueError("seed permutation is not an automorphism")
        self.auts = list(seed_gens)
        self.first_leaf = None  # (inv_path, labeling, cert)
        self.best = None  # (inv_path, cert, labeling)
        self.nodes = 0

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
        inv = part.sizes()
        inv_path = inv_path + [inv]
        depth = len(inv_path)

        on_first_track = self.first_leaf is None or (
            inv_path == self.first_leaf[0][:depth]
        )
        cmp_best = 0  # -1 worse, 0 equal-so-far, +1 better
        if self.best is not None:
            best_prefix = self.best[0][:depth]
            if inv_path > best_prefix:
                cmp_best = 1
            elif inv_path < best_prefix:
                cmp_best = -1
        else:
            cmp_best = 1
        if not on_first_track and cmp_best < 0:
            return

        target = _target_cell(part)
        if target is None:
            self._leaf(part, inv_path)
            return

        cell = part.cells[target]
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
            rest = np.asarray([x for x in part.cells[target] if x != v], dtype=np.int64)
            new_ids = child.split(target, [np.asarray([v], dtype=np.int64), rest])
            _refine(self.graph, child, new_ids)
            self._descend(child, prefix + [v], inv_path)

    def _leaf(self, part, inv_path):
        lab = part.labeling()
        cert = _certificate(self.graph, lab)
        key = (inv_path, cert)
        if self.first_leaf is None:
            self.first_leaf = (inv_path, lab, cert)
        else:
            f_inv, f_lab, f_cert = self.first_leaf
            if inv_path == f_inv and cert == f_cert:
                # lab and f_lab map the graph to the same labeled target
                g = lab * f_lab.inverse()
                if not g.is_identity():
                    if not self.graph.is_automorphism(g):
                        raise AssertionError("equal leaf certificates gave a non-automorphism")
                    self.auts.append(g)
        if self.best is None or (inv_path, cert) > (self.best[0], self.best[1]):
            self.best = (inv_path, cert, lab)


def automorphism_group(graph: Graph, transitive_seed=None) -> PermutationGroup:
    """The full automorphism group of the graph.

    ``transitive_seed`` may pass a vertex-transitive group of automorphisms;
    the result is then assembled as <seed, Aut_v> with order fixed by
    orbit-stabilizer, which is how the large Cayley/coset graphs stay cheap.
    """
    if graph.n == 0:
        raise ValueError("empty graph")
    if transitive_seed is not None:
        if not transitive_seed.is_transitive():
            raise ValueError("transitive_seed is not transitive")
        stab_seed = transitive_seed.point_stabilizer(0)
        stab = automorphism_stabilizer(graph, 0, seed_gens=stab_seed.gens)
        order = graph.n * stab.order()
        return PermutationGroup(
            list(transitive_seed.gens) + list(stab.gens), graph.n, order=order
        )
    initial = _initial_partition(graph)
    search = _Search(graph, initial)
    search.run()
    gens = list(search.auts)
    G = PermutationGroup(gens, graph.n)
    if not all(graph.is_automorphism(p) for p in G.gens):
        raise AssertionError("automorphism generator breaks an edge")
    return G


def automorphism_stabilizer(graph: Graph, v: int, seed_gens=()):
    """Generators of the automorphisms fixing vertex v."""
    n = graph.n
    part = _initial_partition(graph, v)
    search = _Search(graph, part, seed_gens=seed_gens)
    search.run()
    gens = [p for p in search.auts if int(p.images[v]) == v]
    if len(gens) != len(search.auts):
        raise AssertionError("stabilizer search produced a moving automorphism")
    return PermutationGroup(gens, n)


def canonical_labeling(graph: Graph):
    """(labeling, certificate): certificate equality is graph isomorphism."""
    if graph.n == 0:
        return Permutation.identity(0), b""
    initial = _initial_partition(graph)
    search = _Search(graph, initial)
    search.run()
    inv_path, cert, lab = search.best
    inv_bytes = repr(inv_path).encode()
    full_cert = (
        graph.n.to_bytes(8, "big") + len(inv_bytes).to_bytes(8, "big") + inv_bytes + cert
    )
    return lab, full_cert


def is_isomorphic(g1: Graph, g2: Graph):
    """A vertex bijection g1 -> g2 (as a list), or None."""
    if g1.n != g2.n or g1.m != g2.m:
        return None
    if sorted(g1.degrees()) != sorted(g2.degrees()):
        return None
    lab1, cert1 = canonical_labeling(g1)
    lab2, cert2 = canonical_labeling(g2)
    if cert1 != cert2:
        return None
    mapping = [int(lab2.inverse().images[int(lab1.images[v])]) for v in range(g1.n)]
    for u, v in g1.edges:
        if not g2.has_edge(mapping[u], mapping[v]):
            raise AssertionError("certificate collision: mapping failed verification")
    return mapping
