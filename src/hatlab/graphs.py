"""Graphs, digraphs, vertex actions, and the standard constructions:
coset graphs, Cayley graphs, cycles, K_{n,n} minus a perfect matching, and
normal quotients.

Coset and Cayley graphs are built the same way.  A group acting
transitively by automorphisms carries the base vertex's neighbours to
every vertex, so both read the neighbours of vertex 0 (the cosets Hd, d in
D, or the points s(base), s in S) and transport them breadth first along
the generators.  Their input checks are what make the action one by
automorphisms, and ``VertexAction`` checks every generator again.

A vertex action checks its generators once and keeps its arc orbits after
their first use, so all reports on one action share one orbit pass.

Vertex 0 of a coset graph is the coset H*1 and vertex 0 of a Cayley graph
is the group identity, so constructions are byte-stable across runs.
"""

from __future__ import annotations

import numpy as np

from .cosets import CosetSpace
from .group import PermutationGroup, _label_classes, orbit_labels, read_counted_lines
from .perm import Permutation


class Graph:
    """Undirected simple graph with sorted adjacency lists."""

    def __init__(self, n, edges):
        if n < 0:
            raise ValueError("negative vertex count %d" % n)
        adj = [[] for _ in range(n)]
        seen = set()
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise ValueError("loop at vertex %d" % u)
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError("edge (%d,%d) out of range" % (u, v))
            key = (u, v) if u < v else (v, u)
            if key in seen:
                continue
            seen.add(key)
            adj[u].append(v)
            adj[v].append(u)
        self.n = n
        self.adj = [tuple(sorted(nbrs)) for nbrs in adj]
        self.edges = sorted(seen)
        self.m = len(self.edges)
        self._csr = None
        # edge codes u*n+v (u < v), sorted, and n*n past every code
        self._ends = np.array(self.edges, dtype=np.int64).reshape(-1, 2)
        self._codes = np.append(self._ends[:, 0] * n + self._ends[:, 1], n * n)

    def is_automorphism(self, p):
        """Whether the vertex permutation p maps every edge to an edge: the
        codes of the image edges are looked up in the sorted edge codes."""
        if p.degree != self.n:
            return False
        img = p.images[self._ends]
        codes = img.min(1).astype(np.int64) * self.n + img.max(1)
        return bool((self._codes[self._codes.searchsorted(codes)] == codes).all())

    def degree(self, v):
        return len(self.adj[v])

    def degrees(self):
        return [len(a) for a in self.adj]

    def is_regular(self):
        degs = self.degrees()
        return self.n == 0 or all(d == degs[0] for d in degs)

    def valency(self):
        if not self.is_regular():
            raise ValueError("graph is not regular")
        return self.degree(0) if self.n else 0

    def csr(self):
        if self._csr is None:
            indptr = np.zeros(self.n + 1, dtype=np.int64)
            np.cumsum(self.degrees(), out=indptr[1:])
            indices = np.fromiter((w for nbrs in self.adj for w in nbrs), np.int64, 2 * self.m)
            self._csr = (indptr, indices)
        return self._csr

    def is_connected(self):
        if self.n == 0:
            return True
        seen = np.zeros(self.n, dtype=bool)
        seen[0] = True
        frontier = [0]
        count = 1
        while frontier:
            nxt = []
            for v in frontier:
                for w in self.adj[v]:
                    if not seen[w]:
                        seen[w] = True
                        count += 1
                        nxt.append(w)
            frontier = nxt
        return count == self.n

    def arcs(self):
        return [arc for u, v in self.edges for arc in ((u, v), (v, u))]

    def __repr__(self):
        return "Graph(n=%d, m=%d)" % (self.n, self.m)

    # text format: first line "n m", then one line "u v" per edge with u < v
    def to_text(self):
        lines = ["%d %d" % (self.n, self.m)]
        lines += ["%d %d" % e for e in self.edges]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text):
        n, lines = read_counted_lines(text, "edges")
        return cls(n, [tuple(map(int, ln.split())) for ln in lines])


class Digraph:
    """Directed graph with consistent out- and in-adjacency."""

    def __init__(self, n, arcs):
        if n < 0:
            raise ValueError("negative vertex count %d" % n)
        out = [[] for _ in range(n)]
        into = [[] for _ in range(n)]
        arcset = set()
        for u, v in arcs:
            u, v = int(u), int(v)
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError("arc (%d,%d) out of range" % (u, v))
            if (u, v) in arcset:
                continue
            arcset.add((u, v))
            out[u].append(v)
            into[v].append(u)
        self.n = n
        self.out = [tuple(sorted(x)) for x in out]
        self.into = [tuple(sorted(x)) for x in into]


class VertexAction:
    """A permutation group together with a graph it acts on.

    Every generator is checked to map edges to edges at construction.
    """

    def __init__(self, group: PermutationGroup, graph: Graph):
        if group.degree != graph.n:
            raise ValueError("group degree %d != vertex count %d" % (group.degree, graph.n))
        if not all(graph.is_automorphism(g) for g in group.gens):
            raise ValueError("generator does not preserve adjacency")
        self.group = group
        self.graph = graph
        self._partition = None

    def _arc_partition(self):
        """The ``orbit_labels`` of ``graph.arcs()``, arcs found by their codes
        u*n + v in sorted order, and the arc orbits.  Computed once and kept."""
        if self._partition is None:
            arcs, weights = self.graph.arcs(), [self.graph.n, 1]
            ends = np.array(arcs, dtype=np.int64).reshape(-1, 2)
            order = np.argsort(ends @ weights)
            codes = ends[order] @ weights
            images = [order[np.searchsorted(codes, g.images[ends] @ weights)] for g in self.group.gens]
            labels = orbit_labels(images, len(arcs))
            self._partition = labels, [[arcs[i] for i in orb.tolist()] for orb in _label_classes(labels)]
        return self._partition

    def arc_orbits(self):
        """Orbits of the group on ordered adjacent pairs, ordered by first
        arc, each in ``graph.arcs()`` order; their union is all arcs."""
        return self._arc_partition()[1]

    def edge_orbit_count(self) -> int:
        """The number of orbits on edges: in ``graph.arcs()`` order arc i^1
        is arc i reversed, and an edge orbit joins their arc orbits."""
        labels = self._arc_partition()[0]
        return len(set(np.minimum(labels, labels[np.arange(len(labels)) ^ 1]).tolist()))


def _transported_edges(gens, base, neighbours):
    """The edges of the graph on which the permutations ``gens`` act
    transitively by automorphisms, given the neighbours of ``base``.

    Breadth first from base: when g takes a to a new vertex b, the
    neighbours of b are g applied to the neighbours of a.  Each edge comes
    once from each end; ``Graph`` keeps one copy.
    """
    images = [g.images.tolist() for g in gens]
    nbrs = {base: list(neighbours)}
    queue = [base]
    for a in queue:
        for g in images:
            b = g[a]
            if b not in nbrs:
                nbrs[b] = [g[w] for w in nbrs[a]]
                queue.append(b)
    return [(a, w) for a in queue for w in nbrs[a]]


def coset_graph(G: PermutationGroup, H: PermutationGroup, D):
    """Cos(G, H, D): vertices are right cosets of H, with Hx ~ Hy iff
    y x^-1 in D.  D must be a subset of G, inverse-closed and a union of
    H-double-cosets, and <H, D> must be all of G (equivalently the graph is
    connected); an element of D outside G raises ValueError.

    Returns (graph, action) where the action is G by right multiplication.
    """
    dlist = list(D.values()) if isinstance(D, dict) else list(D)
    dkeys = {d.key() for d in dlist}
    for d in dlist:
        if d.inverse().key() not in dkeys:
            raise ValueError("D is not inverse-closed")
        if d in H:
            raise ValueError("D meets H; coset graph would have loops")
    for d in dlist:
        for h in H.gens:
            if (h * d).key() not in dkeys or (d * h).key() not in dkeys:
                raise ValueError("D is not a union of H-double-cosets")
    space = CosetSpace(G, H)
    n = len(space)
    edges = _transported_edges(space.gen_images, 0, set(space.cosets_of(dlist)))
    graph = Graph(n, edges)
    if len(dlist) % H.order() == 0:
        expected_valency = len(dlist) // H.order()
        if graph.is_regular() and graph.valency() != expected_valency:
            raise AssertionError("valency %d != |D|/|H|" % graph.valency())
    if not graph.is_connected():
        raise ValueError("<H, D> is a proper subgroup: coset graph is disconnected")
    action = VertexAction(space.image, graph)
    action.space = space
    return graph, action


def cayley_graph(R: PermutationGroup, connection, base_point=0):
    """Cay(G, S) realized on the vertex set of a regular action R of G.

    ``R`` must be regular; vertices are the points of its domain, with the
    base point playing the identity.  ``connection`` lists elements of R (as
    permutations) forming the inverse-closed, identity-free set S; an
    element outside R raises ValueError.  Edges join base^R(g) to
    base^R(sg); the returned action is R itself, acting by right
    multiplication.  Connectivity is reported via the graph, not required.
    """
    S = list(connection.values()) if isinstance(connection, dict) else list(connection)
    skeys = {s.key() for s in S}
    for s in S:
        if s.is_identity():
            raise ValueError("identity in the connection set")
        if s.inverse().key() not in skeys:
            raise ValueError("connection set is not inverse-closed")
    prof = R.transitivity_profile()
    if not prof["regular"]:
        raise ValueError("the acting group is not regular on the vertex set")
    if not all(s in R for s in S):
        raise ValueError("a connection element is not in R")
    edges = _transported_edges(R.gens, base_point, [s(base_point) for s in S])
    graph = Graph(R.degree, edges)
    action = VertexAction(R, graph)
    return graph, action


def cycle_graph(n):
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_bipartite_minus_matching(n):
    """K_{n,n} minus the perfect matching i ~ n+i."""
    if n < 2:
        raise ValueError("need at least 2 vertices per side")
    edges = [(i, n + j) for i in range(n) for j in range(n) if i != j]
    return Graph(2 * n, edges)


class QuotientResult:
    def __init__(self, quotient, orbit_of, orbit_count, is_cover, degenerate):
        self.quotient = quotient
        self.orbit_of = orbit_of
        self.orbit_count = orbit_count
        self.is_cover = is_cover
        self.degenerate = degenerate


def quotient_graph(action: VertexAction, N: PermutationGroup) -> QuotientResult:
    """Quotient of the graph by the orbits of N; normality of N in the acting
    group is the caller's responsibility when the theory requires it.

    Distinct orbits are adjacent iff some edge joins them.  A transitive N
    gives a degenerate single-vertex result, flagged rather than raised.
    """
    graph = action.graph
    reps, orbit_of = np.unique(N.orbit_labels(), return_inverse=True)
    if len(reps) == 1:
        return QuotientResult(Graph(1, []), orbit_of, 1, False, True)
    ends = orbit_of[graph._ends]
    quotient = Graph(len(reps), ends[ends[:, 0] != ends[:, 1]])
    is_cover = (
        graph.is_regular()
        and quotient.is_regular()
        and quotient.n > 1
        and quotient.valency() == graph.valency()
    )
    return QuotientResult(quotient, orbit_of, len(reps), is_cover, False)


def induced_quotient_action(action: VertexAction, N, result: QuotientResult):
    """The permutation group induced on the quotient vertices by the acting group."""
    orbit_of = result.orbit_of
    reps = np.unique(orbit_of, return_index=True)[1]  # the least point of each orbit
    gens = []
    for g in action.group.gens:
        imgs = orbit_of[g.images[reps]]
        if not (orbit_of[g.images] == imgs[orbit_of]).all():
            raise ValueError("generator does not permute the orbits of N")
        gens.append(Permutation(imgs))
    return PermutationGroup(gens, result.orbit_count, bound=action.group)
