"""Graphs, digraphs, vertex actions, and the standard constructions:
coset graphs, Cayley graphs, cycles, K_{n,n} minus a perfect matching, and
normal quotients.

A vertex action checks its generators once and keeps its arc orbits after
their first use, so all reports on one action share one orbit pass.

Vertex 0 of a coset graph is the coset H*1 and vertex 0 of a Cayley graph
is the group identity, so constructions are byte-stable across runs.
"""

from __future__ import annotations

import numpy as np

from .cosets import CosetSpace
from .group import PermutationGroup, read_counted_lines
from .perm import Permutation


class Graph:
    """Undirected simple graph with sorted adjacency lists."""

    def __init__(self, n, edges):
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
        self._edge_set = seen
        self._csr = None

    def has_edge(self, u, v):
        return ((u, v) if u < v else (v, u)) in self._edge_set

    def is_automorphism(self, p):
        """Whether the vertex permutation p maps every edge to an edge."""
        for u, v in self.edges:
            if not self.has_edge(int(p.images[u]), int(p.images[v])):
                return False
        return True

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
            for v in range(self.n):
                indptr[v + 1] = indptr[v] + len(self.adj[v])
            indices = np.empty(self.m * 2, dtype=np.int64)
            pos = 0
            for v in range(self.n):
                for w in self.adj[v]:
                    indices[pos] = w
                    pos += 1
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
        out = []
        for u, v in self.edges:
            out.append((u, v))
            out.append((v, u))
        return out

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
        out = [[] for _ in range(n)]
        into = [[] for _ in range(n)]
        arcset = set()
        for u, v in arcs:
            u, v = int(u), int(v)
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
        self._arc_orbits = None

    def arc_orbits(self):
        """Orbits of the group on ordered adjacent pairs; their union is all
        arcs.  Computed on first use and kept."""
        if self._arc_orbits is None:
            arcs = self.graph.arcs()
            code = {arc: i for i, arc in enumerate(arcs)}
            orbit_id = [-1] * len(arcs)
            orbits = []
            for start, arc in enumerate(arcs):
                if orbit_id[start] >= 0:
                    continue
                oid = len(orbits)
                members = [arc]
                orbit_id[start] = oid
                for u, v in members:  # the loop also visits appended arcs
                    for g in self.group.gens:
                        idx = code[(int(g.images[u]), int(g.images[v]))]
                        if orbit_id[idx] == -1:
                            orbit_id[idx] = oid
                            members.append(arcs[idx])
                orbits.append(members)
            self._arc_orbits = orbits
        return self._arc_orbits


def coset_graph(G: PermutationGroup, H: PermutationGroup, D):
    """Cos(G, H, D): vertices are right cosets of H, with Hx ~ Hy iff
    y x^-1 in D.  D must be inverse-closed and a union of H-double-cosets,
    and <H, D> must be all of G (equivalently the graph is connected).

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
    # neighbors of Hx are the cosets H(dx); only one d per coset Hd matters
    d_reps = {}
    for d in dlist:
        d_reps.setdefault(space.canonical(d).key(), d)
    edges = []
    for i, r in enumerate(space.reps):
        for d in d_reps.values():
            j = space.coset_of(d * r)
            if j != i:
                edges.append((min(i, j), max(i, j)))
    graph = Graph(n, edges)
    if len(dlist) % H.order() == 0:
        expected_valency = len(dlist) // H.order()
        if graph.is_regular() and graph.valency() != expected_valency:
            raise AssertionError("valency %d != |D|/|H|" % graph.valency())
    if not graph.is_connected():
        raise ValueError("<H, D> is a proper subgroup: coset graph is disconnected")
    gens = [space.action_of(g) for g in G.gens]
    image = PermutationGroup(gens, n)
    action = VertexAction(image, graph)
    action.space = space
    return graph, action


def cayley_graph(R: PermutationGroup, connection, base_point=0):
    """Cay(G, S) realized on the vertex set of a regular action R of G.

    ``R`` must be regular; vertices are the points of its domain, with the
    base point playing the identity.  ``connection`` lists elements of R (as
    permutations) forming the inverse-closed, identity-free set S.  Edges
    join base^R(g) to base^R(sg); the returned action is R itself, acting by
    right multiplication.  Connectivity is reported via the graph, not
    required.
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
    n = R.degree
    # left translation L(s): base^{R(g)} -> base^{R(sg)}, propagated along
    # the orbit: L(s)(p^{R(x)}) = L(s)(p)^{R(x)}
    edges = []
    for s in S:
        sigma = np.full(n, -1, dtype=np.int64)
        sigma[base_point] = s.images[base_point]
        frontier = [base_point]
        while frontier:
            nxt = []
            for p in frontier:
                for x in R.gens:
                    q = int(x.images[p])
                    if sigma[q] == -1:
                        sigma[q] = x.images[sigma[p]]
                        nxt.append(q)
            frontier = nxt
        if (sigma == -1).any():
            raise AssertionError("regular action failed to cover the domain")
        for v in range(n):
            edges.append((v, int(sigma[v])))
    graph = Graph(n, [(min(u, v), max(u, v)) for u, v in edges])
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
    n = graph.n
    orbit_of = np.full(n, -1, dtype=np.int64)
    orbits = N.orbits()
    for i, orb in enumerate(orbits):
        orbit_of[orb.points_arr] = i
    count = len(orbits)
    if count == 1:
        return QuotientResult(Graph(1, []), orbit_of, 1, False, True)
    edges = set()
    for u, v in graph.edges:
        a, b = int(orbit_of[u]), int(orbit_of[v])
        if a != b:
            edges.add((min(a, b), max(a, b)))
    quotient = Graph(count, edges)
    is_cover = (
        graph.is_regular()
        and quotient.is_regular()
        and quotient.n > 1
        and quotient.valency() == graph.valency()
    )
    return QuotientResult(quotient, orbit_of, count, is_cover, False)


def induced_quotient_action(action: VertexAction, N, result: QuotientResult):
    """The permutation group induced on the quotient vertices by the acting group."""
    orbit_of = result.orbit_of
    k = result.orbit_count
    reps = [int(np.flatnonzero(orbit_of == i)[0]) for i in range(k)]
    gens = []
    for g in action.group.gens:
        imgs = np.array(
            [int(orbit_of[int(g.images[reps[i]])]) for i in range(k)], dtype=np.int64
        )
        if not (orbit_of[g.images] == imgs[orbit_of]).all():
            raise ValueError("generator does not permute the orbits of N")
        gens.append(Permutation(imgs))
    return PermutationGroup(gens, k)
