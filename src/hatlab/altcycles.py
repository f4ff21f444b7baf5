"""Half-arc-transitive orientations, alternating cycles, and the graph of
alternating cycles.

A half-arc-transitive action splits the arcs into two orbits giving two
opposite orientations.  Walking edges so that consecutive edges alternate
with/against the orientation decomposes the edge set into the alternating
cycles; their common half-length is the radius and the common size of
nonempty pairwise intersections is the attachment number.  Both constancy
statements are theorems for genuine HAT actions, so a violation here raises
an internal error rather than returning data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graphs import Digraph, Graph, VertexAction
from .group import PermutationGroup
from .perm import Permutation

SWAP_COSET_LIMIT = 512


class AltCycleError(AssertionError):
    """A theorem-level invariant failed; indicates a bug or bad input."""


@dataclass
class HatOrientation:
    graph: Graph
    dplus: Digraph
    o_plus: list
    o_minus: list


def hat_orientation(action: VertexAction) -> HatOrientation:
    """One of the two orientations induced by a HAT action: the orbit of the
    lexicographically least arc.  Requires a connected tetravalent graph and
    exactly two arc orbits.
    """
    graph = action.graph
    if not graph.is_regular() or graph.valency() != 4:
        raise ValueError("orientation requires a tetravalent graph")
    if not graph.is_connected():
        raise ValueError("orientation requires a connected graph")
    orbits = action.arc_orbits()
    if len(orbits) != 2:
        raise ValueError(
            "action has %d arc orbits; a HAT action has exactly 2" % len(orbits)
        )
    rep = min(min(o) for o in orbits)
    o_plus = next(o for o in orbits if rep in o)
    o_minus = next(o for o in orbits if o is not o_plus)
    plus_set = set(o_plus)
    for u, v in o_plus:
        if (v, u) in plus_set:
            raise AltCycleError("orbit contains both arcs of an edge")
    if len(o_plus) != graph.m or len(o_minus) != graph.m:
        raise AltCycleError("arc orbits do not split the edges evenly")
    dplus = Digraph(graph.n, o_plus)
    for v in range(graph.n):
        if len(dplus.out[v]) != 2 or len(dplus.into[v]) != 2:
            raise AltCycleError("orientation is not 2-in 2-out at vertex %d" % v)
    return HatOrientation(graph, dplus, sorted(o_plus), sorted(o_minus))


def _canonical_rotation(cycle):
    """Rotate/reflect so the smallest vertex comes first, then the smaller
    of its two cycle neighbors."""
    k = len(cycle)
    i = cycle.index(min(cycle))
    fwd = cycle[i:] + cycle[:i]
    if k >= 3 and fwd[-1] < fwd[1]:
        fwd = [fwd[0]] + fwd[1:][::-1]
    return tuple(fwd)


@dataclass
class AltCycleSystem:
    cycles: list  # canonical vertex tuples
    cycle_sets: list  # frozensets, same order
    radius: int
    attachment: int
    cycles_at: dict = field(default_factory=dict)  # vertex -> (i, j)

    @property
    def count(self):
        return len(self.cycles)


def alternating_cycle_system(orientation: HatOrientation) -> AltCycleSystem:
    """All alternating cycles, by the two-ended alternating walk.

    Starting on an arc traversed with the orientation, the walk leaves a
    head vertex through its other in-arc and a tail vertex through its other
    out-arc, so the successor of each arc is forced; the arc set decomposes
    into closed alternating walks, which the constancy theorems promise are
    cycles of one common length intersecting each other in a common size.
    """
    graph = orientation.graph
    dplus = orientation.dplus
    used = set()
    cycles = []
    for arc in orientation.o_plus:
        if arc in used:
            continue
        seq = []
        u, v = arc
        with_orientation = True
        cur = arc
        while True:
            used.add(cur if with_orientation else (cur[1], cur[0]))
            seq.append(cur[0])
            a, b = cur
            if with_orientation:
                # arrived at b along its in-arc; leave via the other in-arc
                pool = dplus.into[b]
            else:
                pool = dplus.out[b]
            if len(set(pool)) != 2 or a not in pool:
                raise AltCycleError("orientation degenerate at vertex %d" % b)
            nxt = pool[0] if pool[1] == a else pool[1]
            cur = (b, nxt)
            with_orientation = not with_orientation
            if with_orientation and cur == arc:
                break
            if len(seq) > 2 * graph.n:
                raise AltCycleError("alternating walk failed to close")
        if len(seq) != len(set(seq)):
            raise AltCycleError("alternating walk revisits a vertex")
        cycles.append(_canonical_rotation(seq))

    lengths = {len(c) for c in cycles}
    if len(lengths) != 1:
        raise AltCycleError("alternating cycles have unequal lengths %s" % lengths)
    length = lengths.pop()
    if length % 2:
        raise AltCycleError("alternating cycle of odd length %d" % length)
    radius = length // 2

    cycles.sort()
    cycle_sets = [frozenset(c) for c in cycles]
    cycles_at = {}
    for i, cs in enumerate(cycle_sets):
        for v in cs:
            cycles_at.setdefault(v, []).append(i)
    bad = [v for v, lst in cycles_at.items() if len(lst) != 2]
    if bad or len(cycles_at) != graph.n:
        raise AltCycleError("some vertex does not lie on exactly two cycles")
    intersections = {}
    for v, (i, j) in cycles_at.items():
        intersections[(i, j)] = intersections.get((i, j), 0) + 1
    sizes = set(intersections.values())
    # full pairwise check: any pair not sharing a vertex has intersection 0
    for (i, j), size in intersections.items():
        if len(cycle_sets[i] & cycle_sets[j]) != size:
            raise AltCycleError("intersection bookkeeping mismatch")
    if len(sizes) != 1:
        raise AltCycleError("nonempty intersections have unequal sizes %s" % sizes)
    attachment = sizes.pop()
    return AltCycleSystem(
        cycles, cycle_sets, radius, attachment,
        {v: tuple(lst) for v, lst in cycles_at.items()},
    )


def alternating_graph(action: VertexAction, system: AltCycleSystem):
    """The graph on alternating cycles (adjacent iff intersecting), with the
    induced action of the HAT group on the cycles."""
    if system.count < 2:
        raise ValueError("degenerate single-cycle system has no cycle graph")
    edges = set()
    for v, (i, j) in system.cycles_at.items():
        edges.add((min(i, j), max(i, j)))
    alt = Graph(system.count, edges)
    # two distinct cycles may share their whole vertex set, so the induced
    # action must track cycles as cyclic sequences, not vertex sets
    index_of = {c: i for i, c in enumerate(system.cycles)}
    gens = []
    for g in action.group.gens:
        imgs = []
        for c in system.cycles:
            target = _canonical_rotation([int(g.images[v]) for v in c])
            j = index_of.get(target)
            if j is None:
                raise AltCycleError("group element does not permute the cycles")
            imgs.append(j)
        gens.append(Permutation(imgs))
    induced = PermutationGroup(gens, system.count)
    alt_action = VertexAction(induced, alt)
    return alt, alt_action, system.attachment


def find_orientation_swapper(
    aut: PermutationGroup, M: PermutationGroup, orientation: HatOrientation
):
    """Search for an automorphism swapping the two arc-orbit orientations.

    Scans right-coset representatives of M in the supplied automorphism
    group (the swap condition is constant on cosets).  Returns the element
    or None; raises ResourceExhausted past SWAP_COSET_LIMIT cosets.
    """
    from .cosets import CosetSpace
    from .group import ResourceExhausted

    index = aut.order() // M.order()
    if index > SWAP_COSET_LIMIT:
        raise ResourceExhausted("swap search over %d cosets exceeds budget" % index)
    plus = set(orientation.o_plus)
    minus = set(orientation.o_minus)
    space = CosetSpace(aut, M, max_index=SWAP_COSET_LIMIT + 1)
    for r in space.reps:
        mapped = {(int(r.images[u]), int(r.images[v])) for (u, v) in plus}
        if mapped == minus:
            return r
    return None
