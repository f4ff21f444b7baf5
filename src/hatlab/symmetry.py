"""Transitivity classifiers, local actions, Cayley normality, and the
main-theorem case classifier for maximal (1/2, t)-pairs, which takes the
caller's two actions and returns what it derived from them.

Reports read the arc orbits their action keeps.  G is transitive on s-arcs
iff it is transitive on (s-1)-arcs and the stabilizer of a representative
(s-1)-arc is transitive on its extensions, so one climb of a tower of
point stabilizers, each taken in the level below, decides every s.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cosets import core, is_maximal_subgroup
from .graphs import (
    Graph,
    QuotientResult,
    VertexAction,
    cycle_graph,
    induced_quotient_action,
    quotient_graph,
)
from .graphauto import is_isomorphic
from .group import PermutationGroup, _is_power_of_two
from .normalizers import normalizer
from .perm import Permutation
from .signatures import group_name

HALF = Fraction(1, 2)
MAX_S = 4


def edge_orbit_count(orbits) -> int:
    """The number of edge orbits, given the arc orbits of an action."""
    rep_of = {}
    for i, orb in enumerate(orbits):
        for arc in orb:
            rep_of[arc] = i
    merged = set()
    for i, orb in enumerate(orbits):
        u, v = orb[0]
        merged.add(frozenset((i, rep_of[(v, u)])))
    return len(merged)


def _extensions(graph: Graph, arc):
    head = arc[-1]
    prev = arc[-2] if len(arc) >= 2 else None
    return [w for w in graph.adj[head] if w != prev]


def _s_arc_degree(action: VertexAction, limit: int) -> int:
    """The largest s <= limit such that the transitive group is transitive
    on s-arcs, from one climb: each level's stabilizer is the previous
    level's point stabilizer of the new arc vertex."""
    stab = action.group
    arc = [0]
    for s in range(limit):
        stab = stab.point_stabilizer(arc[-1])
        exts = _extensions(action.graph, arc)
        if not exts:
            return s
        orb = stab.orbit(exts[0])
        if any(w not in orb for w in exts):
            return s
        arc.append(exts[0])
    return limit


def s_arc_transitive(action: VertexAction, s: int) -> bool:
    """Whether the group is transitive on s-arcs (s >= 0)."""
    return action.group.is_transitive() and _s_arc_degree(action, s) == s


@dataclass
class TransitivityReport:
    vertex_transitive: bool
    edge_transitive: bool
    arc_transitive: bool
    arc_orbit_count: int
    s_degree: object  # int, Fraction(1,2), or None for intransitive cases

    @property
    def half_arc_transitive(self):
        return self.s_degree == HALF

    def as_dict(self):
        if self.s_degree is None:
            s = None
        elif self.s_degree == HALF:
            s = "1/2"
        else:
            s = int(self.s_degree)
        return {
            "vertexTransitive": self.vertex_transitive,
            "edgeTransitive": self.edge_transitive,
            "arcTransitive": self.arc_transitive,
            "arcOrbits": self.arc_orbit_count,
            "sDegree": s,
        }


def transitivity_report(action: VertexAction) -> TransitivityReport:
    """Classify the action: s-degree is the largest s with transitivity on
    s-arcs, 1/2 for half-arc-transitive actions, None when not both vertex-
    and edge-transitive.  An action still transitive on (MAX_S + 1)-arcs
    raises ValueError.
    """
    if not action.graph.is_connected():
        raise ValueError("transitivity reports require a connected graph")
    group = action.group
    vt = group.is_transitive()
    orbits = action.arc_orbits()
    arc_count = len(orbits)
    et = edge_orbit_count(orbits) == 1
    at = arc_count == 1
    if not (vt and et):
        return TransitivityReport(vt, et, at, arc_count, None)
    if not at:
        if arc_count == 2:
            return TransitivityReport(vt, et, False, 2, HALF)
        return TransitivityReport(vt, et, False, arc_count, None)
    s = _s_arc_degree(action, MAX_S + 1)
    if s > MAX_S:
        raise ValueError(
            "action is transitive on %d-arcs; raise MAX_S if this is expected" % s
        )
    return TransitivityReport(vt, et, True, 1, s)


@dataclass
class LocalAction:
    neighbors: tuple
    induced: PermutationGroup
    kernel_order: int
    stabilizer: PermutationGroup

    @property
    def order(self):
        return self.induced.order()

    def as_dict(self):
        return {"order": int(self.order), "signature": group_name(self.induced)}


def local_action(action: VertexAction, v: int) -> LocalAction:
    """The permutation group induced by the vertex stabilizer on Gamma(v)."""
    stab = action.group.point_stabilizer(v)
    nbrs = action.graph.adj[v]
    pos = {w: i for i, w in enumerate(nbrs)}
    induced_gens = []
    for g in stab.gens:
        imgs = [pos[int(g.images[w])] for w in nbrs]
        induced_gens.append(Permutation(imgs))
    induced = PermutationGroup(induced_gens, len(nbrs))
    kernel_order = stab.order() // induced.order()
    return LocalAction(tuple(nbrs), induced, kernel_order, stab)


# -- theorem case classification ----------------------------------------------


@dataclass
class TheoremCase:
    label: str  # 'a', 'b', 'c-normal', 'c1', 'c2'
    t: object
    witnesses: dict
    report_M: TransitivityReport
    report_H: TransitivityReport
    core: PermutationGroup
    quotient: QuotientResult
    local_M: LocalAction
    local_H: LocalAction


def classify_theorem_case(act_M: VertexAction, act_H: VertexAction, u: int = 0) -> TheoremCase:
    """Classify a maximal (1/2, t)-pair (M, H) on a connected tetravalent graph.

    Preconditions are re-verified: M < H with M maximal, the graph is
    M-half-arc-transitive and H-arc-transitive.  The returned case carries
    re-checkable witness data and the reports, core, quotient and local
    actions it derived them from.
    """
    graph = act_M.graph
    if act_H.graph is not graph:
        raise ValueError("M and H act on different graphs")
    M, H = act_M.group, act_H.group
    if graph.valency() != 4:
        raise ValueError("classifier applies to tetravalent graphs")
    if not graph.is_connected():
        raise ValueError("classifier requires a connected graph")
    if not all(g in H for g in M.gens):
        raise ValueError("M is not a subgroup of H")
    rep_M = transitivity_report(act_M)
    if rep_M.s_degree != HALF:
        raise ValueError("M is not half-arc-transitive (report: %s)" % rep_M.as_dict())
    rep_H = transitivity_report(act_H)
    if not rep_H.arc_transitive:
        raise ValueError("H is not arc-transitive")
    if not is_maximal_subgroup(H, M):
        raise ValueError("M is not maximal in H")

    t = rep_H.s_degree
    K = core(H, M)
    prof_K = K.transitivity_profile()
    quo = quotient_graph(act_H, K)
    loc_H = local_action(act_H, u)
    loc_M = local_action(act_M, u)

    witnesses = {
        "coreOrder": int(K.order()),
        "coreSemiregular": bool(prof_K["semiregular"]),
        "quotientVertices": int(quo.orbit_count),
        "quotientIsCover": bool(quo.is_cover),
        "H_u": group_name(loc_H.stabilizer),
        "M_u": group_name(loc_M.stabilizer),
        "H_u_local": loc_H.as_dict(),
        "M_u_local": loc_M.as_dict(),
    }

    def case(label):
        return TheoremCase(label, t, witnesses, rep_M, rep_H, K, quo, loc_M, loc_H)

    if t in (2, 3):
        # the quotient pair collapses to a fixed quadruple; record it
        HbarK = induced_quotient_action(act_H, K, quo)
        MbarK = induced_quotient_action(act_M, K, quo)
        witnesses["H_mod_K"] = group_name(HbarK)
        witnesses["M_mod_K"] = group_name(MbarK)
        witnesses["quadruple"] = [
            witnesses["H_mod_K"],
            witnesses["M_mod_K"],
            witnesses["H_u"],
            witnesses["M_u"],
        ]
        if not quo.is_cover and not quo.degenerate and quo.orbit_count != graph.n:
            raise AssertionError("t >= 2 case must cover its core quotient")
        return case("a" if t == 3 else "b")

    if t != 1:
        raise AssertionError("unexpected s-degree %r for an arc-transitive H" % t)

    if M.is_normal_in(H):
        return case("c-normal")

    # non-normal branch: local shape Z2 < D8 non-normal, semiregular core,
    # quotient size not a power of two (these are consequences; verify them)
    if loc_M.order != 2 or loc_H.order != 8:
        raise AssertionError(
            "non-normal t=1 pair with unexpected local orders %d, %d"
            % (loc_M.order, loc_H.order)
        )
    if group_name(loc_H.induced) != "D8":
        raise AssertionError("H_u local action is not dihedral of order 8")
    if not prof_K["semiregular"]:
        raise AssertionError("core is not semiregular in the t=1 non-normal case")
    if _is_power_of_two(quo.orbit_count):
        raise AssertionError("quotient vertex count is a power of two")
    normal_local = loc_M.induced.is_normal_in(loc_H.induced)
    witnesses["localActionNormal"] = bool(normal_local)
    if normal_local:
        raise AssertionError("t=1 non-normal pair with normal local action")

    r = quo.orbit_count
    if r >= 3 and is_isomorphic(quo.quotient, cycle_graph(r)) is not None:
        M_on_quotient = induced_quotient_action(act_M, K, quo)
        kernel_order = M.order() // M_on_quotient.order()
        witnesses["quotientCycleLength"] = int(r)
        witnesses["M_mod_K"] = group_name(M_on_quotient)
        if kernel_order == K.order() and M_on_quotient.order() == 2 * r:
            witnesses["kernelOfMEqualsCore"] = True
            return case("c2")
    H_on_quotient = induced_quotient_action(act_H, K, quo)
    witnesses["H_mod_K"] = group_name(H_on_quotient)
    if H.order() // H_on_quotient.order() != K.order():
        raise AssertionError("core is not the kernel of H on the quotient")
    if not (quo.is_cover or quo.orbit_count == graph.n):
        raise AssertionError("t=1 cover case without a covering quotient")
    return case("c1")


# -- Cayley normality ---------------------------------------------------------


def cayley_normality_report(regular_sub: PermutationGroup, aut: PermutationGroup, graph: Graph):
    """Normalizer-based normality report for a Cayley graph realization.

    ``regular_sub`` must be regular on the vertices and consist of
    automorphisms; ``aut`` is the full automorphism group.  The normalizer
    N comes back as "normalizer" and its action on the graph as "action".
    """
    prof = regular_sub.transitivity_profile()
    if not prof["regular"]:
        raise ValueError("the Cayley group is not regular on the vertices")
    N = normalizer(aut, regular_sub)
    act_N = VertexAction(N, graph)
    return {
        "normalizerOrder": int(N.order()),
        "normalEdgeTransitive": edge_orbit_count(act_N.arc_orbits()) == 1,
        "normal": bool(N.order() == aut.order()),
        "normalizer": N,
        "action": act_N,
    }


# -- Lemma-style invariants for normal local actions -------------------------


def normal_local_action_checks(graph: Graph, M: PermutationGroup, H: PermutationGroup, u: int = 0):
    """For a (1/2,1)-pair with M_u^{Gamma(u)} normal in H_u^{Gamma(u)}:
    (a) the subgroup of H_u stabilizing each M_u-neighbor-orbit is M_u;
    (b) the two local-action kernels coincide; (c) |H:M| = |H_u:M_u|.
    Raises AssertionError when any identity fails; returns witness data.
    """
    act_M = VertexAction(M, graph)
    act_H = VertexAction(H, graph)
    loc_M = local_action(act_M, u)
    loc_H = local_action(act_H, u)
    if not loc_M.induced.is_normal_in(loc_H.induced):
        raise ValueError("local action of M is not normal in that of H")
    nbrs = loc_M.neighbors
    orb_sets = []
    seen = set()
    for w in nbrs:
        if w in seen:
            continue
        orb = loc_M.stabilizer.orbit(w)
        pts = frozenset(int(p) for p in orb.points if p in nbrs)
        seen.update(pts)
        orb_sets.append(pts)
    stab_elems = []
    if loc_H.stabilizer.order() > 10**5:
        raise ValueError("vertex stabilizer too large to enumerate")
    for h in loc_H.stabilizer.elements():
        if all(frozenset(int(h.images[w]) for w in o) == o for o in orb_sets):
            stab_elems.append(h)
    m_u_keys = set(loc_M.stabilizer.element_set().keys())
    if {p.key() for p in stab_elems} != m_u_keys:
        raise AssertionError("orbit-stabilizing subgroup of H_u differs from M_u")
    if loc_H.kernel_order != loc_M.kernel_order:
        raise AssertionError("local-action kernels differ")
    index_global = H.order() // M.order()
    index_stab = loc_H.stabilizer.order() // loc_M.stabilizer.order()
    index_local = loc_H.induced.order() // loc_M.induced.order()
    if not index_global == index_stab == index_local:
        raise AssertionError(
            "index identity fails: %d, %d, %d" % (index_global, index_stab, index_local)
        )
    return {
        "index": int(index_global),
        "kernelOrder": int(loc_H.kernel_order),
        "MuOrbitSets": [sorted(o) for o in orb_sets],
    }
