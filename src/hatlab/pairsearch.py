"""Search for maximal (1/2, t)-pairs arising from the amalgam catalog.

For each amalgam (L, B): realize L faithfully (regular representation via
coset enumeration), take the degree-4 action on [L:B], and collect the
candidate local HAT stabilizers: core-free subgroups X with 2|X| bounded by
the 2-part of |L| and exactly two orbits of size 2 on the four cosets,
fused into L-conjugacy classes as the orbits of conjugation on the
candidate list.  For each class representative X, pass to the action of L
on [L:X] (degree n) and look for arc reversers h in the symmetric-group
normalizer of the edge-stabilizer image: h of 2-power order outside the
image of L with h^2 inside it.  Each h that makes H = <image(L), h>
primitive, with trivial cores (``cosets.core``) of image(L) in H and of
image(X) in the stabilizer H_0, is then tested for a forward element m in
image(L)*h fixing 0, generating M = H_0 together with image(X), and
reversing no arc (m^-1 outside image(X)*m*image(X)).  The m = i*h fixing
0 have i in one coset of image(X), scanned in element order; the first
such m is kept, as the search stops at one witness per (X, h).

The h are the normalizer's square roots of the image of L, as
``SymNormalizerData.square_roots`` streams them.  Candidate counts and emitted
tuples are deterministic: subgroups, the h and cosets come in fixed orders.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .cosets import (
    CosetSpace,
    _rows_per_block,
    core,
    coset_canonical as _coset_canonical,
    is_primitive,
    small_subgroups,
)
from .fpgroups import AmalgamSpec, amalgam_by_name, todd_coxeter
from .group import (
    BudgetExpired, PermutationGroup, _check_deadline, _is_power_of_two, group_2part, orbit_labels,
)
from .normalizers import SymNormalizerData
from .perm import _DTYPE, Permutation, _wrap
from .signatures import group_name


@dataclass
class RealizedAmalgam:
    spec: AmalgamSpec
    Hu: PermutationGroup      # regular representation of L
    Huv: PermutationGroup     # image of B
    delta: CosetSpace         # the 4 cosets of Huv in Hu

    @property
    def name(self):
        return self.spec.name


def realize_amalgam(spec: AmalgamSpec) -> RealizedAmalgam:
    table = todd_coxeter(spec.presentation, ())
    if table.coset_count != spec.expected_orders[0]:
        raise AssertionError(
            "amalgam %s has order %d, expected %d"
            % (spec.name, table.coset_count, spec.expected_orders[0])
        )
    Hu = table.group(order=table.coset_count)
    b_imgs = [table.evaluate(w) for w in spec.b_generator_words()]
    Huv = Hu.subgroup(b_imgs, order=spec.expected_orders[1])
    delta = CosetSpace(Hu, Huv)
    if len(delta) != 4:
        raise AssertionError("amalgam %s has |L:B| = %d, expected 4" % (spec.name, len(delta)))
    return RealizedAmalgam(spec, Hu, Huv, delta)


def candidate_stabilizers(realized: RealizedAmalgam, deadline=None):
    """The set of candidate HAT vertex stabilizers inside L.

    Subgroups X with |X| dividing |L|_2 / 2, core-free in L, having exactly
    two orbits of size 2 on the degree-4 coset space.  Raises BudgetExpired
    once ``time.time()`` passes ``deadline``.
    """
    Hu = realized.Hu
    bound = group_2part(Hu.order()) // 2
    out = []
    if bound < 2:
        return out
    for X in small_subgroups(Hu, bound, deadline):
        _check_deadline(deadline)
        if X.order() == 1:
            continue
        imgs = [realized.delta.action_of(p) for p in X.gens]
        delta_X = PermutationGroup(imgs, 4)
        orbits = delta_X.orbits()
        if sorted(len(o) for o in orbits) != [2, 2]:
            continue
        if core(Hu, X).order() != 1:
            continue
        out.append(X)
    return out


def conjugacy_class_representatives(Hu: PermutationGroup, candidates, deadline=None):
    """One representative per Hu-conjugacy class of the candidate subgroups.

    The candidate set is closed under conjugation (its defining conditions
    are conjugation-invariant), so each generator of Hu permutes its
    indices, and the classes are the orbits of those index permutations.
    Each orbit starts at its least index, which represents it.  A subgroup
    is keyed by its elements' images of Hu's base points (ints for a
    one-point base), which determine them; the image of b under g^-1 p g
    is g(p(g^-1(b))), read from p's column g^-1(b) without forming the
    conjugate.  Raises BudgetExpired once ``time.time()`` passes
    ``deadline``.
    """
    base = [lvl.base for lvl in Hu.levels()]
    width = len(base)
    # the columns base, then g^-1(base) for each generator g
    cols = np.array(base + [b for g in Hu.gens for b in g.inverse().images[base].tolist()])
    tables = [
        np.array([p.images[cols] for p in X.element_set().values()]) for X in candidates
    ]

    def key_set(rows):
        return frozenset(rows[:, 0].tolist() if width == 1 else map(tuple, rows.tolist()))

    index = {key_set(t[:, :width]): i for i, t in enumerate(tables)}
    perms = []
    for j, g in enumerate(Hu.gens, 1):
        images = []
        for t in tables:
            _check_deadline(deadline)
            k = index.get(key_set(g.images[t[:, j * width : (j + 1) * width]]))
            if k is None:
                raise AssertionError("conjugate of a candidate is not a candidate")
            images.append(k)
        perms.append(images)
    labels = orbit_labels(perms, len(candidates)).tolist()
    return [X for k, X in enumerate(candidates) if labels[k] == k]


def _require(ok: bool, what: str):
    """A check that stays on under ``python -O``."""
    if not ok:
        raise AssertionError(what)


@dataclass
class PairSearchResult:
    amalgam: str
    n: int
    H: PermutationGroup
    M: PermutationGroup
    Hu_image: PermutationGroup
    Mu_image: PermutationGroup
    h: Permutation
    m: Permutation
    quadruple: tuple

    def verify_invariants(self, full: bool = True):
        """Re-check the structural claims of the tuple.

        ``full`` rebuilds <L-image, h> and <X-image, m> from scratch, which
        costs two chain constructions; the cheap mode checks membership of h
        and m in the already-certified groups instead (the generation
        equalities were established when the groups were built).
        """
        _require(int(self.m.images[0]) == 0, "m does not stabilize coset 0")
        _require(all(int(g.images[0]) == 0 for g in self.M.gens), "M moves coset 0")
        _require(self.h * self.h in self.Hu_image, "h^2 outside the L-image")
        _require(self.M.order() * self.n == self.H.order(), "|H:M| != n")
        _require(is_primitive(self.H), "M is not maximal in H")
        _require(self.h in self.H and self.m in self.M, "h outside H or m outside M")
        _require(all(g in self.H for g in self.Hu_image.gens), "L-image outside H")
        _require(all(g in self.M for g in self.Mu_image.gens), "X-image outside M")
        if full:
            big = PermutationGroup(list(self.Hu_image.gens) + [self.h], self.n)
            _require(big.order() == self.H.order(), "<L-image, h> != H")
            small = PermutationGroup(list(self.Mu_image.gens) + [self.m], self.n)
            _require(small.order() == self.M.order(), "<X-image, m> != M")
        return True

    def as_dict(self):
        return {
            "amalgam": self.amalgam,
            "n": self.n,
            "quadrupleSignature": list(self.quadruple),
            "hCycles": self.h.cycle_string(),
            "mCycles": self.m.cycle_string(),
            "verified": False,
            "orders": {
                "H": str(self.H.order()),
                "M": str(self.M.order()),
                "Hu": str(self.Hu_image.order()),
                "Mu": str(self.Mu_image.order()),
            },
        }


@dataclass
class SearchOutcome:
    amalgam: str
    results: list
    complete: bool
    stats: dict = field(default_factory=dict)


def reverser_candidates(L_elems, B: PermutationGroup):
    """The h in N_Sym(n)(B) with h^2 in the L-image (``L_elems``, keyed
    elements), outside it and of 2-power order (twice that of h^2, so tested
    once per square), sorted by images."""
    hs, square_ok = [], {}
    for rows, squares in SymNormalizerData(B).square_roots(L_elems.values()):
        for row, square in zip(rows, squares):
            if row.tobytes() in L_elems:
                continue
            if (key := square.tobytes()) not in square_ok:
                square_ok[key] = _is_power_of_two(_wrap(np.array(square, dtype=_DTYPE)).order())
            if square_ok[key]:
                hs.append(_wrap(np.array(row, dtype=_DTYPE)))
    hs.sort(key=lambda p: p.images.tolist())
    return hs


def maximal_half_arc_pairs(
    realized: RealizedAmalgam,
    deep: bool = False,
    time_budget: float | None = None,
    progress=None,
) -> SearchOutcome:
    """All (H, M, Hu, Mu, h, m) tuples for one amalgam, in deterministic order.

    Without ``deep`` the per-candidate degree is capped at 256 (the largest
    the default acceptance runs need); deep runs lift the cap.  A time
    budget, when given, covers the whole search and may truncate it: the
    outcome is then flagged incomplete rather than silently short.
    """
    t0 = time.time()
    Hu = realized.Hu
    spec_name = realized.name
    results = []
    stats = {"candidates": 0, "hTried": 0, "hAccepted": 0}
    complete = True
    degree_cap = 10**6 if deep else 256
    deadline = None if time_budget is None else t0 + time_budget

    note = progress if progress is not None else (lambda *a: None)
    try:
        all_candidates = candidate_stabilizers(realized, deadline)
        class_reps = conjugacy_class_representatives(Hu, all_candidates, deadline)
        stats["candidateSubgroups"] = len(all_candidates)
        for X in class_reps:
            stats["candidates"] += 1
            note("candidate", {"order": X.order(), "index": stats["candidates"]})
            _check_deadline(deadline)
            space = CosetSpace(Hu, X)
            n = len(space)
            if n > degree_cap:
                complete = False
                stats.setdefault("skippedDegrees", []).append(n)
                continue
            phi_Hu_gens = space.gen_images
            phi_Hu = PermutationGroup(phi_Hu_gens, n, order=Hu.order())
            phi_Huv = PermutationGroup(
                [space.action_of(g) for g in realized.Huv.gens], n,
                order=realized.Huv.order(),
            )
            phi_Mu = PermutationGroup([space.action_of(g) for g in X.gens], n, order=X.order())
            L_elems, X_elems = phi_Hu.element_set(), phi_Mu.element_set()

            h_list = reverser_candidates(L_elems, phi_Huv)
            # h-candidates in one right coset of the L-image produce the same
            # group H = <image(L), h>, the same M, and the same forward-element
            # search, so that work is shared across the coset
            cosets = {}
            step = _rows_per_block(n)
            for start in range(0, len(h_list), step):
                hs = h_list[start : start + step]
                for h, row in zip(hs, _coset_canonical(phi_Hu, [h.images for h in hs])):
                    cosets.setdefault(row.tobytes(), []).append(h)
            note(
                "hList",
                {"n": n, "hCandidates": len(h_list), "hCosets": len(cosets)},
            )
            L_names = None  # the names of phi_Hu and phi_Mu, at the first accepted coset
            for key in sorted(cosets):
                hs = cosets[key]
                _check_deadline(deadline)
                stats["hTried"] += len(hs)
                h0 = hs[0]
                H_gens = phi_Hu_gens + [h0]
                H = PermutationGroup(H_gens, n)
                if not is_primitive(H):
                    continue
                if core(H, phi_Hu).order() != 1:
                    continue
                H_order = H.order()
                M_order, rem = divmod(H_order, n)
                if rem:
                    raise AssertionError("orbit size does not divide |H|")
                # unclaimed, not H.point_stabilizer(0): that timed the deep S3xS4 search slower
                H_0 = PermutationGroup(H.orbit(0).schreier_generators(H.gens), n)
                if core(H_0, phi_Mu).order() != 1:
                    continue
                # m = i*h0 fixes 0 iff i takes 0 to h0^-1(0): one coset of X
                start = int(h0.inverse().images[0])
                found_m = None
                for i_elem in L_elems.values():
                    if int(i_elem.images[0]) != start:
                        continue
                    m = i_elem * h0
                    if _reverses_an_arc(m, X_elems):
                        continue
                    T = PermutationGroup(list(phi_Mu.gens) + [m], n)
                    if T.order() == M_order:
                        found_m = (m, T)
                        break
                if found_m is None:
                    continue
                m, M = found_m
                if L_names is None:
                    L_names = (group_name(phi_Hu), group_name(phi_Mu))
                quadruple = (group_name(H), group_name(M)) + L_names
                for h in hs:
                    stats["hAccepted"] += 1
                    note("accepted", {"count": stats["hAccepted"]})
                    res = PairSearchResult(
                        amalgam=spec_name,
                        n=n,
                        H=H,
                        M=M,
                        Hu_image=phi_Hu,
                        Mu_image=phi_Mu,
                        h=h,
                        m=m,
                        quadruple=quadruple,
                    )
                    res.verify_invariants(full=(n <= 16))
                    results.append(res)
    except BudgetExpired:
        complete = False

    stats["seconds"] = round(time.time() - t0, 3)
    return SearchOutcome(spec_name, results, complete, stats)


def _reverses_an_arc(m, X_elems):
    """Whether m^-1 lies in XmX, X the keyed elements ``X_elems``: the
    appendix skip condition, under which the orbital of m is self-paired.
    That holds iff m*t*m lies in X for some t in X: if m^-1 = a*m*b with a,
    b in X, then m*a*m = b^-1, and conversely m*t*m = c gives m^-1 = t*m*c^-1."""
    return any((m * t * m).key() in X_elems for t in X_elems.values())


DEEP_REQUIRED = {"S3xS4", "7-AT"}
GRAPH_VERTEX_LIMIT = 2000


def search_amalgam(name: str, deep=False, time_budget=None, progress=None) -> SearchOutcome:
    spec = amalgam_by_name(name)
    if spec.name in DEEP_REQUIRED and not deep:
        return SearchOutcome(
            spec.name,
            [],
            False,
            {"note": "amalgam %s runs only under deep mode" % spec.name},
        )
    realized = realize_amalgam(spec)
    return maximal_half_arc_pairs(
        realized, deep=deep, time_budget=time_budget, progress=progress
    )


def verify_pair_result(res: PairSearchResult):
    """Independent verification of an emitted pair.

    When the coset space [H : Hu-image] has at most GRAPH_VERTEX_LIMIT
    cosets, the coset graph is built and the transitivity claims are checked
    on it; otherwise only the group-theoretic invariants are re-checked and
    the report is flagged.
    """
    from .graphs import VertexAction, coset_graph
    from .symmetry import HALF, transitivity_report

    res.verify_invariants()
    report = {
        "amalgam": res.amalgam,
        "quadruple": list(res.quadruple),
        "graphChecked": False,
    }
    index = res.H.order() // res.Hu_image.order()
    if index > GRAPH_VERTEX_LIMIT:
        report["note"] = "coset graph too large to construct; group-theoretic checks only"
        return report
    from .cosets import double_coset

    D = double_coset(res.Hu_image, res.h, res.Hu_image)
    graph, action = coset_graph(res.H, res.Hu_image, D)
    rep_H = transitivity_report(action)
    report["graphChecked"] = True
    report["vertices"] = graph.n
    report["valency"] = graph.valency()
    report["H_sDegree"] = rep_H.as_dict()["sDegree"]
    M_on_graph = PermutationGroup(
        [action.space.action_of(g) for g in res.M.gens], graph.n
    )
    rep_M = transitivity_report(VertexAction(M_on_graph, graph))
    report["M_halfArcTransitive"] = rep_M.s_degree == HALF
    report["M_vertexStabilizerOrder"] = int(
        M_on_graph.order() // graph.n if M_on_graph.is_transitive() else 0
    )
    report["arcOrbitEquivalence"] = rep_M.arc_orbit_count == 2
    return report
