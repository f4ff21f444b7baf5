"""The three benchmark workloads.

A workload is built in two steps.  The constructor is the set-up a user
pays for (parsing or drawing the seeded inputs); it is timed as part of
``setup_s``.  ``tasks()`` then computes the expected answers with
independent oracles, outside every timed region, and returns the task list.
A task's ``run`` is the only timed call.  It builds every library object it
uses, so that no chain or cache survives from one pass into the next.  Its
``check`` runs afterwards, outside the timing and the trace, and raises
``CheckFailed`` on a wrong answer.

The library is reached through module attributes (``examples.run_example_41``)
at call time, never through names bound at import, so that the tracer's
wrappers see every call.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from hatlab import (
    altcycles, examples, fpgroups, graphauto, graphs, group, pairsearch, perm, symmetry,
)


class CheckFailed(Exception):
    pass


@dataclass
class Task:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    key: str = ""  # tasks sharing a key count as one in task_geomean_kref

    def __post_init__(self):
        self.key = self.key or self.name


def _expect(ok, what):
    if not ok:
        raise CheckFailed(what)


# -- pairsearch -------------------------------------------------------------

# Searches and how many input orders each runs under.  The three small
# searches take well under a second each; they run under nine orders drawn
# from the seed, and the mean of the nine counts in task_geomean_kref.  The
# two large ones (10-13 s each) always run in catalog order: their cost
# moves by up to 15% with the order, more than the spread the benchmark can
# allow between seeds.
SEARCHES = {"A4s": 9, "S4": 9, "Z3xA4": 9, "Z3sS4": 1, "4-AT": 1}
QUAD_SMALL = ("S5", "F5", "A4", "C2")
EXPECTED_TUPLES = {"A4s": 2, "S4": 0, "Z3xA4": 0, "Z3sS4": 0, "4-AT": 0}


def shuffled_spec(spec, rng):
    """The same amalgam with its generators renumbered and its relators
    reordered; the B-generator words are re-parsed by name."""
    pres = spec.presentation
    order = list(range(pres.ngens))
    rng.shuffle(order)
    new_index = {old: new for new, old in enumerate(order)}
    names = [pres.names[old] for old in order]
    relators = [[(new_index[i], e) for i, e in rel] for rel in pres.relators]
    rng.shuffle(relators)
    return fpgroups.AmalgamSpec(
        name=spec.name,
        presentation=fpgroups.FpPresentation(names, relators),
        b_words=list(spec.b_words),
        expected_orders=spec.expected_orders,
    )


class Pairsearch:
    """The five default amalgam searches; the small ones under seeded
    input orders, of which seed 0 makes the first the catalog as shipped."""

    seed_note = "seed shuffles generator and relator order of the small searches"

    def __init__(self, seed, root):
        rng = random.Random(seed)
        self.specs = []  # (place in the pass, name, input order, spec)
        for name, orders in SEARCHES.items():
            spec = fpgroups.amalgam_by_name(name)
            for i in range(orders):
                seeded = orders > 1 and (seed != 0 or i > 0)
                variant = shuffled_spec(spec, rng) if seeded else spec
                self.specs.append(((i + 0.5) / orders, name, i, variant))
        # spread each search's input orders evenly over the pass, so that
        # their mean does not hang on how fast the machine was at one moment
        self.specs.sort(key=lambda s: s[0])

    def tasks(self):
        return [Task("%s/%d" % (name, i), self._runner(spec), self._checker(name), key=name)
                for _, name, i, spec in self.specs]

    @staticmethod
    def _runner(spec):
        def run():
            return pairsearch.maximal_half_arc_pairs(pairsearch.realize_amalgam(spec))

        return run

    @staticmethod
    def _checker(name):
        def check(out):
            want = EXPECTED_TUPLES[name]
            _expect(out.complete, "%s search incomplete" % name)
            _expect(len(out.results) == want, "%s gave %d tuples, expected %d"
                    % (name, len(out.results), want))
            bad = [r.quadruple for r in out.results if r.quadruple != QUAD_SMALL]
            _expect(not bad, "%s quadruples %r" % (name, bad))

        return check


# -- examples ---------------------------------------------------------------

# Headline facts of the paper's examples, as checked by the acceptance suite.
EXAMPLE_FACTS = {
    "4.1": {
        "wreathOrder": 225792, "autOrder": 225792, "attachment": 1,
        "altAutOrder": 3528, "altVertexTransitive": True,
        "altEdgeTransitive": True, "altArcOrbits": 2,
    },
    "4.2": {
        "x_squared_is_t": True, "x_normalizes_Z": True, "YmeetYx_isZ": True,
        "YxY_equals_YS": True, "X_isAlt72": str(math.factorial(72) // 2),
        "S_generates_Alt71": str(math.factorial(71) // 2), "S_shape": True,
    },
    "4.3": {
        "autOrder": 240, "H_sDegree": 2, "H_localOrder": 12, "M_order": 20,
        "M_halfArcTransitive": "1/2", "M_vertexStabilizerOrder": 2,
        "theoremCase": "b",
    },
}


class Examples:
    """Examples 4.1, 4.2 (with the shipped witness) and 4.3.

    Example 4.4 is left out: at about 80 s and 730 MiB on its own it would
    make one run several times longer than the others.
    """

    seed_note = "seed ignored: the examples are fixed constructions"

    def __init__(self, seed, root):
        path = os.path.join(root, "src", "hatlab", "data", "ex42_witness.json")
        with open(path) as fh:
            self.witness = json.load(fh)

    def tasks(self):
        runs = {
            "4.1": lambda: examples.run_example_41(),
            "4.2": lambda: examples.run_example_42(witness=self.witness),
            "4.3": lambda: examples.run_example_43(),
        }
        return [Task("example " + k, runs[k], self._checker(k)) for k in EXAMPLE_FACTS]

    @staticmethod
    def _checker(key):
        def check(rep):
            _expect(rep.passed, "example %s failing facts %s" % (key, rep.failing()))
            computed = {f.name: f.computed for f in rep.facts}
            for name, want in EXAMPLE_FACTS[key].items():
                _expect(computed.get(name) == want, "example %s fact %s = %r, expected %r"
                        % (key, name, computed.get(name), want))

        return check


# -- properties -------------------------------------------------------------

# Chain cases per degree, drawn from CHAIN_DRAWS generator pairs of each
# degree.  Most pairs of degree 8 or 9 generate a group too large for the
# closure oracle and are skipped, so those degrees get small quotas; fixed
# quotas keep the cost of a pass the same for every seed.
CHAIN_QUOTAS = {4: 45, 5: 45, 6: 45, 7: 45, 8: 15, 9: 3}
CHAIN_DRAWS = 400
# Graphs on 1-8 vertices, cycling through every size and edge probability.
AUT_CASES = 504
AUT_PROBABILITIES = (0.2, 0.4, 0.6)
CAYLEY_DRAWS = 800
# Cayley cases per band of group order: (orders below, cases).  The cost of
# a case grows steeply with the order (the regular representation has that
# degree), so fixed quotas keep the cost of a pass the same for every seed.
CAYLEY_QUOTAS = ((100, 70), (300, 20), (500, 5), (1001, 5))
# Orders at most these go to the closure oracle; larger draws are skipped.
CHAIN_CLOSURE_LIMIT, CAYLEY_CLOSURE_LIMIT = 10**4, 1000
NORMAL_LOCAL_CIRCULANTS = ((8, 3), (12, 5), (16, 7), (20, 9), (24, 11), (24, 5), (21, 8))


def _random_images(rng, n):
    imgs = list(range(n))
    rng.shuffle(imgs)
    return imgs


def hat_corpus():
    """(n, k) with k*k = 1 mod n for the circulants Cay(Z_n, {+-1, +-k})."""
    return [(n, k) for n in range(8, 40) for k in range(2, n - 1) if (k * k) % n == 1]


def circulant(n, k):
    """Cay(Z_n, {+-1, +-k}) with the group <translation, multiplication by k>."""
    edges = [(v, (v + s) % n) for s in (1, k) for v in range(n)]
    graph = graphs.Graph(n, [(min(u, v), max(u, v)) for u, v in edges])
    t = perm.Permutation([(v + 1) % n for v in range(n)])
    m = perm.Permutation([(v * k) % n for v in range(n)])
    return graph, graphs.VertexAction(group.PermutationGroup([t, m]), graph)


def count_automorphisms(n, edges):
    """Brute-force |Aut|: extend a partial bijection vertex by vertex,
    keeping adjacency and non-adjacency with every mapped vertex."""
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    deg = [len(a) for a in adj]
    image = [-1] * n
    used = [False] * n

    def extend(v):
        if v == n:
            return 1
        total = 0
        for w in range(n):
            if used[w] or deg[w] != deg[v]:
                continue
            if all((image[u] in adj[w]) == (u in adj[v]) for u in range(v)):
                image[v] = w
                used[w] = True
                total += extend(v + 1)
                used[w] = False
        return total

    return extend(0)


def closure(gens, n, limit):
    """The elements of <gens> as rows of an array sorted by their base-n
    codes, with the codes; None when there are more than ``limit``.
    Breadth-first over image arrays, independent of the library."""
    weights = n ** np.arange(n, dtype=np.int64)
    gens = [np.asarray(g, dtype=np.int64) for g in gens]
    frontier = np.arange(n, dtype=np.int64)[None, :]
    elems, codes = frontier, frontier @ weights
    while len(frontier):
        nxt = np.concatenate([g[frontier] for g in gens])
        new_codes, first = np.unique(nxt @ weights, return_index=True)
        fresh = ~np.isin(new_codes, codes)
        frontier = nxt[first[fresh]]
        elems = np.concatenate([elems, frontier])
        codes = np.concatenate([codes, new_codes[fresh]])
        if len(codes) > limit:
            return None
    order = np.argsort(codes)
    return elems[order], codes[order]


class Properties:
    """Seeded small inputs in the style of the acceptance property suites.

    Each family of checks (chain, aut, hat, cayley, normal-local) is one key,
    so that in task_geomean_kref every family counts once, whatever its
    number of cases."""

    seed_note = "seed draws the random groups, graphs and connection sets"

    def __init__(self, seed, root):
        rng = random.Random(seed)
        self.chain_draws = {
            n: [[_random_images(rng, n) for _ in range(2)] for _ in range(CHAIN_DRAWS)]
            for n in CHAIN_QUOTAS
        }
        self.graphs = []
        for i in range(AUT_CASES):
            n = 1 + i % 8
            p = AUT_PROBABILITIES[i // 8 % len(AUT_PROBABILITIES)]
            self.graphs.append(
                (n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
            )
        self.cayley_draws = []
        for _ in range(CAYLEY_DRAWS):
            n = rng.randrange(3, 8)
            gens = [_random_images(rng, n) for _ in range(2)]
            self.cayley_draws.append((n, gens, rng.getrandbits(32)))

    def tasks(self):
        return (
            self._chain_tasks()
            + self._aut_tasks()
            + self._hat_tasks()
            + self._cayley_tasks()
            + self._normal_local_tasks()
        )

    # chain order against the closure oracle
    def _chain_tasks(self):
        out = []
        for n, quota in CHAIN_QUOTAS.items():
            cases = 0
            for gens in self.chain_draws[n]:
                found = closure(gens, n, CHAIN_CLOSURE_LIMIT)
                if found is None:
                    continue
                out.append(Task("chain %d" % len(out), self._chain_run(n, gens),
                                self._equals(len(found[0]), "order"), key="chain"))
                cases += 1
                if cases == quota:
                    break
            else:
                raise RuntimeError("only %d chain cases of degree %d in %d draws"
                                   % (cases, n, CHAIN_DRAWS))
        return out

    @staticmethod
    def _chain_run(n, gens):
        def run():
            return group.PermutationGroup([perm.Permutation(g) for g in gens], n).order()

        return run

    @staticmethod
    def _equals(want, what):
        def check(got):
            _expect(got == want, "%s %r, expected %r" % (what, got, want))

        return check

    # automorphism group order against brute force
    def _aut_tasks(self):
        out = []
        for i, (n, edges) in enumerate(self.graphs):
            def run(n=n, edges=edges):
                return graphauto.automorphism_group(graphs.Graph(n, edges)).order()

            out.append(Task("aut %d" % i, run, self._equals(count_automorphisms(n, edges), "|Aut|"),
                            key="aut"))
        return out

    # half-arc-transitive circulants and their alternating-cycle systems
    @staticmethod
    def _hat_tasks():
        out = []
        for n, k in hat_corpus():
            def run(n=n, k=k):
                graph, act = circulant(n, k)
                rep = symmetry.transitivity_report(act)
                if not rep.half_arc_transitive:
                    return False, None
                system = altcycles.alternating_cycle_system(altcycles.hat_orientation(act))
                return True, [len(c) for c in system.cycles]

            def check(res, n=n, k=k):
                hat, lengths = res
                # M = <t, m> fixes 0 only through <m>, whose orbits on the
                # neighbours {1, k} and {-1, -k} are the two arc orbits, as
                # long as the four connection elements are distinct
                want = len({1, n - 1, k, n - k}) == 4
                _expect(hat == want, "circulant (%d,%d) half-arc-transitive=%s" % (n, k, hat))
                if hat:
                    _expect(len(set(lengths)) == 1, "(%d,%d) cycle lengths %r" % (n, k, lengths))
                    _expect(sum(lengths) == 2 * n, "(%d,%d) cycles cover %d arcs"
                            % (n, k, sum(lengths)))

            out.append(Task("hat %d,%d" % (n, k), run, check, key="hat"))
        return out

    # Cayley graph of a regular representation against its coset graph
    def _cayley_tasks(self):
        bands = [[] for _ in CAYLEY_QUOTAS]
        for n, gens, sub_seed in self.cayley_draws:
            found = closure(gens, n, CAYLEY_CLOSURE_LIMIT)
            if found is None or len(found[0]) < 3:
                continue
            band = next(i for i, (below, _) in enumerate(CAYLEY_QUOTAS) if len(found[0]) < below)
            cases = bands[band]
            if len(cases) == CAYLEY_QUOTAS[band][1]:
                continue
            # 2 or 3 connection elements (with their inverses), in turn
            case = _regular_case(n, gens, found, random.Random(sub_seed), 2 + len(cases) % 2)
            if case is not None:
                cases.append(case)
            if all(len(c) == q for c, (_, q) in zip(bands, CAYLEY_QUOTAS)):
                return [Task("cayley %d" % i, _cayley_run(c), _cayley_check(c), key="cayley")
                        for i, c in enumerate(c for cases in bands for c in cases)]
        raise RuntimeError("Cayley quotas %r not met in %d draws, got %r"
                           % (CAYLEY_QUOTAS, CAYLEY_DRAWS, [len(c) for c in bands]))

    # the normal-local-action lemma on circulants
    @staticmethod
    def _normal_local_tasks():
        out = []
        for n, k in NORMAL_LOCAL_CIRCULANTS:
            def run(n=n, k=k):
                graph, act = circulant(n, k)
                M = act.group
                neg = perm.Permutation([(-v) % n for v in range(n)])
                H = group.PermutationGroup(list(M.gens) + [neg])
                return M.order(), H.order(), symmetry.normal_local_action_checks(graph, M, H, 0)

            def check(res, n=n):
                m_order, h_order, data = res
                _expect((m_order, h_order) == (2 * n, 4 * n),
                        "circulant %d: |M|=%d |H|=%d" % (n, m_order, h_order))
                _expect(data["index"] == 2, "circulant %d: index %r" % (n, data["index"]))

            out.append(Task("normal-local %d,%d" % (n, k), run, check, key="normal-local"))
        return out


@dataclass
class RegularCase:
    order: int
    identity_index: int
    reg_gens: list       # image lists of the regular representation
    connection: list     # image lists of the connection set, inverse-closed
    edges: set           # the Cayley graph's edges, from the element table


def _regular_case(n, gens, found, rng, picks):
    """The regular representation of <gens>, given its closure, with a
    random inverse-closed connection set of ``picks`` elements and their
    inverses; None when that set does not generate the group."""
    elems, codes = found
    order = len(elems)
    weights = n ** np.arange(n, dtype=np.int64)

    def index(rows):
        return np.searchsorted(codes, rows @ weights)

    def regular(g):  # e_i -> e_i * g, applying e_i first
        return index(g[elems]).tolist()

    identity = int(index(np.arange(n, dtype=np.int64)))
    extra = [np.asarray(g, dtype=np.int64) for g in gens]
    reg_gens = [regular(g) for g in list(elems[:: max(1, order // 5)]) + extra
                if (g != np.arange(n)).any()]
    pool = [i for i in range(order) if i != identity]
    rng.shuffle(pool)
    chosen = {}
    for i in pool[:picks]:
        for s in (elems[i], np.argsort(elems[i])):
            chosen[int(s @ weights)] = s
    if len(closure(list(chosen.values()), n, CAYLEY_CLOSURE_LIMIT)[0]) != order:
        return None  # Cay(G, S) is disconnected
    edges = {
        tuple(sorted((i, j)))
        for s in chosen.values() for i, j in enumerate(index(elems[:, s]).tolist())
    }
    return RegularCase(order, identity, reg_gens, [regular(s) for s in chosen.values()], edges)


def _cayley_run(case):
    def run():
        R = group.PermutationGroup([perm.Permutation(g) for g in case.reg_gens], case.order)
        regular = R.transitivity_profile()["regular"]
        S = [perm.Permutation(s) for s in case.connection]
        cay, _ = graphs.cayley_graph(R, S, base_point=case.identity_index)
        cos, cos_action = graphs.coset_graph(R, R.subgroup([]), S)
        return regular, cay, cos, cos_action

    return run


def _cayley_check(case):
    def check(res):
        regular, cay, cos, cos_action = res
        _expect(regular, "regular representation not regular")
        _expect(set(cay.edges) == case.edges, "Cayley graph edges differ from the element table")
        bij = [int(r.images[case.identity_index]) for r in cos_action.space.reps]
        mapped = {tuple(sorted((bij[u], bij[v]))) for u, v in cos.edges}
        _expect(mapped == case.edges, "coset graph is not the Cayley graph")

    return check


WORKLOADS = {"pairsearch": Pairsearch, "examples": Examples, "properties": Properties}
