"""Lighter checks of the example runners; the full end-to-end runs with all
expected values live in the acceptance suite."""

import itertools
import json
import math
import os
import random

import pytest

from hatlab import examples
from hatlab.examples import (
    _example_42_setting,
    _involutions_conjugating,
    run_example_42,
    run_example_43,
    search_ex42_witness,
)
from hatlab.group import ResourceExhausted
from hatlab.perm import Permutation

WITNESS_PATH = os.path.join(
    os.path.dirname(__file__), "..", "src", "hatlab", "data", "ex42_witness.json"
)

# the full fact list of example 4.2, identical for a derived and a supplied x
EXAMPLE_42_FACTS = [
    ("actionDegree", 72),
    ("M_order", 144),
    ("Y_order", 72),
    ("Y_regular", True),
    ("Z_order", 18),
    ("t_inZ", True),
    ("x_order", 4),
    ("x_even", True),
    ("x_squared_is_t", True),
    ("x_normalizes_Z", True),
    ("YmeetYx_isZ", True),
    ("X_isAlt72", str(math.factorial(72) // 2)),
    ("doubleCosetSize", 288),
    ("S_size", 4),
    ("YxY_equals_YS", True),
    ("S_generates_Alt71", str(math.factorial(71) // 2)),
    ("g_inS", True),
    ("h_involution", 2),
    ("h_fixes_v", 0),
    ("h_even", True),
    ("S_shape", True),
]


def _shipped_witness():
    with open(WITNESS_PATH) as fh:
        return json.load(fh)


def test_example_43_full():
    rep = run_example_43()
    assert rep.passed, rep.failing()
    assert [(f.name, f.computed) for f in rep.facts] == [
        ("autOrder", 240),
        ("derivedType", "A5"),
        ("foundS5", True),
        ("H_sDegree", 2),
        ("H_localOrder", 12),
        ("H_localType", "A4"),
        ("M_order", 20),
        ("M_type", "F5"),
        ("M_maximal", True),
        ("M_arcOrbits", 2),
        ("M_halfArcTransitive", "1/2"),
        ("M_vertexStabilizerOrder", 2),
        ("theoremCase", "b"),
        ("quadruple", ["S5", "F5", "A4", "C2"]),
    ]
    assert rep.extras == {"radius": 5, "attachment": 10}


def test_example_42_setting_orders():
    pres, table, RM, Y, Z, t = _example_42_setting()
    assert table.coset_count == 72
    assert RM.order() == 144
    assert Y.order() == 72
    assert Y.transitivity_profile()["regular"]
    assert Z.order() == 18
    assert t.order() == 2
    assert t in Z


def test_example_42_derives_its_witness():
    rep = run_example_42()
    assert rep.passed, rep.failing()
    assert [(f.name, f.computed) for f in rep.facts] == EXAMPLE_42_FACTS
    x = Permutation(_shipped_witness()["x"])
    assert rep.extras == {"x": x.cycle_string()}


def test_derived_witness_facts_are_evaluated_once(monkeypatch):
    """run_example_42 records the facts the witness search evaluated for
    the derived x rather than evaluating them a second time."""
    calls = []
    facts = examples._witness_facts
    monkeypatch.setattr(
        examples, "_witness_facts", lambda setting, w: calls.append(w["x"]) or facts(setting, w)
    )
    assert run_example_42().passed
    assert calls.count(_shipped_witness()["x"]) == 1


def test_derived_witness_is_the_shipped_one():
    derived, facts = search_ex42_witness(_example_42_setting())
    assert [(name, computed) for name, _, computed in facts] == EXAMPLE_42_FACTS[6:]
    shipped = _shipped_witness()
    assert set(derived) == {"x", "v", "g", "h"}
    for key in derived:
        assert derived[key] == shipped[key], key


def test_witness_search_is_bounded(monkeypatch):
    # the witness is the third realization scanned
    monkeypatch.setattr(examples, "WITNESS_SCAN_LIMIT", 2)
    with pytest.raises(ResourceExhausted):
        search_ex42_witness(_example_42_setting())
    monkeypatch.setattr(examples, "WITNESS_SCAN_LIMIT", 3)
    assert search_ex42_witness(_example_42_setting())[0]["v"] == 0


def test_witness_search_raises_when_no_realization_fits(monkeypatch):
    # every one of the realizations is scanned, and none is returned
    monkeypatch.setattr(examples, "_connection_shape_at_zero", lambda x, ys: None)
    with pytest.raises(LookupError):
        search_ex42_witness(_example_42_setting())


def test_shape_search_raises_past_its_involution_budget(monkeypatch):
    """Involutions that never give the shape end the shape search at the
    witness x loudly after 5000, instead of reporting no shape."""
    setting = _example_42_setting()
    x = Permutation(search_ex42_witness(setting)[0]["x"])
    y_elems = list(setting[3].elements())
    h = Permutation.from_cycles(72, [(1, 2), (3, 4)])
    monkeypatch.setattr(examples, "_involutions_conjugating", lambda g, gp, v: itertools.repeat(h))
    with pytest.raises(ResourceExhausted, match="more than 5000 involutions"):
        examples._connection_shape_at_zero(x, y_elems)


def test_example_42_with_stored_witness():
    rep = run_example_42(witness=_shipped_witness())
    assert rep.passed, rep.failing()
    assert [(f.name, f.computed) for f in rep.facts] == EXAMPLE_42_FACTS


def test_example_42_rejects_corrupted_witness():
    bad = _shipped_witness()
    bad["x"] = list(range(72))  # identity is not a valid witness
    rep = run_example_42(witness=bad)
    assert not rep.passed


def test_involution_conjugator_small():
    g = Permutation.parse("(1 2 3)(4 5)", 8)
    gp = Permutation.parse("(1 4 2)(3 6)", 8)
    found = 0
    for h in _involutions_conjugating(g, gp, 0):
        assert (h * h).is_identity()
        assert g.conj(h) == gp
        assert h(0) == 0
        found += 1
        if found >= 50:
            break
    assert found > 0


@pytest.mark.parametrize("seed", range(3))
def test_involution_conjugator_matches_a_scan(seed):
    """Every involution h with h(v) = v and g^h = gp, each once, against a
    scan of Sym(n), n <= 7, on seeded g fixing v and conjugates gp of g by
    permutations fixing v."""
    rng = random.Random(1700 + seed)

    def fixing(n, v):
        imgs = rng.sample([i for i in range(n) if i != v], n - 1)
        imgs.insert(v, v)
        return Permutation(imgs)

    hits = 0
    for _ in range(6):
        n = rng.randrange(3, 8)
        v = rng.randrange(n)
        g = fixing(n, v)
        gp = g.conj(fixing(n, v))
        got = [h.key() for h in _involutions_conjugating(g, gp, v)]
        want = {
            h.key() for h in map(Permutation, itertools.permutations(range(n)))
            if (h * h).is_identity() and int(h.images[v]) == v and g.conj(h) == gp
        }
        assert len(got) == len(set(got)) and set(got) == want
        hits += len(got)
    assert hits > 0


def test_involution_conjugator_type_mismatch_yields_nothing():
    g = Permutation.parse("(1 2 3)", 6)
    gp = Permutation.parse("(1 2)(3 4)", 6)
    assert list(_involutions_conjugating(g, gp, 0)) == []
