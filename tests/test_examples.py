"""Lighter checks of the example runners; the full end-to-end runs with all
expected values live in the acceptance suite."""

import json
import os

from hatlab.examples import (
    _example_42_setting,
    _involutions_conjugating,
    run_example_42,
    run_example_43,
)
from hatlab.perm import Permutation

WITNESS_PATH = os.path.join(
    os.path.dirname(__file__), "..", "src", "hatlab", "data", "ex42_witness.json"
)


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


def test_example_42_requires_witness():
    rep = run_example_42(witness=None)
    assert rep.incomplete
    assert not rep.passed


def test_example_42_with_stored_witness():
    rep = run_example_42(witness_path=WITNESS_PATH)
    assert rep.passed, rep.failing()
    prov = rep.extras["witnessProvenance"]
    assert prov.get("generator") == "search_ex42_witness"
    assert "seed" in prov and "budget" in prov


def test_example_42_rejects_corrupted_witness():
    with open(WITNESS_PATH) as fh:
        witness = json.load(fh)
    bad = dict(witness)
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


def test_involution_conjugator_type_mismatch_yields_nothing():
    g = Permutation.parse("(1 2 3)", 6)
    gp = Permutation.parse("(1 2)(3 4)", 6)
    assert list(_involutions_conjugating(g, gp, 0)) == []
