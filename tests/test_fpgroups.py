import random

import pytest

from hatlab import fpgroups
from hatlab.fpgroups import (
    FpPresentation,
    amalgam_by_name,
    amalgam_catalog,
    cyclic_reduce,
    free_reduce,
    parse_word,
    todd_coxeter,
)
from hatlab.group import ResourceExhausted


def test_parse_word_basics():
    names = ["a", "b", "c"]
    assert parse_word("a^2", names) == ((0, 1), (0, 1))
    assert parse_word("a*b^-1", names) == ((0, 1), (1, -1))
    assert parse_word("(a*b)^2", names) == ((0, 1), (1, 1), (0, 1), (1, 1))
    # commutator expansion
    assert parse_word("[a,b]", names) == ((0, -1), (1, -1), (0, 1), (1, 1))
    # conjugation x^s = s^-1 x s
    assert parse_word("a^b", names) == ((1, -1), (0, 1), (1, 1))


def test_parse_word_rejects_unknown():
    with pytest.raises(ValueError):
        parse_word("a*z", ["a", "b"])


def test_free_and_cyclic_reduction():
    w = ((0, 1), (1, 1), (1, -1), (0, 1))
    assert free_reduce(w) == ((0, 1), (0, 1))
    assert cyclic_reduce(((0, -1), (1, 1), (0, 1))) == ((1, 1),)


def test_presentation_file_format():
    pres = FpPresentation.parse(["a", "b"], ["a^5", "b^2", "(a*b)^2"])
    assert pres.names == ["a", "b"]
    tab = todd_coxeter(pres, ())
    assert tab.coset_count == 10  # D10


def test_cyclic_five():
    pres = FpPresentation.parse(["a"], ["a^5"])
    tab = todd_coxeter(pres, ())
    assert tab.coset_count == 5
    assert tab.verify_closed()


def test_verify_closed_names_the_first_open_coset():
    """A corrupted entry is reported at the coset a scalar scan, relator by
    relator and coset by coset, finds first."""
    rng = random.Random(5)
    pres = FpPresentation.parse("a b c d".split(), [
        "a^2", "b^3", "(a*b)^2", "c^2", "d^3", "(c*d)^4",
        "[a,c]", "[a,d]", "[b,c]", "[b,d]",
    ])
    for _ in range(12):
        tab = todd_coxeter(pres, [pres.word("a*(c*d)^2")])
        assert tab.coset_count == 72 and tab.verify_closed()
        c, letter = rng.randrange(tab.n), rng.randrange(2 * pres.ngens)
        tab._neighbors[c][letter] = (tab._neighbors[c][letter] + rng.randrange(1, tab.n)) % tab.n
        first = next(
            d for rel in pres.relators for d in range(tab.n) if tab.trace(d, rel) != d
        )
        with pytest.raises(AssertionError, match="relator does not close at coset %d$" % first):
            tab.verify_closed()


def test_a4_amalgam_index():
    spec = amalgam_by_name("A4s")
    tab = todd_coxeter(spec.presentation, spec.b_generator_words())
    assert tab.coset_count == 4


def test_catalog_entries_and_orders():
    catalog = amalgam_catalog()
    assert len(catalog) == 7
    names = [s.name for s in catalog]
    assert names == ["A4s", "S4", "Z3xA4", "Z3sS4", "S3xS4", "4-AT", "7-AT"]
    for spec in catalog:
        if spec.expected_orders[0] > 1000:
            continue  # 7-AT exercised separately in the deep suite
        tab = todd_coxeter(spec.presentation, ())
        assert tab.coset_count == spec.expected_orders[0]
        tb = todd_coxeter(spec.presentation, spec.b_generator_words())
        assert tb.coset_count == 4
        # |B| via orbit-stabilizer in the regular representation
        b_img = [tab.evaluate(w) for w in spec.b_generator_words()]
        from hatlab.group import PermutationGroup

        B = PermutationGroup(b_img, tab.coset_count)
        assert B.order() == spec.expected_orders[1]


def test_catalog_images_are_two_transitive_on_delta():
    # degree-4 image over B is transitive with transitive point stabilizer
    from hatlab.group import PermutationGroup

    for spec in amalgam_catalog():
        if spec.expected_orders[0] > 1000:
            continue
        tab = todd_coxeter(spec.presentation, spec.b_generator_words())
        img = tab.group()
        assert img.is_transitive()
        stab = img.point_stabilizer(0)
        pts = [p for p in range(1, 4)]
        orb = stab.orbit(pts[0])
        assert sorted(orb.points) == pts


def test_regular_image_is_faithful():
    spec = amalgam_by_name("A4s")
    tab = todd_coxeter(spec.presentation, ())
    assert tab.group().order() == tab.coset_count == 12


def test_pgl27_image_over_order42_subgroup():
    pres = FpPresentation.parse(
        "a b c".split(), ["a^2", "b^3", "c^4", "(a*b)^8", "c^-1*[a,b]"]
    )
    tab = todd_coxeter(pres, [pres.word("a*b*c"), pres.word("c*[b,c]")])
    assert tab.coset_count == 8
    # faithful: the image is as large as the regular representation
    assert tab.group().order() == todd_coxeter(pres, ()).coset_count == 336


def test_order_identity_across_representations():
    # |L| = |image over B| * |Core_L(B)| and |image| = 4 * |stab of 0|
    from hatlab.cosets import core
    from hatlab.group import PermutationGroup

    for spec in amalgam_catalog():
        if spec.expected_orders[0] > 200:
            continue
        tab = todd_coxeter(spec.presentation, ())
        L = tab.group(order=tab.coset_count)
        b_img = [tab.evaluate(w) for w in spec.b_generator_words()]
        B = L.subgroup(b_img)
        dtab = todd_coxeter(spec.presentation, spec.b_generator_words())
        image = dtab.group()
        K = core(L, B)
        assert image.order() * K.order() == tab.coset_count
        assert image.order() == 4 * image.point_stabilizer(0).order()


def test_coset_limit(monkeypatch):
    pres = FpPresentation.parse(["a"], ["a^100"])
    monkeypatch.setattr(fpgroups, "COSET_LIMIT", 5)
    with pytest.raises(ResourceExhausted):
        todd_coxeter(pres, ())
    monkeypatch.setattr(fpgroups, "COSET_LIMIT", 200)
    assert todd_coxeter(pres, ()).coset_count == 100


def test_collapse_log_present():
    spec = amalgam_by_name("S3xS4")
    tab = todd_coxeter(spec.presentation, ())
    assert tab.collapse_log["live"] == 144
    assert tab.collapse_log["defined"] >= 144
    assert tab.collapse_log["collapsed"] == tab.collapse_log["defined"] - 144


def test_seventh_amalgam_orders():
    spec = amalgam_by_name("7-AT")
    tab = todd_coxeter(spec.presentation, ())
    assert tab.coset_count == 11664
    tb = todd_coxeter(spec.presentation, spec.b_generator_words())
    assert tb.coset_count == 4


def test_table_retrace_property():
    spec = amalgam_by_name("S4")
    tab = todd_coxeter(spec.presentation, spec.b_generator_words())
    for rel in spec.presentation.relators:
        for c in range(tab.coset_count):
            assert tab.trace(c, rel) == c
