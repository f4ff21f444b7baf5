import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hatlab.perm import DegreeMismatch, Permutation, evaluate_word


def test_parse_and_format():
    p = Permutation.parse("(0 1 2)(3 4)")
    assert p.degree == 5
    assert p.cycle_string() == "(0 1 2)(3 4)"
    assert Permutation.parse("()", 3) == Permutation.identity(3)
    assert Permutation.parse("(0, 2)(1 3)").cycle_string() == "(0 2)(1 3)"


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        Permutation.parse("0 1 2")
    with pytest.raises(ValueError):
        Permutation.parse("(0 1)(1 2)")
    with pytest.raises(ValueError):
        Permutation.parse("(0 5)", 3)


def test_right_action_convention():
    # word a*b with a=(0 1), b=(1 2) acts as 0->2, 2->1, 1->0
    a = Permutation.parse("(0 1)", 3)
    b = Permutation.parse("(1 2)", 3)
    ab = a * b
    assert ab(0) == 2 and ab(2) == 1 and ab(1) == 0
    assert ab == Permutation.parse("(0 2 1)", 3)


def test_inverse_and_identity():
    p = Permutation.parse("(0 3 1)(2 4)")
    assert (p * p.inverse()).is_identity()
    assert (p.inverse() * p).is_identity()
    assert (~p) == p.inverse()


def test_power_and_order():
    p = Permutation.parse("(0 1 2 3)(4 5)")
    assert p.order() == 4
    assert (p**4).is_identity()
    assert p**-1 == p.inverse()
    assert p**3 == p * p * p


def test_parity_and_cycles():
    assert Permutation.parse("(0 1)", 4).is_even() is False
    assert Permutation.parse("(0 1 2)", 4).is_even() is True
    p = Permutation.parse("(0 1 2)(3 4)(5 6)", 8)
    assert p.cycle_type() == (2, 2, 3)
    assert p.degree - len(p.support()) == 1


def test_parity_matches_the_cycles():
    rng = random.Random(23)
    for n in [0, 1, 2, 3, 7, 72] + [rng.randrange(2, 40) for _ in range(30)]:
        p = Permutation(rng.sample(range(n), n))
        assert p.is_even() == (sum(len(c) - 1 for c in p.cycles()) % 2 == 0)
    assert Permutation.identity(0).is_even() and Permutation.identity(1).is_even()


def test_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        Permutation.parse("(0 1)", 2) * Permutation.parse("(0 1)", 3)


def test_constructor_accepts_integer_images_only():
    for images in ([1.7, 0.2], [1.0, 0.0], np.array([1.0, 0.0]), [True, False], ["1", "0"]):
        with pytest.raises(ValueError):
            Permutation(images)
    swap = Permutation([1, 0])
    assert Permutation(np.array([1, 0], dtype=np.int64)) == swap
    assert Permutation(np.array([1, 0], dtype=np.uint8)) == swap
    assert Permutation([]).degree == 0
    # checked before the int32 copy, which would wrap 2**32 to 0
    with pytest.raises(ValueError):
        Permutation(np.array([2**32, 1], dtype=np.int64))


def test_constructor_copies_into_its_own_int32_array():
    rows = np.array([[1, 0, 2], [2, 1, 0]], dtype=np.int32)
    p = Permutation(rows[0])
    assert p.images.dtype == np.int32 and p.images.base is None
    rows[0] = [0, 1, 2]
    assert p == Permutation([1, 0, 2])


def test_validate_keyword_is_gone():
    with pytest.raises(TypeError):
        Permutation([1, 0], validate=False)


def test_evaluate_word_empty_is_identity():
    a = Permutation.parse("(0 1)", 3)
    assert evaluate_word([], [a]).is_identity()


def test_evaluate_word_left_to_right():
    a = Permutation.parse("(0 1)", 3)
    b = Permutation.parse("(1 2)", 3)
    w = evaluate_word([(0, 1), (1, 1)], [a, b])
    assert w == Permutation.parse("(0 2 1)", 3)


def test_evaluate_word_commutator_with_self_is_identity():
    a = Permutation.parse("(0 1 2 3)", 4)
    w = evaluate_word([(0, -1), (0, -1), (0, 1), (0, 1)], [a, a])
    assert w.is_identity()


def test_evaluate_word_index_error():
    a = Permutation.parse("(0 1)", 2)
    with pytest.raises(IndexError):
        evaluate_word([(1, 1)], [a])


@st.composite
def random_perm(draw, n=6):
    imgs = draw(st.permutations(range(n)))
    return Permutation(list(imgs))


@given(random_perm(), random_perm(), random_perm())
def test_associativity(p, q, r):
    assert (p * q) * r == p * (q * r)


@given(random_perm())
def test_inverse_cancels(p):
    assert (p * p.inverse()).is_identity()


@given(random_perm(), st.integers(min_value=0, max_value=5))
def test_point_action_composes(p, pt):
    q = p * p
    assert q(pt) == p(p(pt))
