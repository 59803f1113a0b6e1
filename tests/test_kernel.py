"""The exact value kernel shared by GaussScalar, Quaternion, Spinor and
SpinMatrix2: exact coercion, immutability, equality, hashing, pickling and
copying."""

import copy
import operator
import pickle
from fractions import Fraction

import pytest

from trispinor import GaussScalar, Quaternion, SpinMatrix2, Spinor, qmul

VALUES = [
    GaussScalar(Fraction(1, 2), -3),
    Quaternion(1, Fraction(-2, 3), 0, 4),
    Spinor(GaussScalar(2, 1), 5),
    SpinMatrix2(GaussScalar(0, 1), 2, GaussScalar(Fraction(3, 4), -1), 0),
]
IDS = [type(v).__name__ for v in VALUES]
# The same types built by arithmetic, which allocates through _make and
# never runs __init__.
MADE = [
    GaussScalar(Fraction(1, 2), -3) * GaussScalar(Fraction(1, 3), 1),
    qmul(Quaternion(1, Fraction(-2, 3), 0, 4), Quaternion(0, 1, 2, 3)),
    SpinMatrix2(1, 2, 3, GaussScalar(0, 1)) @ Spinor(GaussScalar(2, 1), 5),
    SpinMatrix2(GaussScalar(0, 1), 2, GaussScalar(Fraction(3, 4), -1), 0) @ SpinMatrix2(1, 2, 3, 4),
]
MADE_IDS = [f"{name}-made" for name in IDS]
FIRST_FIELD = {"GaussScalar": "re", "Quaternion": "q0", "Spinor": "c1", "SpinMatrix2": "a11"}


@pytest.mark.parametrize("value", VALUES + MADE, ids=IDS + MADE_IDS)
@pytest.mark.parametrize("roundtrip", [
    lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy,
], ids=["pickle", "copy", "deepcopy"])
def test_roundtrip_gives_an_equal_value(value, roundtrip):
    again = roundtrip(value)
    assert type(again) is type(value)
    assert again == value and hash(again) == hash(value)
    assert str(again) == str(value)


# Each of VALUES and the rationals it stores, in order.
STORED = [
    (Fraction(1, 2), -3),
    (1, Fraction(-2, 3), 0, 4),
    (2, 1, 5, 0),
    (0, 1, 2, 0, Fraction(3, 4), -1, 0, 0),
]


@pytest.mark.parametrize("value, items", zip(VALUES, STORED), ids=IDS)
def test_a_value_is_not_a_plain_tuple(value, items):
    """Equality, ordering and concatenation are those of a value, never a
    tuple's: a value equals no plain tuple, is unordered, and does not concatenate."""
    assert not value == items and not items == value
    assert value != items and items != value
    for other in (value, items, ()):
        for compare in (operator.lt, operator.le, operator.gt, operator.ge):
            with pytest.raises(TypeError):
                compare(value, other)
            with pytest.raises(TypeError):
                compare(other, value)
    for left, right in ((items, value), (value, items), ((), value), (value, ())):
        with pytest.raises(TypeError):
            left + right


@pytest.mark.parametrize("value, items", zip(VALUES, STORED), ids=IDS)
def test_hash_is_that_of_the_stored_rationals(value, items):
    assert hash(value) == hash(items)
    # Only the first rational nonzero: the hash of that rational.
    real = type(value)(items[0], *[0] * (len(value._fields) - 1))
    assert hash(real) == hash(items[0])


def test_a_value_iterates_over_its_stored_rationals():
    # The one thing a value shares with a tuple: it is the sequence of the
    # rationals it stores, two per Gaussian entry, and has their len.
    for value, items in zip(VALUES, STORED):
        assert tuple(value) == items and len(value) == len(items)
    assert list(Spinor(1, 2)) == [1, 0, 2, 0]


@pytest.mark.parametrize("value", VALUES + MADE, ids=IDS + MADE_IDS)
def test_values_are_immutable(value):
    before = str(value)
    name = FIRST_FIELD[type(value).__name__]
    with pytest.raises(AttributeError):
        setattr(value, name, 0)
    with pytest.raises(AttributeError):
        value.extra = 0
    with pytest.raises(AttributeError):
        delattr(value, name)
    assert str(value) == before


def _assert_exact(*components, normal=True):
    """Every component is an int or a Fraction, never a float; with normal,
    it is an int exactly when it is integral."""
    for c in components:
        assert type(c) in (int, Fraction)
        if normal:
            assert (type(c) is int) == (c.denominator == 1)


def test_constructor_coerces_exactly():
    q = Quaternion(0.5, 1, 2, 3)
    assert q.q0 == Fraction(1, 2) and type(q.q0) is Fraction
    assert (q.q1, q.q2, q.q3) == (1, 2, 3)
    _assert_exact(*tuple(q))
    q = Quaternion(Fraction(4, 2), 2.0, True, -0.25)
    assert q == Quaternion(2, 2, 1, Fraction(-1, 4))
    _assert_exact(*tuple(q))
    z = GaussScalar(Fraction(2, 6))
    assert (z.re, z.im) == (Fraction(1, 3), 0)
    _assert_exact(z.re, z.im)
    s = Spinor(1, Fraction(2, 3))
    assert s.c1 == GaussScalar(1) and type(s.c2) is GaussScalar
    _assert_exact(s.c1.re, s.c1.im, s.c2.re, s.c2.im)


def test_arithmetic_keeps_exact_component_types():
    q = Quaternion(1, 2, 3, 4)
    for result in (q + q, q - q, -q, 2 * q, qmul(q, q)):
        _assert_exact(*tuple(result))
    third = q * Fraction(1, 3)
    _assert_exact(*tuple(third))
    assert third == Quaternion(Fraction(1, 3), Fraction(2, 3), 1, Fraction(4, 3))
    assert str(third) == "(1/3, 2/3, 1, 4/3)"
    m = SpinMatrix2(1, 2, 3, 4)
    s = Spinor(1, GaussScalar(0, 1))
    for result in (s + s, s - s, -s, 2 * s, s * GaussScalar(0, 1), m @ s):
        entries = (result.c1, result.c2)
        assert all(type(c) is GaussScalar for c in entries)
        _assert_exact(*(x for c in entries for x in (c.re, c.im)))
    for result in (m + m, m - m, -m, m * 2, m @ m):
        entries = (result.a11, result.a12, result.a21, result.a22)
        assert all(type(c) is GaussScalar for c in entries)
        _assert_exact(*(x for c in entries for x in (c.re, c.im)))


def test_equality_needs_the_same_type():
    assert Quaternion(1, 2, 3, 4) != SpinMatrix2(1, 2, 3, 4)
    assert SpinMatrix2(1, 2, 3, 4) != Quaternion(1, 2, 3, 4)
    assert Quaternion(1, 0, 0, 0) != 1
    assert Spinor(1, 0) != GaussScalar(1)
    assert GaussScalar(1) == 1 == GaussScalar(1) and GaussScalar(1, 1) != 1
    assert GaussScalar(Fraction(1, 2)) == Fraction(1, 2)


def test_real_gauss_scalar_hashes_like_its_real_part():
    assert hash(GaussScalar(1)) == hash(1)
    assert hash(GaussScalar(Fraction(-7, 3))) == hash(Fraction(-7, 3))
    assert 1 in {GaussScalar(1)}
    assert GaussScalar(1) in {1}
    assert len({GaussScalar(1), 1, Fraction(1)}) == 1
    assert len({GaussScalar(1, 2), GaussScalar(Fraction(2, 2), 2)}) == 1


def test_operands_of_other_types_are_refused():
    with pytest.raises(TypeError):
        Quaternion(1, 2, 3, 4) + 1
    with pytest.raises(TypeError):
        Spinor(1, 2) - SpinMatrix2(1, 2, 3, 4)
    with pytest.raises(TypeError):
        Quaternion(1, 2, 3)
    with pytest.raises(TypeError):
        Spinor(0.5, 1)
    with pytest.raises(TypeError):
        Quaternion(1, 2, 3, 4) * Quaternion(1, 2, 3, 4)
    for other in (2, Quaternion(1, 2, 3, 4)):
        with pytest.raises(TypeError):
            SpinMatrix2(1, 2, 3, 4) @ other


def test_gauss_scalar_product_stays_exact_and_normal():
    # No part here is integral with a Fraction factor: such a part stays a
    # Fraction (see test_arithmetic_keeps_exact_component_types).
    z, w = GaussScalar(Fraction(1, 2), -3), GaussScalar(2, -3)
    products = {
        "GaussScalar": (z * GaussScalar(Fraction(1, 3), 1), (Fraction(19, 6), Fraction(-1, 2))),
        "Gaussian integer": (w * GaussScalar(1, 4), (14, 5)),
        "int": (w * 4, (8, -12)),
        "reflected int": (4 * w, (8, -12)),
        "Fraction": (z * Fraction(1, 5), (Fraction(1, 10), Fraction(-3, 5))),
        "bool": (w * True, (2, -3)),
    }
    for name, (product, parts) in products.items():
        assert type(product) is GaussScalar, name
        assert (product.re, product.im) == parts, name
        _assert_exact(product.re, product.im)


def test_gauss_scalar_times_a_spinor_or_matrix_scales_it():
    # GaussScalar.__mul__ declines these operands, so the other operand's
    # scaling runs and multiplies each component by i.
    i = GaussScalar(0, 1)
    s = Spinor(GaussScalar(2, 1), 5)
    assert i * s == s * i == Spinor(GaussScalar(-1, 2), GaussScalar(0, 5))
    m = SpinMatrix2(1, GaussScalar(0, 2), -3, 0)
    assert i * m == m * i == SpinMatrix2(GaussScalar(0, 1), -2, GaussScalar(0, -3), 0)


def test_rational_scaling_coerces_by_each_types_rule():
    # A quaternion coerces its factor by rat, so a float scales it exactly; a
    # spinor or matrix takes only a Gaussian or a plain rational.
    q = Quaternion(1, 2, 3, 4)
    for scaled in (q * 0.5, 0.5 * q):
        assert scaled == Quaternion(Fraction(1, 2), 1, Fraction(3, 2), 2)
        _assert_exact(*tuple(scaled))
    with pytest.raises(TypeError):
        Spinor(1, 2) * 0.5
    with pytest.raises(TypeError):
        0.5 * SpinMatrix2(1, 2, 3, 4)
    for scaled in (3 * q, q * 3, 3 * Spinor(1, 2), SpinMatrix2(1, 2, 3, 4) * 3):
        assert all(type(c) is int for c in scaled)
        _assert_exact(*tuple(scaled))
    assert 3 * Spinor(1, GaussScalar(2, -1)) == Spinor(3, GaussScalar(6, -3))


@pytest.mark.parametrize("other", [0.5, Quaternion(1, 2, 3, 4)], ids=["float", "Quaternion"])
def test_gauss_scalar_refuses_a_float_or_quaternion_factor(other):
    with pytest.raises(TypeError):
        GaussScalar(1) * other
    # GaussScalar has no division, not even by an int.
    with pytest.raises(TypeError):
        GaussScalar(1, 1) / 3


# repr, str and protocol-2 pickle of a spinor and a matrix, each also after a
# product, recorded while the entries were stored as GaussScalar objects: the
# flat storage keeps what is printed and what is pickled.
_SPINOR = Spinor(GaussScalar(Fraction(1, 2), -3), 5)
_MATRIX = SpinMatrix2(GaussScalar(0, 1), 2, Fraction(3, 4), -1)
PINNED = [
    (_SPINOR, "Spinor(GaussScalar(1/2, -3), GaussScalar(5, 0))", "[1/2-3i; 5+0i]",
     b"\x80\x02ctrispinor.spinors\nSpinor\nq\x00ctrispinor.gauss\nGaussScalar\nq\x01"
     b"cfractions\nFraction\nq\x02K\x01K\x02\x86q\x03Rq\x04J\xfd\xff\xff\xff\x86q\x05Rq\x06"
     b"h\x01K\x05K\x00\x86q\x07Rq\x08\x86q\tRq\n."),
    (_MATRIX, "SpinMatrix2(GaussScalar(0, 1), GaussScalar(2, 0), GaussScalar(3/4, 0), "
     "GaussScalar(-1, 0))", "[[0+1i, 2+0i], [3/4+0i, -1+0i]]",
     b"\x80\x02ctrispinor.spinors\nSpinMatrix2\nq\x00(ctrispinor.gauss\nGaussScalar\nq\x01"
     b"K\x00K\x01\x86q\x02Rq\x03h\x01K\x02K\x00\x86q\x04Rq\x05h\x01cfractions\nFraction\nq\x06"
     b"K\x03K\x04\x86q\x07Rq\x08K\x00\x86q\tRq\nh\x01J\xff\xff\xff\xffK\x00\x86q\x0bRq\x0c"
     b"tq\rRq\x0e."),
    (_MATRIX @ _SPINOR, "Spinor(GaussScalar(13, 1/2), GaussScalar(-37/8, -9/4))",
     "[13+1/2i; -37/8-9/4i]",
     b"\x80\x02ctrispinor.spinors\nSpinor\nq\x00ctrispinor.gauss\nGaussScalar\nq\x01"
     b"cfractions\nFraction\nq\x02K\rK\x01\x86q\x03Rq\x04h\x02K\x01K\x02\x86q\x05Rq\x06"
     b"\x86q\x07Rq\x08h\x01h\x02J\xdb\xff\xff\xffK\x08\x86q\tRq\nh\x02J\xf7\xff\xff\xffK\x04"
     b"\x86q\x0bRq\x0c\x86q\rRq\x0e\x86q\x0fRq\x10."),
    (_MATRIX @ _MATRIX, "SpinMatrix2(GaussScalar(1/2, 0), GaussScalar(-2, 2), "
     "GaussScalar(-3/4, 3/4), GaussScalar(5/2, 0))",
     "[[1/2+0i, -2+2i], [-3/4+3/4i, 5/2+0i]]",
     b"\x80\x02ctrispinor.spinors\nSpinMatrix2\nq\x00(ctrispinor.gauss\nGaussScalar\nq\x01"
     b"cfractions\nFraction\nq\x02K\x01K\x02\x86q\x03Rq\x04h\x02K\x00K\x01\x86q\x05Rq\x06"
     b"\x86q\x07Rq\x08h\x01J\xfe\xff\xff\xffK\x02\x86q\tRq\nh\x01h\x02J\xfd\xff\xff\xffK\x04"
     b"\x86q\x0bRq\x0ch\x02K\x03K\x04\x86q\rRq\x0e\x86q\x0fRq\x10h\x01h\x02K\x05K\x02\x86q\x11"
     b"Rq\x12h\x02K\x00K\x01\x86q\x13Rq\x14\x86q\x15Rq\x16tq\x17Rq\x18."),
]


@pytest.mark.parametrize("value, text, printed, pickled", PINNED,
                         ids=["Spinor", "SpinMatrix2", "matrix@spinor", "matrix@matrix"])
def test_repr_str_and_pickle_are_pinned(value, text, printed, pickled):
    assert repr(value) == text and str(value) == printed
    # The recorded pickle loads on every supported Python (Fraction pickles
    # differently across versions, so the bytes of a new dump are not compared).
    for again in (pickle.loads(pickled), pickle.loads(pickle.dumps(value))):
        assert type(again) is type(value) and again == value
        assert repr(again) == text and str(again) == printed
