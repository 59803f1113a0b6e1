import random
from fractions import Fraction

from hypothesis import given, strategies as st

from trispinor import (
    C,
    GaussScalar,
    Quaternion,
    SeqParams,
    SpinMatrix2,
    Spinor,
    breve,
    cartan_conjugate,
    complex_conjugate,
    mate,
    preset,
    qconj,
    qmul,
    qnorm,
    seq_slice,
    sigma,
    sigma_inv,
    spinor_dot,
    spinor_norm,
    trib_quaternion,
    trib_spinor,
)

TRIB = preset("tribonacci")
I = GaussScalar(0, 1)

fractions = st.fractions(min_value=-10, max_value=10, max_denominator=8)
gauss = st.builds(GaussScalar, fractions, fractions)
spinors = st.builds(Spinor, gauss, gauss)
quaternions = st.builds(Quaternion, fractions, fractions, fractions, fractions)


# ---------------------------------------------------------------- scalars

def test_gauss_arithmetic():
    a = GaussScalar(1, 2)
    b = GaussScalar(Fraction(3, 2), -1)
    assert a + b == GaussScalar(Fraction(5, 2), 1)
    # A rational on the left, and sum's start 0, lift to a GaussScalar.
    assert 1 + GaussScalar(2, 3) == GaussScalar(3, 3)
    assert sum([GaussScalar(1, 1), GaussScalar(2)]) == GaussScalar(3, 1)
    assert a * b == GaussScalar(Fraction(7, 2), 2)
    assert a - a == 0
    assert a.conjugate().conjugate() == a
    assert str(GaussScalar(-5, -1)) == "-5-1i"
    assert str(GaussScalar(2)) == "2+0i"


def test_gauss_mixed_equality():
    assert GaussScalar(6) == 6
    assert GaussScalar(6) == Fraction(6)
    assert GaussScalar(6, 1) != 6


# ---------------------------------------------------------------- sigma map

def test_sigma_values():
    assert sigma(Quaternion(1, 2, 3, 4)) == Spinor(GaussScalar(4, 1), GaussScalar(2, 3))
    assert sigma(Quaternion(0, 0, 0, 0)) == Spinor(GaussScalar(0), GaussScalar(0))
    assert sigma(qconj(Quaternion(1, 2, 3, 4))) == Spinor(
        GaussScalar(-4, 1), GaussScalar(-2, -3))


def test_sigma_inverse():
    assert sigma_inv(Spinor(GaussScalar(4, 1), GaussScalar(2, 3))) == Quaternion(1, 2, 3, 4)
    assert sigma_inv(Spinor(GaussScalar(0), GaussScalar(0))) == Quaternion(0, 0, 0, 0)


@given(q=quaternions)
def test_sigma_round_trip(q):
    assert sigma_inv(sigma(q)) == q


@given(p=quaternions, q=quaternions, a=fractions, b=fractions)
def test_sigma_linear(p, q, a, b):
    assert sigma(a * p + b * q) == a * sigma(p) + b * sigma(q)


@given(q=quaternions)
def test_sigma_injective(q):
    zero = Spinor(GaussScalar(0), GaussScalar(0))
    if q != Quaternion(0, 0, 0, 0):
        assert sigma(q) != zero


# ---------------------------------------------------------------- conjugations

def test_conjugation_values():
    s = Spinor(GaussScalar(4, 1), GaussScalar(2, 3))
    assert complex_conjugate(s) == Spinor(GaussScalar(4, -1), GaussScalar(2, -3))
    real = Spinor(GaussScalar(3), GaussScalar(-5))
    assert complex_conjugate(real) == real
    e = Spinor(GaussScalar(1), GaussScalar(0))
    assert cartan_conjugate(e) == Spinor(GaussScalar(0), GaussScalar(0, -1))
    assert mate(e) == Spinor(GaussScalar(0), GaussScalar(1))
    zero = Spinor(GaussScalar(0), GaussScalar(0))
    assert cartan_conjugate(zero) == zero
    assert mate(zero) == zero


@given(s=spinors)
def test_complex_conjugate_involution(s):
    assert complex_conjugate(complex_conjugate(s)) == s


def test_conjugations_of_term_windows():
    rng = random.Random(7)
    for _ in range(4):
        p = SeqParams(*(rng.randint(-5, 5) for _ in range(6)))
        v = seq_slice(p, 0, 30)
        for n in range(20):
            a = trib_spinor(p, n)
            assert cartan_conjugate(a) == Spinor(
                GaussScalar(v[n + 2], v[n + 1]), GaussScalar(-v[n], -v[n + 3]))
            assert mate(a) == Spinor(
                GaussScalar(-v[n + 1], v[n + 2]), GaussScalar(v[n + 3], -v[n]))
            assert sigma(qconj(trib_quaternion(p, n))) == Spinor(
                GaussScalar(-v[n + 3], v[n]), GaussScalar(-v[n + 1], -v[n + 2]))


@given(s=spinors)
def test_conjugation_interlock(s):
    # These hold for every spinor, not only the recurrence windows.
    assert C @ mate(s) == complex_conjugate(s)
    assert I * cartan_conjugate(s) == mate(s)
    assert I * (C @ cartan_conjugate(s)) == complex_conjugate(s)


@given(s=spinors)
def test_conjugations_equal_their_composed_forms(s):
    # mate and cartan_conjugate are read off the components; their forms
    # through C and the complex conjugate are pinned here as data.
    assert mate(s) == -(C @ complex_conjugate(s))
    assert cartan_conjugate(s) == I * (C @ complex_conjugate(s))


# ---------------------------------------------------------------- breve matrices

def test_breve_values():
    assert breve(Quaternion(0, 1, 0, 0)) == SpinMatrix2(
        GaussScalar(0), GaussScalar(1), GaussScalar(1), GaussScalar(0))
    assert breve(Quaternion(0, 0, 0, 1)) == SpinMatrix2(
        GaussScalar(1), GaussScalar(0), GaussScalar(0), GaussScalar(-1))
    assert breve(Quaternion(1, 0, 0, 0)) == SpinMatrix2(
        GaussScalar(0, 1), GaussScalar(0), GaussScalar(0), GaussScalar(0, 1))


@given(q=quaternions)
def test_breve_first_column_is_sigma(q):
    m = breve(q)
    s = sigma(q)
    assert (m.a11, m.a21) == (s.c1, s.c2)


def test_product_correspondence_random_pairs():
    rng = random.Random(42)
    minus_i = GaussScalar(0, -1)
    for _ in range(300):
        p = Quaternion(*(Fraction(rng.randint(-9, 9)) for _ in range(4)))
        q = Quaternion(*(Fraction(rng.randint(-9, 9)) for _ in range(4)))
        assert sigma(qmul(p, q)) == minus_i * (breve(p) @ sigma(q))
        assert breve(qmul(p, q)) == minus_i * (breve(p) @ breve(q))


def test_triple_product_basis_case():
    e1 = Quaternion(0, 1, 0, 0)
    lhs = sigma(qmul(qmul(e1, e1), e1))
    rhs = -(breve(e1) @ breve(e1) @ sigma(e1))
    assert lhs == rhs == Spinor(GaussScalar(0), GaussScalar(-1))


rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
rational_quaternions = st.builds(Quaternion, rationals, rationals, rationals, rationals)


@given(a=rational_quaternions, b=rational_quaternions, c=rational_quaternions)
def test_triple_product_on_rational_triples(a, b, c):
    assert sigma(qmul(qmul(a, b), c)) == -(breve(a) @ breve(b) @ sigma(c))


small_rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
small_gauss = st.builds(GaussScalar, small_rationals, small_rationals)
general_spinors = st.builds(Spinor, small_gauss, small_gauss)
general_matrices = st.builds(SpinMatrix2, small_gauss, small_gauss, small_gauss, small_gauss)


@given(m=general_matrices, m2=general_matrices, s=general_spinors, s2=general_spinors,
       k=st.integers(-9, 9), f=small_rationals, z=small_gauss)
def test_spinor_and_matrix_operations_match_gauss_scalar_arithmetic(m, m2, s, s2, k, f, z):
    # General Gaussian-rational entries, not quaternion images: each result
    # against the same expression in GaussScalar arithmetic on the public fields.
    (a11, a12), (a21, a22) = (m.a11, m.a12), (m.a21, m.a22)
    (b11, b12), (b21, b22) = (m2.a11, m2.a12), (m2.a21, m2.a22)
    cases = [
        (m @ s, Spinor(a11 * s.c1 + a12 * s.c2, a21 * s.c1 + a22 * s.c2)),
        (m @ m2, SpinMatrix2(a11 * b11 + a12 * b21, a11 * b12 + a12 * b22,
                             a21 * b11 + a22 * b21, a21 * b12 + a22 * b22)),
        (complex_conjugate(s), Spinor(s.c1.conjugate(), s.c2.conjugate())),
        (spinor_dot(s, s2), s.c1 * s2.c1 + s.c2 * s2.c2),
    ]
    for x in (k, f, z):
        cases += [(x * s, Spinor(s.c1 * x, s.c2 * x)), (s * x, Spinor(s.c1 * x, s.c2 * x)),
                  (x * m, SpinMatrix2(a11 * x, a12 * x, a21 * x, a22 * x))]
    for got, want in cases:
        assert type(got) is type(want)
        assert got == want and str(got) == str(want)
    # The two products keep the component types of the GaussScalar formula.
    for got, want in cases[:2]:
        assert [type(x) for x in tuple(got)] == [type(x) for x in tuple(want)]
    # Scaling keeps rat's rule: each rational of the result is an int when integral.
    for got, _ in cases[4:]:
        assert all(type(x) is int or x.denominator > 1 for x in tuple(got))


def test_products_and_images_build_no_gauss_scalar(monkeypatch):
    q = Quaternion(1, Fraction(-2, 3), 0, 4)
    s = Spinor(GaussScalar(Fraction(1, 2), -3), 5)
    m, m2 = breve(q), SpinMatrix2(GaussScalar(0, 1), 2, Fraction(3, 4), -1)
    expected = [m @ s, m @ m2, breve(q), sigma(q)]
    built = []
    make, new = GaussScalar._make.__func__, GaussScalar.__new__
    monkeypatch.setattr(GaussScalar, "_make",
                        classmethod(lambda cls, c: built.append(c) or make(cls, c)))
    monkeypatch.setattr(GaussScalar, "__new__",
                        lambda cls, *a: built.append(a) or new(cls, *a))
    assert [m @ s, m @ m2, breve(q), sigma(q)] == expected
    assert built == []
    # The counter sees two constructors and a product.
    GaussScalar(2) * GaussScalar(0, 1)
    assert len(built) == 3


def test_c_matrix_squares_to_minus_identity():
    minus_id = SpinMatrix2(GaussScalar(-1), GaussScalar(0), GaussScalar(0), GaussScalar(-1))
    assert C @ C == minus_id
    # Antisymmetric: C transposed is -C.
    assert SpinMatrix2(C.a11, C.a21, C.a12, C.a22) == -C


# ---------------------------------------------------------------- norms

def test_spinor_norm_values():
    assert spinor_norm(Spinor(GaussScalar(2), GaussScalar(1, 1))) == 6
    assert spinor_norm(Spinor(GaussScalar(0), GaussScalar(0))) == 0
    assert spinor_norm(Spinor(GaussScalar(1), GaussScalar(0))) == 1


@given(s=spinors)
def test_norm_forms_agree_for_all_spinors(s):
    norm = spinor_norm(s)
    assert norm.im == 0 and norm.re >= 0
    assert -spinor_dot(mate(s), C @ s) == norm
    assert (-I) * spinor_dot(cartan_conjugate(s), C @ s) == norm


def test_window_norms_match_quaternion_norm():
    rng = random.Random(13)
    for _ in range(4):
        p = SeqParams(*(rng.randint(-5, 5) for _ in range(6)))
        v = seq_slice(p, 0, 105)
        for n in range(0, 101, 10):
            expected = v[n] ** 2 + v[n + 1] ** 2 + v[n + 2] ** 2 + v[n + 3] ** 2
            assert qnorm(trib_quaternion(p, n)) == expected
            assert spinor_norm(trib_spinor(p, n)) == expected


# ---------------------------------------------------------------- term windows

def test_trib_spinor_values():
    assert trib_spinor(TRIB, 0) == Spinor(GaussScalar(2, 0), GaussScalar(1, 1))
    assert trib_spinor(TRIB, 1) == Spinor(GaussScalar(4, 1), GaussScalar(1, 2))
    assert trib_spinor(TRIB, 2) == Spinor(GaussScalar(7, 1), GaussScalar(2, 4))


def test_breve_trib_is_breve_of_window():
    for n in (0, 3, 9):
        assert breve(trib_quaternion(TRIB, n)) == breve(Quaternion(*seq_slice(TRIB, n, 4)))


def test_trib_spinor_is_sigma_of_window():
    for n in range(12):
        assert trib_spinor(TRIB, n) == sigma(trib_quaternion(TRIB, n))


def test_breve_trib_small_matrices():
    assert breve(trib_quaternion(TRIB, 0)) == SpinMatrix2(
        GaussScalar(2), GaussScalar(1, -1), GaussScalar(1, 1), GaussScalar(-2))
    assert breve(trib_quaternion(TRIB, 1)) == SpinMatrix2(
        GaussScalar(4, 1), GaussScalar(1, -2), GaussScalar(1, 2), GaussScalar(-4, 1))
    assert breve(trib_quaternion(TRIB, 2)) == SpinMatrix2(
        GaussScalar(7, 1), GaussScalar(2, -4), GaussScalar(2, 4), GaussScalar(-7, 1))


def test_spinor_recurrence_random_params():
    rng = random.Random(3)
    for _ in range(6):
        p = SeqParams(*(rng.randint(-5, 5) for _ in range(6)))
        spins = [trib_spinor(p, n) for n in range(104)]
        for n in range(101):
            assert spins[n + 3] == p.r * spins[n + 2] + p.s * spins[n + 1] + p.t * spins[n]
