import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from trispinor import (
    DegenerateDelta,
    Quaternion,
    SeqParams,
    companion_power,
    preset,
    qconj,
    qmul,
    qnorm,
    quat_partial_sum,
    quat_u_decomposition,
    qv_matrix,
    qv_right_multiply,
    seq_slice,
    summation_correction,
    trib_quaternion,
    trib_spinor,
)
from trispinor.quaternions import k_window, quat_window, sum_window, u_setup
from trispinor.spinors import spinor_window

TRIB = preset("tribonacci")

ONE = Quaternion(1, 0, 0, 0)
E1 = Quaternion(0, 1, 0, 0)
E2 = Quaternion(0, 0, 1, 0)
E3 = Quaternion(0, 0, 0, 1)

fractions = st.fractions(min_value=-10, max_value=10, max_denominator=8)
quaternions = st.builds(Quaternion, fractions, fractions, fractions, fractions)


def test_basis_table():
    assert qmul(E1, E2) == E3
    assert qmul(E2, E1) == -E3
    assert qmul(E2, E3) == E1
    assert qmul(E3, E2) == -E1
    assert qmul(E3, E1) == E2
    assert qmul(E1, E3) == -E2
    for e in (E1, E2, E3):
        assert qmul(e, e) == -ONE


def test_identity_element():
    q = Quaternion(Fraction(1, 2), -3, 4, Fraction(7, 3))
    assert qmul(ONE, q) == q
    assert qmul(q, ONE) == q


def test_noncommutativity_witness():
    assert qmul(E1, E2) == -qmul(E2, E1)
    assert qmul(E1, E2) != Quaternion(0, 0, 0, 0)


def test_conjugate():
    assert qconj(Quaternion(5, 0, 0, 0)) == Quaternion(5, 0, 0, 0)
    assert qconj(E1) == -E1
    assert qconj(Quaternion(1, 2, 3, 4)) == Quaternion(1, -2, -3, -4)


def test_norm():
    assert qnorm(Quaternion(0, 0, 0, 0)) == 0
    assert qnorm(E1) == 1
    assert qnorm(Quaternion(1, 2, 3, 4)) == 30


def test_norm_is_scalar_part_of_q_times_conj():
    q = Quaternion(1, -2, Fraction(3, 2), 4)
    prod = qmul(q, qconj(q))
    assert prod == Quaternion(qnorm(q), 0, 0, 0)


@given(a=quaternions, b=quaternions, c=quaternions)
def test_associativity(a, b, c):
    assert qmul(qmul(a, b), c) == qmul(a, qmul(b, c))


def test_associativity_bulk():
    rng = random.Random(1000)
    for _ in range(1000):
        a, b, c = (
            Quaternion(*(Fraction(rng.randint(-9, 9), rng.choice((1, 2))) for _ in range(4)))
            for _ in range(3)
        )
        assert qmul(qmul(a, b), c) == qmul(a, qmul(b, c))


@given(p=quaternions, q=quaternions)
def test_norm_multiplicative(p, q):
    assert qnorm(qmul(p, q)) == qnorm(p) * qnorm(q)


@given(p=quaternions, q=quaternions)
def test_conjugate_antihomomorphism(p, q):
    assert qconj(qmul(p, q)) == qmul(qconj(q), qconj(p))


def test_trib_quaternion_windows():
    assert trib_quaternion(TRIB, 0) == Quaternion(0, 1, 1, 2)
    assert trib_quaternion(TRIB, 1) == Quaternion(1, 1, 2, 4)
    assert trib_quaternion(TRIB, 2) == Quaternion(1, 2, 4, 7)


def test_quaternion_recurrence():
    rng = random.Random(23)
    for _ in range(8):
        p = SeqParams(*(rng.randint(-5, 5) for _ in range(6)))
        qs = [trib_quaternion(p, n) for n in range(104)]
        for n in range(101):
            assert qs[n + 3] == p.r * qs[n + 2] + p.s * qs[n + 1] + p.t * qs[n]


def test_k_quaternion():
    # K(n) = s*Q(n+1) + t*Q(n), the window matrix's middle column.
    assert k_window(TRIB, seq_slice(TRIB, 0, 5)) == Quaternion(1, 2, 3, 6)
    assert k_window(TRIB, seq_slice(TRIB, 1, 5)) == Quaternion(2, 3, 6, 11)
    flat = SeqParams(2, 0, 0, 1, 1, 1)
    assert k_window(flat, seq_slice(flat, 3, 5)) == Quaternion(0, 0, 0, 0)


def test_qv_matrix_layout():
    qv = qv_matrix(TRIB, 0)
    assert qv[0][0] == trib_quaternion(TRIB, 4)
    assert qv[2][1] == k_window(TRIB, seq_slice(TRIB, 0, 5))
    assert qv[1][2] == TRIB.t * trib_quaternion(TRIB, 2)
    shifted = qv_matrix(TRIB, 1)
    assert shifted[0][0] == trib_quaternion(TRIB, 5)


def test_qv_shift_identity():
    rng = random.Random(31)
    for _ in range(4):
        p = SeqParams(*(rng.randint(-4, 4) for _ in range(6)))
        base = qv_matrix(p, 0)
        for n in (0, 1, 2, 5, 11):
            assert qv_right_multiply(base, companion_power(p, n)) == qv_matrix(p, n)


def test_u_decomposition_examples():
    assert quat_u_decomposition(TRIB, 0) == Quaternion(1, 2, 4, 7)
    assert quat_u_decomposition(TRIB, 1) == Quaternion(2, 4, 7, 13)
    aux_seeded = SeqParams(1, 1, 1, 0, 0, 1)
    u = seq_slice(aux_seeded, 5, 4)
    assert quat_u_decomposition(aux_seeded, 3) == Quaternion(*u)


def test_u_decomposition_matches_window():
    rng = random.Random(37)
    for _ in range(6):
        p = SeqParams(*(rng.randint(-5, 5) for _ in range(6)))
        for n in range(0, 101, 9):
            assert quat_u_decomposition(p, n) == trib_quaternion(p, n + 2)


def test_summation_correction_tribonacci():
    corr = summation_correction(TRIB)
    assert corr.delta == 2
    assert corr.lambda_ == -1
    assert corr.omega == Quaternion(-1, -1, -3, -5)


def test_summation_correction_zero_seeds():
    corr = summation_correction(SeqParams(1, 1, 1, 0, 0, 0))
    assert corr.lambda_ == 0
    assert corr.omega == Quaternion(0, 0, 0, 0)


def test_summation_correction_degenerate_delta_params():
    p = SeqParams(1, 0, 0, 1, 0, 0)
    corr = summation_correction(p)
    assert corr.delta == 0
    assert corr.lambda_ == (p.r + p.s - 1) * p.v0 + (p.r - 1) * p.v1 - p.v2


def test_partial_sum_examples():
    assert quat_partial_sum(TRIB, 0) == Quaternion(0, 1, 1, 2)
    assert quat_partial_sum(TRIB, 2) == Quaternion(2, 4, 7, 13)


@pytest.mark.parametrize("op", [
    trib_quaternion,
    pytest.param(lambda p, n: k_window(p, seq_slice(p, n, 5)), id="k_quaternion"),
    qv_matrix, quat_u_decomposition, quat_partial_sum, trib_spinor])
def test_negative_index_raises(op):
    # seq_slice is the one start-index check behind every window op.
    with pytest.raises(ValueError, match="nonnegative"):
        op(TRIB, -1)


def test_partial_sum_degenerate_delta():
    with pytest.raises(DegenerateDelta):
        quat_partial_sum(SeqParams(1, 1, -1, 0, 1, 1), 4)


def test_partial_sum_matches_direct_sum():
    rng = random.Random(41)
    checked = 0
    while checked < 6:
        p = SeqParams(*(rng.randint(-5, 5) for _ in range(6)))
        if p.r + p.s + p.t - 1 == 0:
            continue
        checked += 1
        total = Quaternion(0, 0, 0, 0)
        for n in range(201):
            total = total + trib_quaternion(p, n)
            if n % 17 == 0 or n == 200:
                assert quat_partial_sum(p, n) == total


@pytest.mark.parametrize("p", [TRIB, SeqParams(-3, 2, 5, 1, -4, 2),
                               SeqParams(Fraction(4, 3), Fraction(5, 4), 5, Fraction(3, 2),
                                         Fraction(-3, 4), Fraction(1, 4)),
                               SeqParams(Fraction(1, 2), Fraction(1, 2), 1, 2, 0, 1),
                               SeqParams(1, 1, Fraction(1, 2), 2, 4, 6)])
def test_k_window_is_the_scaled_window_sum(p):
    # Scaling and k_window keep rat's rule; a sum of two scaled windows may not.
    v = seq_slice(p, 0, 30)
    for n in range(26):
        scaled = p.s * quat_window(v, n + 1), p.t * quat_window(v, n)
        got = k_window(p, v, n)
        assert got == scaled[0] + scaled[1]
        assert all(_is_exact_term(x) for q in (got, *scaled) for x in tuple(q))
    assert k_window(p, [Fraction(x) for x in v]) == k_window(p, v)


def _is_exact_term(x):
    """An int, or a Fraction in lowest terms that is not integral."""
    return type(x) is int or (type(x) is Fraction and x.denominator > 1
                              and gcd(x.numerator, x.denominator) == 1)


WINDOW_SETS = [
    TRIB,
    SeqParams(-3, 2, 5, 1, -4, 2),
    SeqParams(Fraction(1, 2), Fraction(1, 2), 1, 2, 0, 1),
    # A denominator with a prime factor above 1024: the Fraction loop.
    SeqParams(Fraction(1, 1031), 1, 1, 0, Fraction(2, 3), 1),
]


@pytest.mark.parametrize("p", WINDOW_SETS)
@pytest.mark.parametrize("n0", [0, 7])
def test_windows_keep_the_terms_and_their_types(p, n0):
    """Read off seq_slice, the window quaternion and spinor hold the terms
    themselves, each an int or a non-integral Fraction in lowest terms; the
    components of k_window are s*V(m+1) + t*V(m), by the same rule."""
    v = seq_slice(p, n0, 14)
    assert all(map(_is_exact_term, v))
    for n in range(10):
        q, s, k = quat_window(v, n), spinor_window(v, n), k_window(p, v, n)
        assert list(tuple(q)) == v[n:n + 4]
        assert [type(x) for x in tuple(q)] == [type(x) for x in v[n:n + 4]]
        assert list(tuple(s)) == [v[n + 3], v[n], v[n + 1], v[n + 2]]
        assert [type(x) for x in tuple(s)] == [type(v[n + i]) for i in (3, 0, 1, 2)]
        want = [p.s * v[m + 1] + p.t * v[m] for m in range(n, n + 4)]
        assert list(tuple(k)) == want
        assert all(map(_is_exact_term, tuple(k)))
    # 1/2 * V(1) + 1 * V(0) = 1/2 * 0 + 2 on these parameters: the int 2.
    half = SeqParams(Fraction(1, 2), Fraction(1, 2), 1, 2, 0, 1)
    k = k_window(half, seq_slice(half, 0, 5))
    assert tuple(k) == (2, Fraction(1, 2), Fraction(9, 4), Fraction(27, 8))
    assert type(k.q0) is int


@pytest.mark.parametrize("n", [4, 5, 7])
def test_window_readers_refuse_a_list_that_ends_before_their_last_term(n):
    """The window readers read each term by its index: a list that ends before
    v[n+3] raises IndexError, never gives a window of fewer components, which
    would equal any other window cut short alike."""
    v = [1, 2, 3, 4, 5, 6, 7]
    assert quat_window(v, 3) == Quaternion(4, 5, 6, 7)
    with pytest.raises(IndexError):
        quat_window(v, n)
    with pytest.raises(IndexError):
        spinor_window(v, n)


@pytest.mark.parametrize("p", WINDOW_SETS + [SeqParams(Fraction(5, 2), 1, Fraction(-1, 2), -4,
                                                        Fraction(3, 2), 0)])
def test_summed_windows_keep_rats_rule(p):
    """sum_window and quat_u_decomposition, on its set-up or its own, sum
    component by component and coerce each sum by rat, as k_window does: a sum
    that is integral is an int, and so is each product of the set-up. On the
    last set quat_u_decomposition(p, 1) sums Fractions to integral values."""
    v = seq_slice(p, 0, 16)
    setup = u_setup(p)
    _, rows = setup
    assert all(_is_exact_term(x) for row in rows for x in row)
    for n in range(10):
        total = sum_window(p, v, n)
        assert total == (quat_window(v, n + 2) + (1 - p.r) * quat_window(v, n + 1)
                         + p.t * quat_window(v, n))
        assert quat_u_decomposition(p, n, setup) == quat_window(v, n + 2)
        for q in (total, quat_u_decomposition(p, n, setup), quat_u_decomposition(p, n)):
            assert all(map(_is_exact_term, tuple(q))), (n, tuple(q))


def test_partial_sum_components_are_exact_terms():
    """quat_partial_sum keeps rat's rule: int components when integral, and it
    equals the running sum of the window quaternions."""
    rational = SeqParams(Fraction(4, 3), Fraction(5, 4), 5, Fraction(3, 2),
                         Fraction(-3, 4), Fraction(1, 4))
    for p in (TRIB, rational):
        total = Quaternion(0, 0, 0, 0)
        for n in range(11):
            total = total + trib_quaternion(p, n)
            got = quat_partial_sum(p, n)
            assert got == total
            assert all(map(_is_exact_term, tuple(got))), (p, n, tuple(got))
            if p == TRIB:
                assert all(type(x) is int for x in tuple(got))
