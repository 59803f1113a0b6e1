import random
import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, strategies as st

from trispinor import (
    SeqParams,
    UnknownPreset,
    companion_matrix,
    companion_power,
    preset,
    seq_slice,
    seq_term,
    trib_spinor,
)
from trispinor import sequences
from trispinor.spinors import spinor_window

TRIB = preset("tribonacci")
JAC = preset("third_order_jacobsthal")

fractions = st.fractions(min_value=-10, max_value=10, max_denominator=8)


def test_presets():
    assert TRIB == SeqParams(1, 1, 1, 0, 1, 1)
    assert JAC == SeqParams(1, 1, 2, 0, 1, 1)
    with pytest.raises(UnknownPreset):
        preset("fibonacci")


def test_tribonacci_terms():
    assert seq_term(TRIB, 0) == 0
    assert seq_term(TRIB, 5) == 7
    assert seq_slice(TRIB, 0, 8) == [0, 1, 1, 2, 4, 7, 13, 24]


def test_jacobsthal_terms():
    # 0, 1, 1, 2, 5, 9, 18, ...
    assert seq_term(JAC, 5) == 9
    assert seq_slice(JAC, 0, 7) == [0, 1, 1, 2, 5, 9, 18]


def test_slices():
    assert seq_slice(TRIB, 0, 3) == [0, 1, 1]
    assert seq_slice(TRIB, 3, 3) == [2, 4, 7]
    assert seq_slice(TRIB, 10, 0) == []
    with pytest.raises(ValueError):
        seq_slice(TRIB, -1, 3)
    with pytest.raises(ValueError):
        seq_term(TRIB, -1)


@pytest.mark.parametrize("call, message", [
    (lambda: seq_slice(TRIB, 0, -1), "length must be nonnegative"),
    (lambda: companion_power(TRIB, -1), "exponent must be nonnegative"),
])
def test_negative_length_and_exponent_raise(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_aux_terms():
    assert seq_term(SeqParams(1, 1, 1, 0, 0, 1), 2) == 1
    assert seq_term(SeqParams(1, 1, 1, 0, 0, 1), 4) == 2
    assert seq_term(SeqParams(1, 1, 1, 0, 0, 1), 6) == 7


def test_aux_matches_seeded_sequence():
    rng = random.Random(11)
    for _ in range(5):
        p = SeqParams(*(rng.randint(-5, 5) for _ in range(3)), 0, 0, 1)
        expected = seq_slice(p, 0, 101)
        assert [seq_term(SeqParams(p.r, p.s, p.t, 0, 0, 1), n) for n in range(0, 101, 10)] == expected[::10]


def test_recurrence_exact():
    rng = random.Random(5)
    for _ in range(10):
        p = SeqParams(*(Fraction(rng.randint(-5, 5)) for _ in range(6)))
        v = seq_slice(p, 0, 201)
        for n in range(3, 201):
            assert v[n] == p.r * v[n - 1] + p.s * v[n - 2] + p.t * v[n - 3]


def test_companion_matrix_shape():
    m = companion_matrix(TRIB)
    assert m == ((1, 1, 1), (1, 0, 0), (0, 1, 0))


def test_companion_power_small():
    assert companion_power(TRIB, 0) == (
        (1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert companion_power(TRIB, 1) == companion_matrix(TRIB)
    assert companion_power(TRIB, 2) == (
        (2, 2, 1), (1, 1, 1), (1, 0, 0))


def test_companion_power_tracks_terms():
    # First row of M^n dotted with (V2, V1, V0) gives V(n+2).
    rng = random.Random(17)
    for i in range(5):
        p = SeqParams(*(rng.randint(-5, 5) for _ in range(6)))
        v = seq_slice(p, 0, 203)
        step = 1 if i == 0 else 7
        for n in range(0, 201, step):
            row = companion_power(p, n)[0]
            assert row[0] * p.v2 + row[1] * p.v1 + row[2] * p.v0 == v[n + 2]


@given(a=fractions, b=fractions, n=st.integers(min_value=0, max_value=50))
def test_linearity_in_seeds(a, b, n):
    rng = random.Random(99)
    r, s, t = (Fraction(rng.randint(-5, 5)) for _ in range(3))
    w = SeqParams(r, s, t, 1, 2, -1)
    x = SeqParams(r, s, t, 3, 0, 5)
    mixed = SeqParams(
        r, s, t,
        a * w.v0 + b * x.v0, a * w.v1 + b * x.v1, a * w.v2 + b * x.v2,
    )
    assert seq_term(mixed, n) == a * seq_term(w, n) + b * seq_term(x, n)


def test_fractional_coefficients_stay_exact():
    p = SeqParams(Fraction(1, 2), Fraction(-3, 4), Fraction(2, 3), 1, 0, 1)
    v = seq_slice(p, 0, 40)
    for n in range(3, 40):
        assert v[n] == p.r * v[n - 1] + p.s * v[n - 2] + p.t * v[n - 3]


integer_or_rational = st.one_of(
    st.integers(min_value=-5, max_value=5),
    st.builds(Fraction, st.integers(min_value=-5, max_value=5),
              st.integers(min_value=1, max_value=4)),
)


@given(values=st.lists(integer_or_rational, min_size=6, max_size=6),
       n0=st.integers(min_value=0, max_value=300), length=st.integers(min_value=0, max_value=8))
def test_jump_agrees_with_forward_iteration(values, n0, length):
    """A slice or term that starts past 0 jumps there by the companion power;
    it equals the same terms read off the pass from V(0)."""
    p = SeqParams(*values)
    forward = seq_slice(p, 0, n0 + length + 4)
    assert seq_slice(p, n0, length) == forward[n0:n0 + length]
    assert seq_term(p, n0) == forward[n0]
    assert trib_spinor(p, n0) == spinor_window(forward, n0)


def test_terms_are_exact_rationals():
    """An integer set has int terms; a rational set has int or Fraction
    terms; no term is ever a float, from 0 or after a jump."""
    p = SeqParams(2, -1, 3, 1, -2, 5)
    assert all(type(x) is int for x in seq_slice(p, 0, 50) + seq_slice(p, 40, 10))
    assert type(seq_term(p, 1000)) is int
    q = SeqParams(Fraction(1, 2), 0.25, 3, 1, Fraction(-1, 2), 2)
    assert all(type(x) in (int, Fraction) for x in seq_slice(q, 0, 50) + seq_slice(q, 40, 10))


# A 100-bit prime: no trial division would find it, and the term path does none.
LARGE_PRIME = 10**30 + 57


def oracle_terms(values, count):
    """V(0) .. V(count-1) by the plain Fraction recurrence."""
    r, s, t, *v = map(Fraction, values)
    while len(v) < count:
        v.append(r * v[-1] + s * v[-2] + t * v[-3])
    return v[:count]


def assert_normalized(values):
    for x in values:
        if type(x) is Fraction:
            num, den = x.numerator, x.denominator
            assert gcd(num, den) == 1 and den > 1
            assert hash(x) == hash(Fraction(num, den)) and str(x) == str(Fraction(num, den))


small_denominator = st.builds(Fraction, st.integers(min_value=-9, max_value=9),
                              st.integers(min_value=1, max_value=30))
LARGE_PRIME_SET = (Fraction(1, LARGE_PRIME), Fraction(-2, 3), Fraction(1, 2),
                   1, Fraction(5, LARGE_PRIME), Fraction(1, 4))


@st.composite
def rational_sets(draw):
    r, s, t, *seeds = draw(st.lists(small_denominator, min_size=6, max_size=6))
    if draw(st.booleans()):
        t = 0
    if draw(st.booleans()):
        seeds = [0, 0, 0]
    return (r, s, t, *seeds)


@example(values=LARGE_PRIME_SET, n=40, n0=30, length=5)
@given(values=rational_sets(), n=st.integers(min_value=0, max_value=80),
       n0=st.integers(min_value=0, max_value=80), length=st.integers(min_value=0, max_value=8))
def test_rational_terms_match_the_fraction_recurrence(values, n, n0, length):
    """Slices from 0 and past 0 and single terms equal the plain recurrence,
    and every Fraction among them is in lowest terms."""
    p = SeqParams(*values)
    want = oracle_terms(values, max(n, n0 + length) + 1)
    got = [seq_slice(p, 0, n), seq_slice(p, n0, length), [seq_term(p, n)]]
    assert got == [want[:n], want[n0:n0 + length], [want[n]]]
    for terms in got:
        assert_normalized(terms)


def test_a_large_prime_denominator_is_a_base_element_like_any_other():
    """A denominator with no small prime factor needs no factoring: its
    terms are exact, quickly."""
    start = time.perf_counter()
    assert seq_slice(SeqParams(*LARGE_PRIME_SET), 0, 60) == oracle_terms(LARGE_PRIME_SET, 60)
    assert time.perf_counter() - start < 0.5


def test_a_large_prime_set_reaches_a_thousand_terms_in_time():
    p = SeqParams(*LARGE_PRIME_SET)
    start = time.perf_counter()
    forward = seq_slice(p, 0, 1000)
    assert time.perf_counter() - start < 2
    # Fractions in lowest terms are equal only if their fields are.
    assert forward[-3:] == seq_slice(p, 997, 3)


def test_a_large_prime_set_jumps_to_term_ten_thousand_in_time():
    p = SeqParams(*LARGE_PRIME_SET)
    start = time.perf_counter()
    term = seq_term(p, 10000)
    assert time.perf_counter() - start < 1
    assert type(term) is Fraction


def test_a_zero_term_costs_no_reduction_of_its_scale():
    """r = s = 0 makes every term at n not 2 mod 3 zero, while the scale
    reaches 3^(470*n/3): a zero term is the int 0 without dividing the scale."""
    values = (0, 0, Fraction(1, 3**470), 0, 0, 1)
    start = time.perf_counter()
    got = seq_slice(SeqParams(*values), 0, 520)
    assert time.perf_counter() - start < 1
    want = oracle_terms(values, 520)
    assert got == want
    assert [type(x) for x in got] == [int if x.denominator == 1 else Fraction for x in want]


# Denominators whose prime factors are shared in part, up to the 4,300-digit
# 1031^1427, which has no prime factor at or below 1024. It is drawn for the
# seeds only: as a denominator of r, s or t it would make the Fraction
# recurrence, the oracle, take minutes.
SHARED_DENOMINATORS = [6, 12, 36, 30, 2 * 1031, 1031 * 1033, (10**12 + 39) * (10**9 + 7)]
SEED_DENOMINATORS = SHARED_DENOMINATORS + [1031**1427]


# Six denominators 6: V(3) = 3/36 = 1/12 shares only 3 with 6. A term is
# divided by its gcd with the scale, so the base {6} is never split.
SIXES_SET = (Fraction(1, 6),) * 6


def shared_denominator_sets(count, seed):
    rng = random.Random(seed)
    yield SIXES_SET
    for _ in range(count):
        yield tuple(Fraction(rng.randint(-9, 9), rng.choice(SHARED_DENOMINATORS if i < 3
                                                            else SEED_DENOMINATORS))
                    for i in range(6))


def test_terms_over_shared_denominators_match_the_fraction_recurrence():
    """From 0 and after a jump, each term equals the plain recurrence, as an
    int when it is integral."""
    for values in shared_denominator_sets(24, 21):
        p = SeqParams(*values)
        want = oracle_terms(values, 68)
        for n0 in (0, 1, 2, 3, 7, 60):
            got = seq_slice(p, n0, 8)
            assert got == want[n0:n0 + 8], (values, n0)
            assert [type(x) for x in got] == [int if x.denominator == 1 else Fraction
                                              for x in want[n0:n0 + 8]], (values, n0)
            assert_lowest_terms(got)


def test_a_base_element_that_divides_a_term_in_part_is_not_split(monkeypatch):
    """A jump to V(3) = 1/12 reduces it over the base {6} as it is: the base is
    built once, from p's own denominators."""
    received = []
    coprime_base = sequences._coprime_base

    def recording(xs):
        received.append(sorted(xs))
        return coprime_base(xs)

    monkeypatch.setattr(sequences, "_coprime_base", recording)
    p, want = SeqParams(*SIXES_SET), oracle_terms(SIXES_SET, 20)
    jumped = seq_slice(p, 3, 17)
    assert received == [[6] * 6]
    from_zero = seq_slice(p, 0, 20)
    assert jumped == want[3:] and from_zero == want
    assert_lowest_terms(jumped + from_zero)


@given(values=st.lists(st.builds(Fraction, st.integers(min_value=-9, max_value=9),
                                  st.sampled_from([1, 2, 3, 4, 6, 9, 12, LARGE_PRIME])),
                       min_size=6, max_size=6),
       n0=st.sampled_from([*range(14), 60, 61]),
       length=st.integers(min_value=0, max_value=30))
def test_slices_match_the_fraction_recurrence_term_types_included(values, n0, length):
    """After the seeds or a jump, each step's term equals the plain recurrence:
    an int when integral, else a Fraction in lowest terms."""
    want = oracle_terms(values, n0 + length)[n0:]
    got = seq_slice(SeqParams(*values), n0, length)
    assert got == want
    assert [type(x) for x in got] == [int if x.denominator == 1 else Fraction for x in want]
    assert_lowest_terms(got)


# Denominators 2^e, 3^e and 6^e with e up to 12: the base elements of r, s and t
# share primes, and their exponents, and so their slopes, reach far above 1.
prime_power_denominator = st.builds(lambda num, q, e: Fraction(num, q**e),
                                    st.integers(min_value=-9, max_value=9),
                                    st.sampled_from([2, 3, 6]), st.integers(min_value=0, max_value=12))


@given(coefficients=st.lists(prime_power_denominator, min_size=3, max_size=3),
       seeds=st.lists(st.one_of(prime_power_denominator, small_denominator), min_size=3, max_size=3),
       n=st.integers(min_value=0, max_value=80), n0=st.integers(min_value=0, max_value=61),
       length=st.integers(min_value=0, max_value=8))
def test_prime_power_denominators_match_the_fraction_recurrence(coefficients, seeds, n, n0, length):
    """Slices from 0 and past 0 and single terms equal the plain recurrence when
    the coefficients' denominators are high powers of shared primes; every term
    is an int when integral and a Fraction in lowest terms otherwise."""
    values = (*coefficients, *seeds)
    p = SeqParams(*values)
    want = oracle_terms(values, max(n, n0 + length) + 1)
    got = [seq_slice(p, 0, n), seq_slice(p, n0, length), [seq_term(p, n)]]
    assert got == [want[:n], want[n0:n0 + length], [want[n]]]
    for terms in got:
        assert_lowest_terms(terms)


def test_a_large_exponent_is_read_in_few_divisions():
    """The exponent of 3 in 3^9000 takes divisions by 3, 9, 81, ... and back, and
    the coprime base strips every power of a shared factor at once, so a t at
    the CLI's 4,300-digit bound costs milliseconds."""
    exponent = sequences._exponent
    assert [exponent(3, 3**9000), exponent(3, 2 * 3**4097), exponent(6, 5 * 6**13),
            exponent(2, -12), exponent(7, 5)] == [9000, 4097, 13, 2, 0]
    assert sorted(sequences._coprime_base([3, 3**9000, 1, 12, 4, 1])) == [2, 3]
    values = (Fraction(1, 3), 1, Fraction(1, 3**9000), 0, 1, 1)
    start = time.perf_counter()
    got = seq_term(SeqParams(*values), 5)
    assert time.perf_counter() - start < 0.5
    assert got == oracle_terms(values, 6)[5]


# Sets whose scale can run ahead of their denominators. r = 4/3 and s = -1/3 give
# 3 the slope 1: every term of the first set is 1, so only the window divisions
# keep its terms from growing as 3^n; the second set's terms tend to 13/12, as
# 3^-n. On the third, t = 1/3 gives 3 the slope 1/3, and its denominators grow
# as 3^(n/3).
@pytest.mark.parametrize("values", [(Fraction(4, 3), Fraction(-1, 3), 0, 1, 1, 1),
                                    (Fraction(4, 3), Fraction(-1, 3), 0, Fraction(1, 6),
                                     Fraction(5, 6), 1),
                                    (1, 1, Fraction(1, 3), 0, 1, 1)], ids=str)
def test_a_slice_whose_scale_outgrows_its_denominators_stays_linear(values):
    """The window is divided once its three terms share a factor with the
    scale, so that 4,000 terms take milliseconds, not seconds."""
    p = SeqParams(*values)
    start = time.perf_counter()
    forward = seq_slice(p, 0, 4000)
    assert time.perf_counter() - start < 0.5
    assert forward[:60] == oracle_terms(values, 60) and forward[-3:] == seq_slice(p, 3997, 3)
    assert_lowest_terms(forward)


SMOOTH_SET = (Fraction(4, 3), Fraction(5, 4), 5, Fraction(3, 2), Fraction(-3, 4), Fraction(1, 4))
# The denominators grow like 2^(n/3), as the slope 1/3 of t = 1/2 at 2 says.
SLOW_DENOMINATOR_SET = (1, 1, Fraction(1, 2), 0, 1, 1)
# Base elements with a repeated prime (9, 12) and a set whose scale outgrows its
# denominators (every term of the last is 1): each jump divides its window by
# the surplus powers of the base before the first step.
DEEP_SETS = [(1, 1, 1, 0, 1, 1), (3, -2, 5, 1, -4, 2), SMOOTH_SET,
             (Fraction(1, 2), Fraction(-3, 4), 0, Fraction(2, 3), 1, Fraction(-5, 6)),
             SLOW_DENOMINATOR_SET, (1, 1, Fraction(1, 3), 0, 1, 1),
             (1, 1, Fraction(1, 9), 0, 1, 1), (1, 1, Fraction(1, 12), 0, 1, 1),
             (Fraction(4, 3), Fraction(-1, 3), 0, 1, 1, 1)]


def assert_lowest_terms(values):
    """assert_normalized without str, which refuses ints past 4,300 digits."""
    for x in values:
        assert type(x) is int or (type(x) is Fraction and x.denominator > 1
                                  and gcd(x.numerator, x.denominator) == 1
                                  and hash(x) == hash(Fraction(x.numerator, x.denominator)))


def test_a_jump_on_a_smooth_rational_set_continues_on_int(monkeypatch):
    """The jump and the steps after it add and multiply no Fraction."""
    p, want = SeqParams(*SMOOTH_SET), oracle_terms(SMOOTH_SET, 110)[100:]

    def no_fraction_arithmetic(*args):
        raise AssertionError("Fraction arithmetic")

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__"):
        monkeypatch.setattr(Fraction, name, no_fraction_arithmetic)
    assert seq_slice(p, 100, 10) == want


@pytest.mark.parametrize("values, starts", [(v, (1000, 4096)) for v in DEEP_SETS]
                         + [(LARGE_PRIME_SET, (300,))], ids=str)
def test_deep_jumps_match_the_forward_pass(values, starts):
    """Deep terms, spinors and slices read off a jump equal the pass from V(0),
    each term an int when integral and a Fraction in lowest terms otherwise."""
    p = SeqParams(*values)
    forward = seq_slice(p, 0, max(starts) + 6)
    for n0 in starts:
        window = seq_slice(p, n0, 6)
        assert window == forward[n0:n0 + 6]
        assert seq_term(p, n0) == forward[n0]
        assert trib_spinor(p, n0) == spinor_window(forward, n0)
        assert_lowest_terms(window + [seq_term(p, n0)] + list(tuple(trib_spinor(p, n0))))
    assert_lowest_terms(forward)


@pytest.mark.parametrize("values, nmax", [((3, -2, 5, 1, -4, 2), 1000), (SMOOTH_SET, 1000),
                                          (SLOW_DENOMINATOR_SET, 1000), (LARGE_PRIME_SET, 300),
                                          ((2, -3, 0, 1, 0, 2), 1000),
                                          ((Fraction(1, 2), Fraction(-2, 3), 0, 1, 2, 3), 300)],
                         ids=str)
def test_companion_power_is_the_product_of_companion_matrices(values, nmax):
    """All nine entries of companion_power(p, n) equal C*C*...*C built by
    forward 3x3 products, at n <= 64 and at nmax, in lowest terms; with t = 0
    too, where the companion sequence U has no term before U(0)."""
    p = SeqParams(*values)
    step, power = companion_matrix(p), ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    for n in range(nmax + 1):
        if n <= 64 or n == nmax:
            got = companion_power(p, n)
            assert got == power
            assert_lowest_terms([x for row in got for x in row])
        power = tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in zip(*step))
                      for row in power)


@pytest.mark.parametrize("values", [(3, -2, 5, 1, -4, 2), SMOOTH_SET, LARGE_PRIME_SET,
                                    (2, -3, 0, 1, 0, 2)], ids=str)
def test_companion_power_jumps_once(monkeypatch, values):
    """For n >= 2, C^n is read off one slice of the companion sequence U:
    one jump by the power kernel, not one per column."""
    p = SeqParams(*values)
    calls = []
    seq_slice_ = sequences.seq_slice
    monkeypatch.setattr(sequences, "seq_slice", lambda *a: calls.append(a) or seq_slice_(*a))
    for n in (2, 3, 60, 1000):
        calls.clear()
        companion_power(p, n)
        assert len(calls) == 1, n


@pytest.mark.parametrize("values", [SMOOTH_SET, SLOW_DENOMINATOR_SET, LARGE_PRIME_SET,
                                    (1, Fraction(1, 2), 1, Fraction(1, 1031), 0, 1)], ids=str)
def test_a_jump_factors_only_the_sets_own_denominators(monkeypatch, values):
    """A jumped denominator is thousands of bits deep, and its base elements
    are known from p's denominators: the base builder only ever sees those
    and their divisors."""
    p = SeqParams(*values)
    largest = max(x.denominator for x in p)
    factored = []
    coprime_base = sequences._coprime_base

    def recording(xs):
        factored.extend(xs)
        return coprime_base(xs)

    monkeypatch.setattr(sequences, "_coprime_base", recording)
    n = 300 if values is LARGE_PRIME_SET else 1000
    seq_term(p, n), trib_spinor(p, n), seq_slice(p, n, 6), companion_power(p, n)
    assert factored and max(factored) <= largest


@pytest.mark.parametrize("values", [(3, -2, 5, 1, -4, 2), SMOOTH_SET, LARGE_PRIME_SET], ids=str)
def test_the_power_kernel_squares_ints_on_every_set(monkeypatch, values):
    """A rational set is scaled to int coefficients before its jump, also with
    a large prime denominator, so the kernel never squares a Fraction, and an
    integer set builds no base of denominators; the jumped terms equal the
    pass from V(0)."""
    received, factored = [], []
    power_residue, coprime_base = sequences._power_residue, sequences._coprime_base

    def recording_power(p, n):
        received.extend([*p, n])
        return power_residue(p, n)

    def recording_base(xs):
        factored.extend(xs)
        return coprime_base(xs)

    monkeypatch.setattr(sequences, "_power_residue", recording_power)
    monkeypatch.setattr(sequences, "_coprime_base", recording_base)
    p = SeqParams(*values)
    forward = seq_slice(p, 0, 84)
    assert [seq_term(p, 40), *seq_slice(p, 60, 6)] == [forward[40], *forward[60:66]]
    assert trib_spinor(p, 80) == spinor_window(forward, 80)
    assert received and all(type(x) is int for x in received)
    assert bool(factored) is (Fraction in map(type, p))


@pytest.mark.parametrize("values, bits", [((1, 1, Fraction(1, 9), 0, 1, 1), 8000),
                                          ((1, 1, Fraction(1, 12), 0, 1, 1), 8500)], ids=str)
def test_a_jump_squares_on_the_newton_polygon_scale(monkeypatch, values, bits):
    """A jump's window is scaled as the steps scale it, by q^(k*n) for the slope
    k of each base element q: t = 1/9 and t = 1/12 grow the scale by 9^(1/3) and
    12^(1/3) a step. A whole 9 or 12 a step would give the residue the kernel
    returns at n = 4096 about twice the bits: 15,930 and 17,604."""
    residues = []
    power_residue = sequences._power_residue

    def recording_power(p, n):
        residues.append(power_residue(p, n))
        return residues[-1]

    monkeypatch.setattr(sequences, "_power_residue", recording_power)
    trib_spinor(SeqParams(*values), 4096)
    assert residues and max(x.bit_length() for x in residues[-1]) < bits
