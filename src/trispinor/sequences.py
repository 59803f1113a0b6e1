"""Third-order linear recurrences V(n) = r*V(n-1) + s*V(n-2) + t*V(n-3) over exact rationals."""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import prod
from typing import Iterator, NamedTuple

from .gauss import Rational, rat

Matrix3 = tuple[
    tuple[Rational, Rational, Rational],
    tuple[Rational, Rational, Rational],
    tuple[Rational, Rational, Rational],
]


# Largest prime factor of a denominator for which a rational set runs on int;
# above it the Fraction loop runs.
_TRIAL_BOUND = 1 << 10


class UnknownPreset(ValueError):
    """Raised for preset names this library does not define."""


_SeqFields = NamedTuple("_SeqFields", [(f, Rational) for f in ("r", "s", "t", "v0", "v1", "v2")])


class SeqParams(_SeqFields):
    """Recurrence coefficients (r, s, t) and seed values (v0, v1, v2), each coerced
    by rat on every route: the constructor, _make, _replace, pickle and copy."""

    __slots__ = ()

    def __new__(cls, r, s, t, v0, v1, v2) -> SeqParams:
        return super().__new__(cls, *map(rat, (r, s, t, v0, v1, v2)))

    @classmethod
    def _make(cls, iterable) -> SeqParams:
        return cls(*iterable)

    def __str__(self) -> str:
        return "(r={}, s={}, t={}; v0={}, v1={}, v2={})".format(*self)


TRIBONACCI = SeqParams(1, 1, 1, 0, 1, 1)
THIRD_ORDER_JACOBSTHAL = SeqParams(1, 1, 2, 0, 1, 1)

_PRESETS = {
    "tribonacci": TRIBONACCI,
    "third_order_jacobsthal": THIRD_ORDER_JACOBSTHAL,
}


def preset(name: str) -> SeqParams:
    """Look up a named parameter set; raises UnknownPreset otherwise."""
    try:
        return _PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(_PRESETS))
        raise UnknownPreset(f"unknown preset {name!r} (known: {known})") from None


def _iter_terms(p: SeqParams, n0: int = 0) -> Iterator[Rational]:
    """Terms from V(n0) on, each an int when integral and a Fraction in lowest
    terms otherwise. A start past 0 jumps there by the companion power applied
    to the seed window; from 0 the terms are iterated only."""
    a, b, c = p.v0, p.v1, p.v2
    rational = Fraction in map(type, (p.r, p.s, p.t, a, b, c))
    if n0:
        c, b, a = (rat(x * p.v2 + y * p.v1 + z * p.v0) for x, y, z in companion_power(p, n0))
    elif rational:
        factors = [_small_factors(x.denominator) for x in (p.t, p.s, p.r, a, b, c)]
        if None not in factors:
            return _factored_terms(p, factors)
    return map(rat, _direct_terms(p, a, b, c)) if rational else _direct_terms(p, a, b, c)


def _direct_terms(p: SeqParams, a: Rational, b: Rational, c: Rational) -> Iterator[Rational]:
    while True:
        yield a
        a, b, c = b, c, p.r * c + p.s * b + p.t * a


def _small_factors(d: int) -> dict[int, int] | None:
    """The prime factors of d and their exponents, or None if one of them
    exceeds _TRIAL_BOUND: trial division stops at the first divisor past it."""
    factors, q = {}, 2
    while d > 1:
        if q * q > d:
            q = d
        if q > _TRIAL_BOUND:
            return None
        while d % q == 0:
            factors[q] = factors.get(q, 0) + 1
            d //= q
        q += 1
    return factors


def _factored_terms(p: SeqParams, factors: list[dict[int, int]]) -> Iterator[Rational]:
    """The terms from V(0) of a set whose denominators, those of t, s, r, V0,
    V1 and V2 in factors, have small prime factors only. A term is an int over
    prime powers: the next one is summed over the largest power of each prime
    among its three products, and each prime is divided out while it divides
    the sum, so that the term is in lowest terms without a gcd."""
    primes = sorted(set().union(*factors))
    modulus = prod(primes)
    # Per prime: the exponents of t, s and r, and of the window, oldest first.
    coef_exps = [[f.get(q, 0) for f in factors[:3]] for q in primes]
    exps = [[f.get(q, 0) for f in factors[3:]] for q in primes]
    kt, ks, kr = (x.numerator for x in (p.t, p.s, p.r))
    a, b, c = (x.numerator for x in (p.v0, p.v1, p.v2))
    den = p.v2.denominator
    yield from (p.v0, p.v1, p.v2)
    while True:
        mt, ms, mr, tops = kt, ks, kr, []
        for q, (et, es, er), (ea, eb, ec) in zip(primes, coef_exps, exps):
            xa, xb, xc = et + ea, es + eb, er + ec
            top = max(xa, xb, xc)
            mt, ms, mr = mt * q ** (top - xa), ms * q ** (top - xb), mr * q ** (top - xc)
            tops.append(top)
        w = mt * a + ms * b + mr * c
        rest = w % modulus
        for i, q in enumerate(primes):
            while tops[i] and rest % q == 0:
                w //= q
                tops[i] -= 1
                rest = w % modulus
        for q, top, e in zip(primes, tops, exps):
            den = den * q ** (top - e[2]) if top >= e[2] else den // q ** (e[2] - top)
            e[:] = e[1], e[2], top
        a, b, c = b, c, w
        if den == 1:
            yield w
        else:  # w and den are coprime: build the Fraction without its gcd
            x = object.__new__(Fraction)
            x._numerator, x._denominator = w, den
            yield x


def seq_term(p: SeqParams, n: int) -> Rational:
    """n-th term of the recurrence, exact, in O(log n) matrix products."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    return next(_iter_terms(p, n))


def seq_slice(p: SeqParams, n0: int, length: int) -> list[Rational]:
    """Terms n0 .. n0+length-1 in one forward pass, after a jump to n0 by the
    companion power if n0 > 0. A slice from 0 never uses the power."""
    if n0 < 0:
        raise ValueError("start index must be nonnegative")
    if length < 0:
        raise ValueError("length must be nonnegative")
    return list(islice(_iter_terms(p, n0), length))


def companion_matrix(p: SeqParams) -> Matrix3:
    """The matrix [[r, s, t], [1, 0, 0], [0, 1, 0]] that shifts term windows."""
    return ((p.r, p.s, p.t), (1, 0, 0), (0, 1, 0))


def mat_mul3(a: Matrix3, b: Matrix3) -> Matrix3:
    """The 3x3 product a*b. Its three products are added directly, so the
    entries of a may also be quaternions scaled by the rationals of b."""
    (a0, a1, a2), (a3, a4, a5), (a6, a7, a8) = a
    (b0, b1, b2), (b3, b4, b5), (b6, b7, b8) = b
    return ((a0 * b0 + a1 * b3 + a2 * b6, a0 * b1 + a1 * b4 + a2 * b7, a0 * b2 + a1 * b5 + a2 * b8),
            (a3 * b0 + a4 * b3 + a5 * b6, a3 * b1 + a4 * b4 + a5 * b7, a3 * b2 + a4 * b5 + a5 * b8),
            (a6 * b0 + a7 * b3 + a8 * b6, a6 * b1 + a7 * b4 + a8 * b7, a6 * b2 + a7 * b5 + a8 * b8))


def companion_power(p: SeqParams, n: int) -> Matrix3:
    """n-th power of the companion matrix by repeated squaring, exact. When the
    denominators of r, s and t factor below _TRIAL_BOUND, the squaring runs on
    the int matrix D*S*C*S^-1, S = diag(D^2, D, 1), for the least D that makes
    D*r, D^2*s and D^3*t integers; entry (i, j) is then divided by D^(n+j-i)."""
    if n < 0:
        raise ValueError("exponent must be nonnegative")
    factors = [_small_factors(x.denominator) for x in (p.r, p.s, p.t)]
    d = 1
    if None not in factors:
        for q in set().union(*factors):
            d *= q ** max(-(-f.get(q, 0) // k) for k, f in enumerate(factors, 1))
    result = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    base = ((rat(d * p.r), rat(d**2 * p.s), rat(d**3 * p.t)), (1, 0, 0), (0, 1, 0))
    k = n
    while k:
        if k & 1:
            result = mat_mul3(result, base)
        k >>= 1
        if k:
            base = mat_mul3(base, base)
    if d == 1:
        return result
    return tuple(tuple(rat(Fraction(x, d ** (n + j - i))) if x else 0
                       for j, x in enumerate(row)) for i, row in enumerate(result))
