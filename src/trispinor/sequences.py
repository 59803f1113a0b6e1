"""Third-order linear recurrences V(n) = r*V(n-1) + s*V(n-2) + t*V(n-3) over exact rationals."""

from __future__ import annotations

from fractions import Fraction
from itertools import islice, product
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
    terms otherwise. A start past 0 jumps to the window at n0 (_jump); from 0
    the terms are iterated only. A rational set whose denominators factor
    below _TRIAL_BOUND runs on int (_factored_terms), any other on Fraction."""
    window = [p.v0, p.v1, p.v2]
    rational = Fraction in map(type, (p.r, p.s, p.t, *window))
    factors = [_small_factors(x.denominator) if rational else {} for x in (p.t, p.s, p.r, *window)]
    if n0:
        window, factors[3:] = _jump(p, n0, factors)
    if rational and None not in factors:
        return _factored_terms(p, factors, window)
    return map(rat, _direct_terms(p, *window)) if rational else _direct_terms(p, *window)


def _jump(p: SeqParams, n0: int, factors: list[dict[int, int] | None]
          ) -> tuple[list[Rational], list[dict[int, int] | None]]:
    """The window V(n0), V(n0+1), V(n0+2) and the prime exponents of its
    denominators (factors[3:] unless all of p's denominators factor). With L the
    lcm of the seed denominators and D the least scale that makes D*r, D^2*s and
    D^3*t integers (each 1 if its factors are unknown), U(m) = L*D^m*V(m) is the
    sequence of the set (D*r, D^2*s, D^3*t; L*V0, L*D*V1, L*D^2*V2), on int when
    all factor, read off the power kernel. L*D^m is never factored: each
    exponent drops by its prime's power in U(m), stripped as q^(2^i) from the
    largest i down."""
    coefs, seeds = factors[:3], factors[3:]
    scale = {q: max(-(-f.get(q, 0) // k) for k, f in zip((3, 2, 1), coefs))
             for q in set().union(*coefs)} if None not in coefs else {}
    lcm = {q: max(f.get(q, 0) for f in seeds) for q in set().union(*seeds)} if None not in seeds else {}
    d, big_l = (prod(q**e for q, e in x.items()) for x in (scale, lcm))
    scaled = p if d == big_l == 1 else SeqParams(
        d * p.r, d**2 * p.s, d**3 * p.t, *(big_l * d**k * x for k, x in enumerate(p[3:])))
    u, (b0, b1, b2) = list(islice(_iter_terms(scaled), 5)), _power_residue(scaled, n0)
    window = [b0 * u[j] + b1 * u[j + 1] + b2 * u[j + 2] for j in range(3)]
    if None in factors:
        return [rat(Fraction(w, big_l * d ** (n0 + j))) for j, w in enumerate(window)], seeds
    exponents = [{}, {}, {}]
    for j, q in product(range(3), lcm.keys() | scale.keys()):
        w, e, powers = window[j], lcm.get(q, 0) + (n0 + j) * scale.get(q, 0), [q]
        while 1 << len(powers) <= e and w % powers[-1] == 0:
            powers.append(powers[-1] ** 2)
        for i in reversed(range(len(powers))):
            quotient, rest = divmod(w, powers[i])
            if 1 << i <= e and not rest:
                w, e = quotient, e - (1 << i)
        window[j], exponents[j][q] = w, e
    return [_lowest(w, prod(q**e for q, e in x.items())) for w, x in zip(window, exponents)], exponents


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


def _factored_terms(p: SeqParams, factors: list[dict[int, int]],
                    window: list[Rational]) -> Iterator[Rational]:
    """The terms from a window of a set whose denominators, those of t, s, r
    and of the window's terms in factors, have small prime factors only. A
    term is an int over prime powers: the next one is summed over the largest
    power of each prime among its three products, and each prime is divided
    out while it divides the sum, so that the term is in lowest terms without
    a gcd."""
    primes = sorted(set().union(*factors))
    modulus = prod(primes)
    # Per prime: the exponents of t, s and r, and of the window, oldest first.
    coef_exps = [[f.get(q, 0) for f in factors[:3]] for q in primes]
    exps = [[f.get(q, 0) for f in factors[3:]] for q in primes]
    kt, ks, kr = (x.numerator for x in (p.t, p.s, p.r))
    a, b, c = (x.numerator for x in window)
    den = window[2].denominator
    yield from window
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
        yield _lowest(w, den)


def _lowest(w: int, den: int) -> Rational:
    """w/den for coprime w and den > 0: an int if den is 1, else a Fraction
    built without its gcd."""
    if den == 1:
        return w
    x = object.__new__(Fraction)
    x._numerator, x._denominator = w, den
    return x


def seq_term(p: SeqParams, n: int) -> Rational:
    """n-th term of the recurrence, exact, in O(log n) squarings of a residue
    of degree 2 by the power kernel (_power_residue)."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    return next(_iter_terms(p, n))


def seq_slice(p: SeqParams, n0: int, length: int) -> list[Rational]:
    """Terms n0 .. n0+length-1 in one forward pass, after a jump to n0 by the
    power kernel (_power_residue) if n0 > 0. A slice from 0 never jumps."""
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


def _power_residue(p: SeqParams, n: int) -> tuple[Rational, Rational, Rational]:
    """The power kernel: the residue (b0, b1, b2) of x^n modulo the
    characteristic polynomial x^3 - r*x^2 - s*x - t, by squaring a residue of
    degree 2 (Fiduccia, SIAM J. Comput. 14, 1985), so that
    V(n+j) = b0*V(j) + b1*V(j+1) + b2*V(j+2)."""
    a0, a1, a2 = 1, 0, 0
    for bit in bin(n)[2:]:
        e4 = a2 * a2
        e3 = 2 * a1 * a2 + e4 * p.r  # the square's x^4 term, reduced to x^3 and below
        a0, a1, a2 = (a0 * a0 + e3 * p.t, 2 * a0 * a1 + e4 * p.t + e3 * p.s,
                      a1 * a1 + 2 * a0 * a2 + e4 * p.s + e3 * p.r)
        if bit == "1":
            a0, a1, a2 = a2 * p.t, a0 + a2 * p.s, a1 + a2 * p.r
    return a0, a1, a2


def companion_power(p: SeqParams, n: int) -> Matrix3:
    """n-th power of the companion matrix, exact. C^n maps a seed window to
    the window at n, so its column j is the window at n, newest first, of the
    sequence seeded with the unit window whose V(2-j) is 1: a jump by the
    power kernel for n > 0."""
    if n < 0:
        raise ValueError("exponent must be nonnegative")
    units = ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    return tuple(zip(*(seq_slice(SeqParams(*p[:3], *u), n, 3)[::-1] for u in units)))
