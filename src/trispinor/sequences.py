"""Third-order linear recurrences V(n) = r*V(n-1) + s*V(n-2) + t*V(n-3) over exact rationals."""

from __future__ import annotations

from fractions import Fraction
from itertools import islice, product
from math import lcm, prod
from typing import Iterator, NamedTuple, Sequence

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
    terms otherwise. A start past 0 jumps to the window at n0 on int; from 0
    the terms are iterated only. Only the recurrence of a rational set with a
    denominator prime above _TRIAL_BOUND runs on Fraction; any other rational
    set continues on int (_factored_terms)."""
    if Fraction not in map(type, p):
        return _direct_terms(p, *(_int_window(p[:3], p[3:], n0) if n0 else p[3:]))
    factors = [_small_factors(x.denominator) for x in (p.t, p.s, p.r, *p[3:])]
    window = p[3:]
    if n0:
        window, factors[3:] = _jump(p, n0, factors)
    if None not in factors:
        return _factored_terms(p, factors, window)
    return map(rat, _direct_terms(p, *window))


def _int_window(coefs: Sequence[int], seeds: Sequence[int], n: int) -> list[int]:
    """U(n), U(n+1), U(n+2) of the int recurrence with coefficients coefs and
    seeds U(0), U(1), U(2): two steps to U(4), then three dot products with
    the residue of x^n (_power_residue)."""
    r, s, t = coefs
    u0, u1, u2 = seeds
    u3 = r * u2 + s * u1 + t * u0
    u4 = r * u3 + s * u2 + t * u1
    b0, b1, b2 = _power_residue(coefs, n)
    return [b0 * u0 + b1 * u1 + b2 * u2, b0 * u1 + b1 * u2 + b2 * u3, b0 * u2 + b1 * u3 + b2 * u4]


def _jump(p: SeqParams, n0: int, factors: list[dict[int, int] | None]
          ) -> tuple[list[Rational], list[dict[int, int] | None]]:
    """The window V(n0), V(n0+1), V(n0+2) of a rational set and the prime
    exponents of its denominators (factors[3:] if a denominator of p does not
    factor). U(m) = L*D^m*V(m) is jumped on int (_int_window), its coefficients
    D*r, D^2*s, D^3*t and seeds read off numerators and denominators by exact
    division. L is the lcm of the seed denominators; D is the least scale that
    makes those coefficients ints, or the lcm of their denominators if one does
    not factor. L*D^m is never factored: the exponent of 2 drops by the
    trailing zeros of U(m), and that of an odd prime q that divides U(m) by its
    power in U(m), stripped as q^(2^i) from the largest i down."""
    coefs, seeds = factors[:3], factors[3:]
    if None in factors:
        d, big_l = lcm(*(x.denominator for x in p[:3])), lcm(*(x.denominator for x in p[3:]))
    else:
        scale = {q: max(-(-f.get(q, 0) // k) for k, f in zip((3, 2, 1), coefs))
                 for q in set().union(*coefs)}
        lcm_exps = {q: max(f.get(q, 0) for f in seeds) for q in set().union(*seeds)}
        d, big_l = (prod(q**e for q, e in x.items()) for x in (scale, lcm_exps))
    scales = (d, d * d, d**3, big_l, big_l * d, big_l * d * d)
    u = [x.numerator * (m // x.denominator) for x, m in zip(p, scales)]
    window = _int_window(u[:3], u[3:], n0)
    if None in factors:
        return [rat(Fraction(w, big_l * d ** (n0 + j))) for j, w in enumerate(window)], seeds
    exponents = [{}, {}, {}]
    for j, q in product(range(3), lcm_exps.keys() | scale.keys()):
        w, e = window[j], lcm_exps.get(q, 0) + (n0 + j) * scale.get(q, 0)
        if q == 2:
            k = min(e, (w & -w).bit_length() - 1) if w else e
            w, e = w >> k, e - k
        elif w % q == 0:
            powers = [q]
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
    a gcd. The window comes first, so that a single term sets nothing up."""
    yield from window
    primes = sorted(set().union(*factors))
    modulus = prod(primes)
    # Per prime: the exponents of t, s and r, and of the window, oldest first.
    coef_exps = [[f.get(q, 0) for f in factors[:3]] for q in primes]
    exps = [[f.get(q, 0) for f in factors[3:]] for q in primes]
    kt, ks, kr = (x.numerator for x in (p.t, p.s, p.r))
    a, b, c = (x.numerator for x in window)
    den = window[2].denominator
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


def _power_residue(p: Sequence[int], n: int) -> tuple[int, int, int]:
    """The power kernel: the residue (b0, b1, b2) of x^n modulo x^3 - r*x^2 - s*x - t
    for the ints r, s, t that p starts with, by squaring residues of degree 2 (Fiduccia,
    SIAM J. Comput. 14, 1985), so that V(n+j) = b0*V(j) + b1*V(j+1) + b2*V(j+2)."""
    r, s, t = p[:3]
    a0, a1, a2 = 1, 0, 0
    for bit in bin(n)[2:]:
        e4 = a2 * a2
        e3 = 2 * a1 * a2 + e4 * r  # the square's x^4 term, reduced to x^3 and below
        a0, a1, a2 = (a0 * a0 + e3 * t, 2 * a0 * a1 + e4 * t + e3 * s,
                      a1 * a1 + 2 * a0 * a2 + e4 * s + e3 * r)
        if bit == "1":
            a0, a1, a2 = a2 * t, a0 + a2 * s, a1 + a2 * r
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
