"""Third-order linear recurrences V(n) = r*V(n-1) + s*V(n-2) + t*V(n-3) over exact rationals."""

from __future__ import annotations

from fractions import Fraction
from itertools import cycle, islice
from math import gcd, prod
from typing import Iterator, NamedTuple, Sequence

from .gauss import Rational, rat

Matrix3 = tuple[
    tuple[Rational, Rational, Rational],
    tuple[Rational, Rational, Rational],
    tuple[Rational, Rational, Rational],
]


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
    """Terms from V(n0) on, on int for every set, each an int when integral and
    a Fraction in lowest terms otherwise. Only a start past 0 jumps."""
    if Fraction not in map(type, p):
        return _direct_terms(p, *(_int_window(p[:3], p[3:], n0) if n0 else p[3:]))
    return _rational_terms(p, n0)


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


def _direct_terms(p: SeqParams, a: Rational, b: Rational, c: Rational) -> Iterator[Rational]:
    while True:
        yield a
        a, b, c = b, c, p.r * c + p.s * b + p.t * a


def _coprime_base(xs: Sequence[int]) -> list[int]:
    """Pairwise coprime ints above 1 whose powers make up each x in xs: two
    that share g > 1 give way to g and their cofactors until none share (the
    plain form of Bernstein's refinement, J. Algorithms 54, 2005)."""
    base, todo = [], list(set(xs) - {1})
    while todo:
        x = todo.pop()
        for i, b in enumerate(base):
            g = gcd(x, b)
            if g > 1:
                del base[i]
                todo += [y for y in (g, b // g, x // g) if y > 1]
                break
        else:
            base.append(x)
    return base


def _exponent(q: int, d: int) -> int:
    """The exponent of q > 1 in d > 0."""
    return d.bit_length() - _strip(d, q, d.bit_length())[1] if d % q == 0 else 0


def _strip(w: int, q: int, e: int) -> tuple[int, int]:
    """w / q^k and e - k for the largest k <= e for which q^k divides w: one
    shift for a power of 2, else divisions by q^(2^i) from the largest i down."""
    if w and q & (q - 1) == 0:
        bits = q.bit_length() - 1
        k = min(e, ((w & -w).bit_length() - 1) // bits)
        return w >> k * bits, e - k
    powers = [q]
    while 1 << len(powers) <= e and w % powers[-1] == 0:
        powers.append(powers[-1] ** 2)
    for i in reversed(range(len(powers))):
        quotient, rest = divmod(w, powers[i])
        if 1 << i <= e and not rest:
            w, e = quotient, e - (1 << i)
    return w, e


def _rational_terms(p: SeqParams, n0: int) -> Iterator[Rational]:
    """The terms of a rational set from V(n0) on, as int numerators over powers
    of a coprime base of the denominators of t, s, r and the seeds. A jump reads
    U(m) = L*D^m*V(m) for m = n0 .. n0+3 (_int_window, then one step), D and L
    the least power products of the base that make D*r, D^2*s, D^3*t and
    L*V(0..2) ints, and strips each base element from U(m) while it divides,
    splitting one that divides only in part (lowest). Then _scaled_steps."""
    dens = [x.denominator for x in (p.t, p.s, p.r, *p[3:])]
    base = [2 if q & (q - 1) == 0 else q for q in _coprime_base(dens)]
    # Per base element (2 for a power of 2, so that D is least): its exponents in
    # the denominators of t, s and r, then in those of the window, oldest first.
    cols = [[_exponent(q, d) for d in dens] + [0] for q in base]

    def lowest(w: int, slot: int) -> tuple[int, int]:
        """w and the denominator whose exponents are in slot, in lowest terms. A
        base element q that shares just a part g with w gives way to the base of g, q/g."""
        rest = w % prod(base)
        for i, q in enumerate(base):
            col = cols[i]
            if col[slot] and rest % q == 0:
                w, col[slot] = _strip(w, q, col[slot])
                rest = w % prod(base)
            part = gcd(rest, q) if col[slot] else 1
            if part > 1:
                xs = _coprime_base([part, q // part])
                base[i:i + 1] = xs
                cols[i:i + 1] = ([_exponent(x, q) * e for e in col] for x in xs)
                return lowest(w, slot)
        return w, prod(q ** col[slot] for q, col in zip(base, cols))

    if n0:
        scale = [max(-(-col[0] // 3), -(-col[1] // 2), col[2]) for col in cols]
        seed_exps = [max(col[3:6]) for col in cols]
        d, big_l = (prod(q**e for q, e in zip(base, x)) for x in (scale, seed_exps))
        scales = (d, d * d, d**3, big_l, big_l * d, big_l * d * d)
        u = [x.numerator * (m // x.denominator) for x, m in zip(p, scales)]
        window = _int_window(u[:3], u[3:], n0)
        window.append(u[0] * window[2] + u[1] * window[1] + u[2] * window[0])
        for col, k, e in zip(cols, scale, seed_exps):
            col[3:7] = (e + (n0 + j) * k for j in range(4))
        for j in range(4):
            window[j] = _lowest(*lowest(window[j], 3 + j))
            yield window[j]
        window, cols = window[1:], [col[:3] + col[4:] for col in cols]
    else:
        window = p[3:]
        yield from window
    yield from _scaled_steps(p, window, base, cols)


def _scaled_steps(p: SeqParams, window: Sequence[Rational], base: list[int],
                  cols: list[list[int]]) -> Iterator[Rational]:
    """The terms of p after the window V(0..2), cols[i] holding the exponents of
    base[i] in the denominators of t, s, r and the window. The window stays on
    int as U(i) = L(i)*V(i), L(i) the product over the base of q^(ceil(k*i) + c):
    k = max(e_r, e_s/2, e_t/3) is the steepest slope of the Newton polygon of
    x^3 - r*x^2 - s*x - t at q (Koblitz, GTM 58, ch. IV), kept in sixths, and c
    the least offset that makes U(0..2) ints, so that U's multipliers are ints
    of period 1, 2, 3 or 6. Residues modulo a power of the base below 2^30 give
    each term's gcd with its scale: only a gcd above 1 divides the term, and the
    part of it that the window's three terms share divides the window."""
    sixths = [max(6 * er, 3 * es, 2 * et) for et, es, er, *_ in cols]
    # growth[i] is L(i) / L(i - 1) for i mod 6, and scales are L(0..2).
    growth, scales = [1] * 6, [1, 1, 1]
    for q, k, col in zip(base, sixths, cols):
        up = [-(-k * i // 6) for i in range(-1, 6)]  # ceil(k*i) from i = -1
        offset = max(col[3] - up[1], col[4] - up[2], col[5] - up[3])
        for i in range(6):
            growth[i] *= q ** (up[i + 1] - up[i])
        for j in range(3):
            scales[j] *= q ** (up[j + 1] + offset)
    a, b, c = [x.numerator * (m // x.denominator) for x, m in zip(window, scales)]
    r, s, t, scale = *p[:3], scales[2]
    steps = []
    for i in (3, 4, 5, 0, 1, 2)[:6 // gcd(6, *sixths)]:  # the multipliers' period
        g0, g1, g2 = growth[i], growth[i - 1], growth[i - 2]
        steps.append((r.numerator * g0 // r.denominator, s.numerator * g0 * g1 // s.denominator,
                      t.numerator * g0 * g1 * g2 // t.denominator, g0))
    root = prod(base)
    modulus = root ** max(1, 29 // (root - 1).bit_length())
    ar, br, cr, sr = a % modulus, b % modulus, c % modulus, scale % modulus
    for mr, ms, mt, ml in cycle(steps):
        a, b, c = b, c, mr * c + ms * b + mt * a
        ar, br, cr = br, cr, (mr * cr + ms * br + mt * ar) % modulus
        scale, sr = scale * ml, sr * ml % modulus
        g, num, den = gcd(cr, sr, modulus), c, scale
        if g > 1 and (h := gcd(g, ar, br)) > 1:
            a, b, c, scale = a // h, b // h, c // h, scale // h
            ar, br, cr, sr = a % modulus, b % modulus, c % modulus, scale % modulus
            g, num, den = gcd(cr, sr, modulus), c, scale
        while g > 1:
            num, den = num // g, den // g
            # g is the whole gcd unless it holds all of modulus's power of a prime.
            g = 1 if modulus % (g * root) == 0 else gcd(num % modulus, den % modulus, modulus)
        yield _lowest(num, den)


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
