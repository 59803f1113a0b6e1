"""Third-order linear recurrences V(n) = r*V(n-1) + s*V(n-2) + t*V(n-3) over exact rationals."""

from __future__ import annotations

from fractions import Fraction
from itertools import cycle, islice
from math import gcd, lcm, prod
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
        return _direct_terms(p, *(_jump([p[:3]], p[3:], n0) if n0 else p[3:]))
    return _rational_terms(p, n0)


def _jump(steps: Sequence[Sequence[int]], seeds: Sequence[int], n: int) -> list[int]:
    """U(n), U(n+1), U(n+2) of the int recurrence with seeds U(0), U(1), U(2)
    whose step to U(x+3) multiplies U(x+2), U(x+1), U(x) by steps[x % P], P the
    period len(steps). For n = P*m + j the window at n is b0*W(j) + b1*W(j+P) +
    b2*W(j+2P), W(x) the window at x, 2P + j steps from the seeds: (b0, b1, b2)
    is the residue of x^m (_power_residue) modulo the characteristic polynomial
    of one period's product (Cayley-Hamilton), whose coefficients are its trace,
    minus the sum of its principal 2x2 minors and the product of the t multipliers.
    For P = 1 they are the step's own multipliers."""
    period = len(steps)
    m, j = divmod(n, period)
    u = [*seeds]
    for x in range(j + 2 * period):
        mr, ms, mt = steps[x % period]
        u.append(mr * u[-1] + ms * u[-2] + mt * u[-3])
    poly = steps[0]
    if period > 1:
        cols = []  # one period on from each unit window: the columns of the product
        for w in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
            for mr, ms, mt in steps:
                w = w[1], w[2], mr * w[2] + ms * w[1] + mt * w[0]
            cols.append(w)
        (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = cols
        minors = a0 * b1 - a1 * b0 + a0 * c2 - a2 * c0 + b1 * c2 - b2 * c1
        poly = a0 + b1 + c2, -minors, prod(step[2] for step in steps)
    b0, b1, b2 = _power_residue(poly, m)
    k, l = j + period, j + 2 * period
    return [b0 * u[j] + b1 * u[k] + b2 * u[l], b0 * u[j + 1] + b1 * u[k + 1] + b2 * u[l + 1],
            b0 * u[j + 2] + b1 * u[k + 2] + b2 * u[l + 2]]


def _direct_terms(p: SeqParams, a: Rational, b: Rational, c: Rational) -> Iterator[Rational]:
    r, s, t = p[:3]
    while True:
        yield a
        a, b, c = b, c, r * c + s * b + t * a


def _coprime_base(xs: Sequence[int]) -> list[int]:
    """Pairwise coprime ints above 1 whose powers make up each x in xs, a power
    of 2 taken as 2: two that share g > 1 give way to g and their cofactors,
    each stripped of every power of g, until none share (Bernstein's
    refinement, J. Algorithms 54, 2005). The stripping takes x = 3^9000
    against 3 in one step, not 9,000."""
    base, whole, todo = [], 1, list({2 if x & (x - 1) == 0 else x for x in xs if x > 1})
    while todo:
        x = todo.pop()
        if gcd(x, whole) == 1:
            base.append(x)
            whole *= x
            continue
        i = next(i for i, b in enumerate(base) if gcd(x, b) > 1)
        b = base.pop(i)
        whole //= b
        g = gcd(x, b)
        todo += [2 if y & (y - 1) == 0 else y
                 for y in (g, b // g ** _exponent(g, b), x // g ** _exponent(g, x)) if y > 1]
    return base


def _exponent(q: int, d: int) -> int:
    """The exponent of q > 1 in d != 0: a shift count for q = 2, else divisions
    by q, q^2, q^4, ... while they divide, then by each of those from the
    largest down."""
    if q == 2:
        return (d & -d).bit_length() - 1
    powers = []
    while d % q == 0:
        d //= q
        powers.append(q)
        q *= q
    e = (1 << len(powers)) - 1
    while powers:
        q = powers.pop()
        if d % q == 0:
            d //= q
            e += 1 << len(powers)
    return e


# _RISES[b] holds the i in 0..5 at which ceil(b*i/6) rises by one.
_RISES = [[i for i in range(6) if -(-b * (i + 1) // 6) > -(-b * i // 6)] for b in range(6)]


def _rational_terms(p: SeqParams, n0: int) -> Iterator[Rational]:
    """The terms of a rational set from V(n0) on. The window stays on int as
    U(i) = L(i)*V(i), L(i) the product over a coprime base of the denominators
    of the six values of q^(ceil(k*i) + c): k = max(e_r, e_s/2, e_t/3) is the
    steepest slope of the Newton polygon of x^3 - r*x^2 - s*x - t at q, e the
    exponents of q in the denominators of r, s and t (Koblitz, GTM 58, ch. IV),
    kept in sixths, and c the least offset that makes U(0..2) ints, so that
    U's multipliers are ints of period 1, 2, 3 or 6. L(0) is then an lcm of
    the seeds' denominators, each freed of its gcd with L(j)/L(0), and L(n0)
    is L(0) times whole periods and a part of one. A start past 0 jumps there
    (_jump) and divides the window by the part its three terms share with
    L(n0): their gcd with the modulus below, or, if that may hide more, each
    q's power up to its exponent in L(n0). Residues modulo a power of the base
    below 2^30 give each term's gcd with its scale: only a gcd above 1 divides
    the term, and the part of it that the window's three terms share divides
    the window."""
    (rn, rd), (sn, sd), (tn, td), (v0, d0), (v1, d1), (v2, d2) = [x.as_integer_ratio() for x in p]
    # growth[i] is L(i + 1) / L(i) for i mod 6: q of slope k/6 raises each by
    # q^(k // 6), and those at _RISES[k % 6] by one more q.
    base, growth, whole, root, unit = [], [1] * 6, 1, 1, 6
    for q in _coprime_base([rd, sd, td, d0, d1, d2]):
        k = max(6 * _exponent(q, rd), 3 * _exponent(q, sd), 2 * _exponent(q, td))
        base.append((q, k))
        root *= q
        unit = gcd(unit, k)
        whole *= q ** (k // 6)
        for i in _RISES[k % 6]:
            growth[i] *= q
    growth = [whole * g for g in growth]
    period = 6 // unit  # the slopes are multiples of unit/6
    steps = []  # steps[x] makes U(i + 3) from U(i) for i = x mod period
    for x in range(period):
        g0, g1, g2 = growth[x], growth[(x + 1) % 6], growth[(x + 2) % 6]
        steps.append((rn * g2 // rd, sn * g1 * g2 // sd, tn * g0 * g1 * g2 // td))
    up1, up2 = growth[0], growth[0] * growth[1]  # L(1) / L(0) and L(2) / L(0)
    lead = lcm(d0, d1 // gcd(d1, up1), d2 // gcd(d2, up2))  # L(0)
    window = [v0 * (lead // d0), v1 * (lead * up1 // d1), v2 * (lead * up2 // d2)]
    m, j = divmod(n0, period)
    scale = lead * prod(growth[:period]) ** m * prod(growth[:j])  # L(n0)
    modulus = root ** max(1, 29 // (root - 1).bit_length())
    a, b, c = _jump(steps, window, n0) if n0 else window
    ar, br, cr, sr = a % modulus, b % modulus, c % modulus, scale % modulus
    shared = gcd(ar, br, cr, sr, modulus)
    if modulus % (shared * root):
        # The window may share more with its scale than the residues show, as
        # after a jump: each q's share is the least of its exponents in L(n0)
        # and in the window's nonzero terms.
        shared = 1
        for q, k in base:
            e = -(-k * n0 // 6) + _exponent(q, lead)
            for w in a, b, c:
                if w and e:
                    e = min(e, _exponent(q, w))
            shared *= q**e
    if shared > 1:
        a, b, c, scale = a // shared, b // shared, c // shared, scale // shared
        ar, br, cr, sr = a % modulus, b % modulus, c % modulus, scale % modulus
    for (mr, ms, mt), ml in islice(cycle(zip(steps, growth)), j, None):
        g = gcd(ar, sr, modulus)
        if g > 1 and (h := gcd(g, br, cr)) > 1:
            a, b, c, scale = a // h, b // h, c // h, scale // h
            ar, br, cr, sr = a % modulus, b % modulus, c % modulus, scale % modulus
            g = gcd(ar, sr, modulus)
        num, den = a, scale
        while num and g > 1:  # a zero term is 0 at once, whatever its scale
            num, den = num // g, den // g
            # g is the whole gcd unless it holds all of modulus's power of a prime.
            g = 1 if modulus % (g * root) == 0 else gcd(num % modulus, den % modulus, modulus)
        yield _lowest(num, den) if num else 0
        a, b, c = b, c, mr * c + ms * b + mt * a
        ar, br, cr = br, cr, (mr * cr + ms * br + mt * ar) % modulus
        scale, sr = scale * ml, sr * ml % modulus


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


def u_companion(p: SeqParams) -> SeqParams:
    """The companion sequence U: the recurrence of p seeded (0, 0, 1)."""
    return SeqParams(p.r, p.s, p.t, 0, 0, 1)


def companion_power(p: SeqParams, n: int) -> Matrix3:
    """n-th power of the companion matrix, exact. C^n maps a seed window to the
    window at n, so row i holds the seeds' coefficients in V(n+2-i), which are
    read off the companion sequence U (u_companion): for n >= 2, one jump by
    the power kernel to U(n-2)..U(n+2) gives row i as (U(n+2-i),
    s*U(n+1-i) + t*U(n-i), t*U(n+1-i)), each product coerced by rat."""
    if n < 0:
        raise ValueError("exponent must be nonnegative")
    if n < 2:
        return companion_matrix(p) if n else ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    s, t = p.s, p.t
    u = seq_slice(u_companion(p), n - 2, 5)
    return tuple((u[4 - i], rat(s * u[3 - i] + t * u[2 - i]), rat(t * u[3 - i])) for i in range(3))
