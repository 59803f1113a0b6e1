"""Closed-form (root-based) evaluation of recurrence terms, quaternions and
spinors, plus the exact generating function: its series expansion, and one
coefficient at a time."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import Callable, NamedTuple

from .gauss import GaussScalar, Rational, rat
from .sequences import SeqParams, seq_slice
from .spinors import Spinor, spinor_window


class DegenerateRoots(ArithmeticError):
    """The characteristic cubic has (numerically) repeated roots; the
    root-based closed forms divide by root differences and are unusable."""


class CubicRoots(NamedTuple):
    """Roots of x^3 - r*x^2 - s*x - t, with alpha the root of greatest real
    part (ties broken by greater imaginary part)."""

    alpha: complex
    omega1: complex
    omega2: complex
    discriminant_ok: bool

    def as_tuple(self) -> tuple[complex, complex, complex]:
        return (self.alpha, self.omega1, self.omega2)


class BinetConstants(NamedTuple):
    """Seed-interpolation constants of the closed form.

    P = v2 - (omega1 + omega2)*v1 + omega1*omega2*v0, and Q, R likewise with
    the other two root pairs.
    """

    P: complex
    Q: complex
    R: complex


class PowerSum(NamedTuple):
    """A closed form's n-free part: roots x, weights w (V(n) = sum of w*x^n), columns."""

    roots: tuple[complex, complex, complex]
    weights: tuple[complex, complex, complex]
    columns: tuple[tuple[complex, ...], ...]


def _polish(f, df, z):
    """One Newton step on f from z, kept only if it shrinks |f|."""
    nxt = z - f(z) / df(z) if df(z) else z
    return nxt if abs(f(nxt)) < abs(f(z)) else z


def _solve(r: Rational, s: Rational, t: Rational, disc: Rational) -> list[complex]:
    """Roots of x^3 - r*x^2 - s*x - t, structured by the sign of `disc`."""
    if disc == 0:  # a repeated root num/den: on int, / rounds it as a Fraction's float
        num, den = (r, 3) if r * r + 3 * s == 0 else (-(9 * t + r * s), 2 * (r * r + 3 * s))
        return [complex(num / den)] * 2 + [complex((r * den - 2 * num) / den)]
    # x = 2^e * y with every coefficient of the cubic in y below 1 in size, so
    # its roots lie in |y| < 2. ldexp scales exactly and without overflow.
    e = math.frexp(max(abs(r), math.sqrt(abs(s)), abs(t) ** (1 / 3)))[1]
    a, b, c = math.ldexp(r, -e), math.ldexp(s, -2 * e), math.ldexp(t, -3 * e)
    f = lambda y: ((y - a) * y - b) * y - c
    df = lambda y: (3 * y - 2 * a) * y - b
    z = [(0.4 + 0.9j) ** k for k in range(3)]
    # Durand-Kerner converges quadratically: once no root moves by more than
    # 1e-8 of itself they are exact to rounding. A root at 0 stops below 1e-300.
    # Two roots far below the largest close in by halving: 1100 steps reach 0.
    for _ in range(1100):
        moved = False
        for i in range(3):
            step = f(z[i]) / ((z[i] - z[i - 1]) * (z[i] - z[i - 2]) or 1)
            moved = moved or abs(step) > 1e-8 * abs(z[i]) + 1e-300
            z[i] -= step
        if not moved:
            break
    if disc > 0:  # three real roots
        ys = [_polish(f, df, y.real) for y in z]
    else:  # one real root and a conjugate pair
        z.sort(key=lambda y: abs(y.imag))
        x = _polish(f, df, z[0].real)
        low, high = sorted(z[1:], key=lambda y: y.imag)
        w = _polish(f, df, (high + low.conjugate()) / 2)
        # 2r^3 + 9rs + 27t = 0 makes r/3 the real root, and then the real part
        # of the pair too: set the tie exactly, float noise would order it.
        if 2 * r**3 + 9 * r * s + 27 * t == 0:
            x = math.ldexp(float(r / 3), -e)
            w = complex(x, w.imag)
        ys = [x, w, w.conjugate()]
    return [complex(math.ldexp(y.real, e), math.ldexp(y.imag, e)) for y in map(complex, ys)]


def cubic_roots(r: Rational, s: Rational, t: Rational) -> CubicRoots:
    """Solve x^3 - r*x^2 - s*x - t = 0 in CPython floats: Durand-Kerner on
    the cubic scaled by a power of two, then Newton polish.

    Degeneracy is reported through discriminant_ok rather than raised; the
    closed-form evaluators raise DegenerateRoots. The sign of the exact
    rational discriminant D fixes the roots' structure: three real if D > 0,
    one real and an exactly conjugate pair if D < 0, exact rationals if D = 0.
    A numeric minimum-gap test additionally flags near-degenerate root sets.
    """
    # Exact tests on int; an int past float range is a Fraction, for its overflow message.
    if not all(type(x) is int and x.bit_length() < 1000 for x in (r, s, t)):
        r, s, t = Fraction(r), Fraction(s), Fraction(t)
    # The discriminant: zero exactly when the cubic has a repeated root.
    disc = r**2 * s**2 + 4 * s**3 - 4 * r**3 * t - 18 * r * s * t - 27 * t**2
    roots = sorted(_solve(r, s, t, disc), key=lambda z: (z.real, z.imag), reverse=True)
    scale = 1.0 + max(abs(z) for z in roots)
    min_gap = min(abs(a - b) for a, b in combinations(roots, 2))
    ok = disc != 0 and min_gap >= 1e-8 * scale
    return CubicRoots(roots[0], roots[1], roots[2], ok)


def binet_constants(p: SeqParams, roots: CubicRoots | None = None) -> BinetConstants:
    roots = roots or cubic_roots(p.r, p.s, p.t)
    if not roots.discriminant_ok:
        raise DegenerateRoots("repeated characteristic roots")
    a, w1, w2 = roots.as_tuple()
    v0, v1, v2 = float(p.v0), float(p.v1), float(p.v2)
    return BinetConstants(
        P=v2 - (w1 + w2) * v1 + w1 * w2 * v0,
        Q=v2 - (a + w2) * v1 + a * w2 * v0,
        R=v2 - (a + w1) * v1 + a * w1 * v0,
    )


def _setup(p: SeqParams, roots: CubicRoots | None, column: Callable[..., tuple]) -> PowerSum:
    """The power sum's n-free part, on the roots solved here unless given."""
    roots = roots or cubic_roots(p.r, p.s, p.t)
    const = binet_constants(p, roots)
    a, w1, w2 = xs = roots.as_tuple()
    weights = (const.P / ((a - w1) * (a - w2)), -const.Q / ((a - w1) * (w1 - w2)),
               const.R / ((a - w2) * (w1 - w2)))
    return PowerSum(xs, weights, tuple(map(column, xs)))


def _power_sum(p: SeqParams, n: int, roots: CubicRoots | PowerSum | None,
               column: Callable[[complex], tuple[complex, ...]]) -> tuple[complex, ...]:
    """The closed forms' one power sum: w*x^n*column(x) over the roots x. Given a
    PowerSum for this column, only the per-n step runs: a power per root, 3 products."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    setup = roots if isinstance(roots, PowerSum) else _setup(p, roots, column)
    (a, w1, w2), (ga, g1, g2) = setup.roots, setup.weights
    ka, k1, k2 = ga * a**n, g1 * w1**n, g2 * w2**n
    return tuple([0j + ka * ca + k1 * c1 + k2 * c2 for ca, c1, c2 in zip(*setup.columns)])


def binet_number(p: SeqParams, n: int, roots: CubicRoots | None = None) -> complex:
    """Closed-form value of V(n); imaginary part is rounding noise."""
    return _power_sum(p, n, roots, lambda x: (1,))[0]


def binet_quaternion(p: SeqParams, n: int, roots: CubicRoots | None = None
                     ) -> tuple[complex, complex, complex, complex]:
    """Closed-form quaternion components; component l approximates V(n+l)."""
    return _power_sum(p, n, roots, lambda x: (1, x, x**2, x**3))  # type: ignore[return-value]


def _spinor_column(x: complex) -> tuple[complex, complex]:
    return (x**3 + 1j, x + 1j * x**2)


def binet_setup(p: SeqParams) -> PowerSum:
    """binet_spinor's n-free part for p, to pass as its third argument."""
    return _setup(p, None, _spinor_column)


def binet_spinor(p: SeqParams, n: int, roots: CubicRoots | PowerSum | None = None
                 ) -> tuple[complex, complex]:
    """Closed-form spinor: root x's column [x^3 + i; x + i*x^2], weighted as for V(n)."""
    return _power_sum(p, n, roots, _spinor_column)  # type: ignore[return-value]


def genfunc_numerator(p: SeqParams) -> tuple[Spinor, Spinor, Spinor]:
    """Numerator polynomial (degree <= 2 spinor coefficients) of the rational
    generating function with denominator 1 - r*x - s*x^2 - t*x^3.

    The coefficients are A(0), A(1) - r*A(0), A(2) - r*A(1) - s*A(0), where
    A(n) is the exact spinor of index n.
    """
    v = seq_slice(p, 0, 6)
    a0, a1, a2 = (spinor_window(v, k) for k in range(3))
    return (a0, a1 - p.r * a0, a2 - p.r * a1 - p.s * a0)


class GenfuncSetup(NamedTuple):
    """genfunc_coefficient's n-free part: Q = 1 - r*x - s*x^2 - t*x^3 scaled to int
    by d, the lcm of the denominators of r, s and t, and each of the four rational
    component polynomials of N = genfunc_numerator(p) scaled to int by e, the lcm of N's."""

    d: int
    q: tuple[int, int, int, int]
    e: int
    polys: tuple[tuple[int, int, int], ...]


def genfunc_setup(p: SeqParams) -> GenfuncSetup:
    """genfunc_coefficient's n-free part for p."""
    d = math.lcm(*(c.denominator for c in p[:3]))
    q = (d, *(-c.numerator * (d // c.denominator) for c in p[:3]))
    polys = list(zip(*genfunc_numerator(p)))
    e = math.lcm(*(c.denominator for poly in polys for c in poly))
    return GenfuncSetup(d, q, e, tuple(tuple(c.numerator * (e // c.denominator) for c in poly)
                                       for poly in polys))


def genfunc_coefficient(setup: GenfuncSetup, n: int) -> Spinor:
    """The coefficient of x^n in N(x)/Q(x), from the set-up genfunc_setup(p)
    returns, in O(log n) products on int (Bostan & Mori, SOSA 2021):
    N(x)/Q(x) = N(x)Q(-x) / Q(x)Q(-x), whose denominator is even, so the
    coefficient is that of n // 2 in the even or odd half of N(x)Q(-x) over the
    even half of Q(x)Q(-x). Each component becomes one Fraction at the end, and
    none on an integer set. Equals trib_spinor(p, n)."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    d, (q0, q1, q2, q3), e, polys = setup
    while n > 1:
        # The even or the odd half of N(x)Q(-x), for each component.
        if n & 1:
            polys = [(a1 * q0 - a0 * q1, a1 * q2 - a2 * q1 - a0 * q3, -a2 * q3)
                     for a0, a1, a2 in polys]
        else:
            polys = [(a0 * q0, a2 * q0 - a1 * q1 + a0 * q2, a2 * q2 - a1 * q3)
                     for a0, a1, a2 in polys]
        q0, q1, q2, q3 = q0 * q0, 2 * q0 * q2 - q1 * q1, q2 * q2 - 2 * q1 * q3, -q3 * q3
        n >>= 1
    # The coefficient of x^0 in N/Q is a0/q0, that of x^1 (a1*q0 - a0*q1)/q0^2;
    # a component is d/e times it, and on an integer set d = e = q0 = 1.
    den = e * q0 ** (n + 1)
    nums = [d * (a1 * q0 - a0 * q1 if n else a0) for a0, a1, _ in polys]
    return Spinor._make(x if den == 1 else rat(Fraction(x, den)) for x in nums)


def genfunc_spinor_series(p: SeqParams, order: int) -> tuple[Spinor, ...]:
    """The first ``order`` power-series coefficients of the generating
    function, by exact long division; coefficient k equals trib_spinor(p, k)."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    numerator = genfunc_numerator(p)
    zero = Spinor(GaussScalar(0), GaussScalar(0))
    coeffs: list[Spinor] = []
    for k in range(order):
        acc = numerator[k] if k < 3 else zero
        # r*coeffs[k-1] + s*coeffs[k-2] + t*coeffs[k-3], as far as they exist
        for c, prev in zip((p.r, p.s, p.t), coeffs[:-4:-1]):
            acc = acc + c * prev
        coeffs.append(acc)
    return tuple(coeffs)
