"""Closed-form (root-based) evaluation of the spinors, plus the exact
generating function: its numerator, and one coefficient at a time."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

from .gauss import Rational, rat
from .sequences import SeqParams, seq_slice
from .spinors import Spinor, spinor_window


class DegenerateRoots(ArithmeticError):
    """The characteristic cubic has (numerically) repeated roots; the
    root-based closed forms divide by root differences and are unusable."""


def _polish(f, df, z):
    """One Newton step on f from z, kept only if it shrinks |f|."""
    nxt = z - f(z) / df(z) if df(z) else z
    return nxt if abs(f(nxt)) < abs(f(z)) else z


def _solve(r: Rational, s: Rational, t: Rational, disc: Rational) -> list[complex]:
    """Roots of x^3 - r*x^2 - s*x - t, structured by the sign of `disc`, which is not 0."""
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


def cubic_roots(r: Rational, s: Rational, t: Rational) -> tuple[complex, complex, complex]:
    """The roots of x^3 - r*x^2 - s*x - t in CPython floats, greatest real part
    first (ties broken by greater imaginary part): Durand-Kerner on the cubic
    scaled by a power of two, then Newton polish.

    Raises DegenerateRoots where the closed forms, which divide by root
    differences, are unusable: when the exact rational discriminant D is 0 (a
    repeated root), and when two float roots lie within 1e-8 of 1 + max|root|.
    The sign of D fixes the roots' structure: three real if D > 0, one real and
    an exactly conjugate pair if D < 0.
    """
    # Exact tests on int; an int past float range is a Fraction, for its overflow message.
    if not all(type(x) is int and x.bit_length() < 1000 for x in (r, s, t)):
        r, s, t = Fraction(r), Fraction(s), Fraction(t)
    # The discriminant: zero exactly when the cubic has a repeated root.
    disc = r**2 * s**2 + 4 * s**3 - 4 * r**3 * t - 18 * r * s * t - 27 * t**2
    if disc == 0:
        raise DegenerateRoots("repeated characteristic roots")
    roots = sorted(_solve(r, s, t, disc), key=lambda z: (z.real, z.imag), reverse=True)
    # An absolute gap, not a relative one: x^3 - 1e-300 has roots 1e-100 apart, far
    # for their size, but weights like 1/gap^2 that cancel to noise. Without this test,
    # binet on seeds (1, 1, 1) reads [0; -1.457e84] at n = 0, not [1e-300 + i; 1 + i].
    scale = 1.0 + max(abs(z) for z in roots)
    if min(abs(a - b) for a, b in combinations(roots, 2)) < 1e-8 * scale:
        raise DegenerateRoots("characteristic roots closer than 1e-8 of their scale")
    return roots[0], roots[1], roots[2]


def binet_setup(p: SeqParams) -> tuple[tuple[complex, ...], tuple[complex, ...], tuple]:
    """binet_spinor's n-free part for p, to pass as its third argument: the tuple
    (roots, weights, columns) of roots x, weights w (V(n) = sum of w*x^n) and columns.

    Root x, with y and z the other two, has the weight P / ((x - y)(x - z)),
    where P = v2 - (y + z)*v1 + y*z*v0 interpolates the seeds; the paper names
    it P, Q and R for the roots alpha, omega1 and omega2 in that order.
    """
    a, b, c = xs = cubic_roots(p.r, p.s, p.t)
    v0, v1, v2 = float(p.v0), float(p.v1), float(p.v2)
    weights = tuple((v2 - (y + z) * v1 + y * z * v0) / ((x - y) * (x - z))
                    for x, y, z in ((a, b, c), (b, a, c), (c, a, b)))
    return xs, weights, tuple((x**3 + 1j, x + 1j * x**2) for x in xs)


def binet_spinor(p: SeqParams, n: int, setup: tuple | None = None) -> tuple[complex, complex]:
    """Closed-form spinor: root x's column [x^3 + i; x + i*x^2], weighted as for V(n).
    Given setup = binet_setup(p), only the per-n step runs: a power per root, 3 products."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    (a, w1, w2), (ga, g1, g2), columns = setup or binet_setup(p)
    ka, k1, k2 = ga * a**n, g1 * w1**n, g2 * w2**n
    return tuple([0j + ka * ca + k1 * c1 + k2 * c2  # type: ignore[return-value]
                  for ca, c1, c2 in zip(*columns)])


def genfunc_numerator(p: SeqParams) -> tuple[Spinor, Spinor, Spinor]:
    """Numerator polynomial (degree <= 2 spinor coefficients) of the rational
    generating function with denominator 1 - r*x - s*x^2 - t*x^3.

    The coefficients are A(0), A(1) - r*A(0), A(2) - r*A(1) - s*A(0), where
    A(n) is the exact spinor of index n.
    """
    v = seq_slice(p, 0, 6)
    a0, a1, a2 = (spinor_window(v, k) for k in range(3))
    return (a0, a1 - p.r * a0, a2 - p.r * a1 - p.s * a0)


def genfunc_setup(p: SeqParams) -> tuple[int, tuple[int, ...], int, tuple[tuple[int, ...], ...]]:
    """genfunc_coefficient's n-free part for p: the tuple (d, q, e, polys) of
    Q = 1 - r*x - s*x^2 - t*x^3 scaled to int by d, the lcm of the denominators of
    r, s and t, and N = genfunc_numerator(p)'s four rational component polynomials
    scaled to int by e, the lcm of N's; coefficients lowest degree first."""
    d = math.lcm(*(c.denominator for c in p[:3]))
    q = (d, *(-c.numerator * (d // c.denominator) for c in p[:3]))
    polys = list(zip(*genfunc_numerator(p)))
    e = math.lcm(*(c.denominator for poly in polys for c in poly))
    return d, q, e, tuple(tuple(c.numerator * (e // c.denominator) for c in poly)
                          for poly in polys)


def genfunc_coefficient(setup: tuple, n: int) -> Spinor:
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

