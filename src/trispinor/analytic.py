"""Closed-form (root-based) evaluation of recurrence terms, quaternions and
spinors, plus exact generating-function series expansion."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .gauss import GaussScalar
from .sequences import SeqParams, seq_slice
from .spinors import Spinor, spinor_window

Rational = Fraction | int


class DegenerateRoots(ArithmeticError):
    """The characteristic cubic has (numerically) repeated roots; the
    root-based closed forms divide by root differences and are unusable."""


@dataclass(frozen=True)
class CubicRoots:
    """Roots of x^3 - r*x^2 - s*x - t, with alpha the root of greatest real
    part (ties broken by greater imaginary part)."""

    alpha: complex
    omega1: complex
    omega2: complex
    discriminant_ok: bool

    def as_tuple(self) -> tuple[complex, complex, complex]:
        return (self.alpha, self.omega1, self.omega2)


@dataclass(frozen=True)
class BinetConstants:
    """Seed-interpolation constants of the closed form.

    P = v2 - (omega1 + omega2)*v1 + omega1*omega2*v0, and Q, R likewise with
    the other two root pairs.
    """

    P: complex
    Q: complex
    R: complex


def _exact_discriminant(r: Fraction, s: Fraction, t: Fraction) -> Fraction:
    # Discriminant of x^3 + b*x^2 + c*x + d with b = -r, c = -s, d = -t;
    # zero exactly when the cubic has a repeated root.
    b, c, d = -r, -s, -t
    return (18 * b * c * d - 4 * b**3 * d + b**2 * c**2 - 4 * c**3 - 27 * d**2)


def cubic_roots(
    r: Rational, s: Rational, t: Rational
) -> CubicRoots:
    """Solve x^3 - r*x^2 - s*x - t = 0 via companion-matrix eigenvalues.

    Degeneracy is reported through discriminant_ok rather than raised; the
    closed-form evaluators raise DegenerateRoots. Exactly repeated roots are
    detected from the exact rational discriminant (the float roots of a
    multiple root smear too far apart for a distance test alone); a numeric
    minimum-gap test additionally flags near-degenerate root sets.
    """
    r, s, t = Fraction(r), Fraction(s), Fraction(t)
    coeffs = [1.0, -float(r), -float(s), -float(t)]
    roots = sorted(
        (complex(z) for z in np.roots(coeffs)),
        key=lambda z: (z.real, z.imag),
        reverse=True,
    )
    scale = 1.0 + max(abs(z) for z in roots)
    min_gap = min(abs(a - b) for a, b in combinations(roots, 2))
    ok = _exact_discriminant(r, s, t) != 0 and min_gap >= 1e-8 * scale
    return CubicRoots(roots[0], roots[1], roots[2], ok)


def binet_constants(p: SeqParams, roots: CubicRoots | None = None) -> BinetConstants:
    if roots is None:
        roots = cubic_roots(p.r, p.s, p.t)
    if not roots.discriminant_ok:
        raise DegenerateRoots("repeated characteristic roots")
    a, w1, w2 = roots.as_tuple()
    v0, v1, v2 = float(p.v0), float(p.v1), float(p.v2)
    return BinetConstants(
        P=v2 - (w1 + w2) * v1 + w1 * w2 * v0,
        Q=v2 - (a + w2) * v1 + a * w2 * v0,
        R=v2 - (a + w1) * v1 + a * w1 * v0,
    )


def _weights(p: SeqParams, roots: CubicRoots) -> tuple[complex, complex, complex]:
    """Coefficients (A, B, C) such that V(n) = A*a^n + B*w1^n + C*w2^n."""
    const = binet_constants(p, roots)
    a, w1, w2 = roots.as_tuple()
    return (
        const.P / ((a - w1) * (a - w2)),
        -const.Q / ((a - w1) * (w1 - w2)),
        const.R / ((a - w2) * (w1 - w2)),
    )


def binet_number(p: SeqParams, n: int, roots: CubicRoots | None = None) -> complex:
    """Closed-form value of V(n); imaginary part is rounding noise."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    if roots is None:
        roots = cubic_roots(p.r, p.s, p.t)
    wa, w1, w2 = _weights(p, roots)
    a, o1, o2 = roots.as_tuple()
    return wa * a**n + w1 * o1**n + w2 * o2**n


def binet_quaternion(
    p: SeqParams, n: int, roots: CubicRoots | None = None
) -> tuple[complex, complex, complex, complex]:
    """Closed-form quaternion components; component l approximates V(n+l)."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    if roots is None:
        roots = cubic_roots(p.r, p.s, p.t)
    wa, w1, w2 = _weights(p, roots)
    a, o1, o2 = roots.as_tuple()
    return tuple(
        wa * a**n * a**l + w1 * o1**n * o1**l + w2 * o2**n * o2**l
        for l in range(4)
    )  # type: ignore[return-value]


def binet_spinor(
    p: SeqParams, n: int, roots: CubicRoots | None = None
) -> tuple[complex, complex]:
    """Closed-form spinor: each root x contributes the column
    [x^3 + i; x + i*x^2] weighted like the scalar closed form."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    if roots is None:
        roots = cubic_roots(p.r, p.s, p.t)
    wa, w1, w2 = _weights(p, roots)
    a, o1, o2 = roots.as_tuple()
    top = bottom = 0j
    for w, x in ((wa, a), (w1, o1), (w2, o2)):
        k = w * x**n
        top += k * (x**3 + 1j)
        bottom += k * (x + 1j * x**2)
    return (top, bottom)


@dataclass(frozen=True)
class SpinorSeries:
    """First ``order`` power-series coefficients, each an exact spinor."""

    order: int
    coefficients: tuple[Spinor, ...]


def genfunc_numerator(p: SeqParams) -> tuple[Spinor, Spinor, Spinor]:
    """Numerator polynomial (degree <= 2 spinor coefficients) of the rational
    generating function with denominator 1 - r*x - s*x^2 - t*x^3.

    The coefficients are A(0), A(1) - r*A(0), A(2) - r*A(1) - s*A(0), where
    A(n) is the exact spinor of index n.
    """
    v = seq_slice(p, 0, 6)
    a0, a1, a2 = (spinor_window(v, k) for k in range(3))
    return (a0, a1 - p.r * a0, a2 - p.r * a1 - p.s * a0)


def genfunc_spinor_series(p: SeqParams, order: int) -> SpinorSeries:
    """Expand the generating function to ``order`` terms by exact long
    division; coefficient k equals trib_spinor(p, k)."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    numerator = genfunc_numerator(p)
    zero = Spinor(GaussScalar(0), GaussScalar(0))
    coeffs: list[Spinor] = []
    for k in range(order):
        acc = numerator[k] if k < 3 else zero
        if k >= 1:
            acc = acc + p.r * coeffs[k - 1]
        if k >= 2:
            acc = acc + p.s * coeffs[k - 2]
        if k >= 3:
            acc = acc + p.t * coeffs[k - 3]
        coeffs.append(acc)
    return SpinorSeries(order, tuple(coeffs))
