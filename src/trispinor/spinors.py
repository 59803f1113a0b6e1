"""Spinors (2-component exact complex columns), their conjugations, the linear
map from quaternions, and the 2x2 matrix representation of quaternion products."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .gauss import GaussScalar, I, as_gauss
from .quaternions import Quaternion
from .sequences import SeqParams, seq_slice

Scalar = GaussScalar | Fraction | int


@dataclass(frozen=True)
class Spinor:
    """Column of two Gaussian rationals."""

    c1: GaussScalar
    c2: GaussScalar

    def __post_init__(self) -> None:
        object.__setattr__(self, "c1", as_gauss(self.c1))
        object.__setattr__(self, "c2", as_gauss(self.c2))

    def __add__(self, other: Spinor) -> Spinor:
        return Spinor(self.c1 + other.c1, self.c2 + other.c2)

    def __sub__(self, other: Spinor) -> Spinor:
        return Spinor(self.c1 - other.c1, self.c2 - other.c2)

    def __neg__(self) -> Spinor:
        return Spinor(-self.c1, -self.c2)

    def __mul__(self, k: Scalar) -> Spinor:
        k = as_gauss(k)
        return Spinor(k * self.c1, k * self.c2)

    __rmul__ = __mul__

    def __str__(self) -> str:
        return f"[{self.c1}; {self.c2}]"


@dataclass(frozen=True)
class SpinMatrix2:
    """2x2 matrix of Gaussian rationals; ``@`` multiplies matrices or applies
    the matrix to a spinor column."""

    a11: GaussScalar
    a12: GaussScalar
    a21: GaussScalar
    a22: GaussScalar

    def __post_init__(self) -> None:
        for name in ("a11", "a12", "a21", "a22"):
            object.__setattr__(self, name, as_gauss(getattr(self, name)))

    def __add__(self, other: SpinMatrix2) -> SpinMatrix2:
        return SpinMatrix2(
            self.a11 + other.a11, self.a12 + other.a12,
            self.a21 + other.a21, self.a22 + other.a22,
        )

    def __sub__(self, other: SpinMatrix2) -> SpinMatrix2:
        return SpinMatrix2(
            self.a11 - other.a11, self.a12 - other.a12,
            self.a21 - other.a21, self.a22 - other.a22,
        )

    def __neg__(self) -> SpinMatrix2:
        return SpinMatrix2(-self.a11, -self.a12, -self.a21, -self.a22)

    def __mul__(self, k: Scalar) -> SpinMatrix2:
        k = as_gauss(k)
        return SpinMatrix2(k * self.a11, k * self.a12, k * self.a21, k * self.a22)

    __rmul__ = __mul__

    def __matmul__(self, other: SpinMatrix2 | Spinor):
        if isinstance(other, Spinor):
            return Spinor(
                self.a11 * other.c1 + self.a12 * other.c2,
                self.a21 * other.c1 + self.a22 * other.c2,
            )
        return SpinMatrix2(
            self.a11 * other.a11 + self.a12 * other.a21,
            self.a11 * other.a12 + self.a12 * other.a22,
            self.a21 * other.a11 + self.a22 * other.a21,
            self.a21 * other.a12 + self.a22 * other.a22,
        )

    def transpose(self) -> SpinMatrix2:
        return SpinMatrix2(self.a11, self.a21, self.a12, self.a22)

    def __str__(self) -> str:
        return f"[[{self.a11}, {self.a12}], [{self.a21}, {self.a22}]]"


# Antisymmetric unit: C @ C = -identity.
C = SpinMatrix2(0, 1, -1, 0)


def sigma(q: Quaternion) -> Spinor:
    """Linear injective image of a quaternion: [q3 + i*q0; q1 + i*q2]."""
    return Spinor(GaussScalar(q.q3, q.q0), GaussScalar(q.q1, q.q2))


def sigma_inv(s: Spinor) -> Quaternion:
    """Inverse of sigma on its image: recovers (q0, q1, q2, q3)."""
    return Quaternion(s.c1.im, s.c2.re, s.c2.im, s.c1.re)


def complex_conjugate(s: Spinor) -> Spinor:
    """Componentwise complex conjugate."""
    return Spinor(s.c1.conjugate(), s.c2.conjugate())


def cartan_conjugate(s: Spinor) -> Spinor:
    """i * C @ conjugate(s) = [i*conj(c2); -i*conj(c1)]."""
    return I * (C @ complex_conjugate(s))


def mate(s: Spinor) -> Spinor:
    """-C @ conjugate(s) = [-conj(c2); conj(c1)]."""
    return -(C @ complex_conjugate(s))


def breve(q: Quaternion) -> SpinMatrix2:
    """2x2 representation of a quaternion; its first column is sigma(q) and
    sigma(p * q) = -i * breve(p) @ sigma(q)."""
    return SpinMatrix2(
        GaussScalar(q.q3, q.q0), GaussScalar(q.q1, -q.q2),
        GaussScalar(q.q1, q.q2), GaussScalar(-q.q3, q.q0),
    )


def spinor_dot(u: Spinor, v: Spinor) -> GaussScalar:
    """Plain bilinear pairing u1*v1 + u2*v2 (no conjugation)."""
    return u.c1 * v.c1 + u.c2 * v.c2


def bilinear_form(row: Spinor, m: SpinMatrix2, col: Spinor) -> GaussScalar:
    """transpose(row) * m * col with a plain (unconjugated) transpose."""
    return spinor_dot(row, m @ col)


def spinor_norm(s: Spinor) -> GaussScalar:
    """|c1|^2 + |c2|^2; always real and nonnegative."""
    return spinor_dot(complex_conjugate(s), s)


def spinor_window(v: Sequence[Fraction | int], n: int = 0) -> Spinor:
    """Spinor [v[n+3] + i*v[n]; v[n+1] + i*v[n+2]] of four consecutive terms,
    read off a list of terms. It is built from the terms themselves, not as
    sigma of the window quaternion, so that checks comparing the two stay
    independent."""
    return Spinor(GaussScalar(v[n + 3], v[n]), GaussScalar(v[n + 1], v[n + 2]))


def trib_spinor(p: SeqParams, n: int) -> Spinor:
    """Spinor [V(n+3) + i*V(n); V(n+1) + i*V(n+2)]; equals
    sigma(trib_quaternion(p, n))."""
    return spinor_window(seq_slice(p, n, 4))
