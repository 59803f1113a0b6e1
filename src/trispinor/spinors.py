"""Spinors (2-component exact complex columns), their conjugations, the linear
map from quaternions, and the 2x2 matrix representation of quaternion products."""

from __future__ import annotations

from typing import Sequence

from .gauss import GaussScalar, I, Rational, _Exact, as_gauss
from .quaternions import Quaternion
from .sequences import SeqParams, seq_slice


class Spinor(_Exact, fields="c1 c2", coerce=as_gauss):
    """Column of two Gaussian rationals."""

    __slots__ = ()

    def __str__(self) -> str:
        return f"[{self.c1}; {self.c2}]"


class SpinMatrix2(_Exact, fields="a11 a12 a21 a22", coerce=as_gauss):
    """2x2 matrix of Gaussian rationals; ``@`` multiplies matrices or applies
    the matrix to a spinor column."""

    __slots__ = ()

    def __matmul__(self, other: SpinMatrix2 | Spinor):
        a11, a12, a21, a22 = self._c
        if isinstance(other, Spinor):
            c1, c2 = other._c
            return Spinor._make((a11 * c1 + a12 * c2, a21 * c1 + a22 * c2))
        b11, b12, b21, b22 = other._c
        return SpinMatrix2._make((a11 * b11 + a12 * b21, a11 * b12 + a12 * b22,
                                  a21 * b11 + a22 * b21, a21 * b12 + a22 * b22))

    def transpose(self) -> SpinMatrix2:
        return SpinMatrix2._make((self.a11, self.a21, self.a12, self.a22))

    def __str__(self) -> str:
        return f"[[{self.a11}, {self.a12}], [{self.a21}, {self.a22}]]"


# Antisymmetric unit: C @ C = -identity.
C = SpinMatrix2(0, 1, -1, 0)


def sigma(q: Quaternion) -> Spinor:
    """Linear injective image of a quaternion: [q3 + i*q0; q1 + i*q2]."""
    q0, q1, q2, q3 = q._c
    return Spinor._make((GaussScalar._make((q3, q0)), GaussScalar._make((q1, q2))))


def sigma_inv(s: Spinor) -> Quaternion:
    """Inverse of sigma on its image: recovers (q0, q1, q2, q3)."""
    return Quaternion._make((s.c1.im, s.c2.re, s.c2.im, s.c1.re))


def complex_conjugate(s: Spinor) -> Spinor:
    """Componentwise complex conjugate."""
    return Spinor._make((s.c1.conjugate(), s.c2.conjugate()))


def cartan_conjugate(s: Spinor) -> Spinor:
    """i * C @ conjugate(s) = [i*conj(c2); -i*conj(c1)]."""
    return I * (C @ complex_conjugate(s))


def mate(s: Spinor) -> Spinor:
    """-C @ conjugate(s) = [-conj(c2); conj(c1)]."""
    return -(C @ complex_conjugate(s))


def breve(q: Quaternion) -> SpinMatrix2:
    """2x2 representation of a quaternion; its first column is sigma(q) and
    sigma(p * q) = -i * breve(p) @ sigma(q)."""
    q0, q1, q2, q3 = q._c
    return SpinMatrix2._make((
        GaussScalar._make((q3, q0)), GaussScalar._make((q1, -q2)),
        GaussScalar._make((q1, q2)), GaussScalar._make((-q3, q0)),
    ))


def spinor_dot(u: Spinor, v: Spinor) -> GaussScalar:
    """Plain bilinear pairing u1*v1 + u2*v2 (no conjugation)."""
    return u.c1 * v.c1 + u.c2 * v.c2


def bilinear_form(row: Spinor, m: SpinMatrix2, col: Spinor) -> GaussScalar:
    """transpose(row) * m * col with a plain (unconjugated) transpose."""
    return spinor_dot(row, m @ col)


def spinor_norm(s: Spinor) -> GaussScalar:
    """|c1|^2 + |c2|^2; always real and nonnegative."""
    return spinor_dot(complex_conjugate(s), s)


def spinor_window(v: Sequence[Rational], n: int = 0) -> Spinor:
    """Spinor [v[n+3] + i*v[n]; v[n+1] + i*v[n+2]] of four consecutive terms,
    read off a list of terms. It is built from the terms themselves, not as
    sigma of the window quaternion, so that checks comparing the two stay
    independent."""
    return Spinor(GaussScalar(v[n + 3], v[n]), GaussScalar(v[n + 1], v[n + 2]))


def trib_spinor(p: SeqParams, n: int) -> Spinor:
    """Spinor [V(n+3) + i*V(n); V(n+1) + i*V(n+2)]; equals
    sigma(trib_quaternion(p, n))."""
    return spinor_window(seq_slice(p, n, 4))
