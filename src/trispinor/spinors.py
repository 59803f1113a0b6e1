"""Spinors (2-component exact complex columns), their conjugations, the linear
map from quaternions, and the 2x2 matrix representation of quaternion products."""

from __future__ import annotations

from typing import Sequence

from .gauss import GaussScalar, Rational, _GaussEntries
from .quaternions import Quaternion
from .sequences import SeqParams, seq_slice


class Spinor(_GaussEntries, fields="c1 c2"):
    """Column of two Gaussian rationals, stored flat as (re c1, im c1, re c2,
    im c2)."""

    __slots__ = ()

    def __str__(self) -> str:
        return f"[{self.c1}; {self.c2}]"


class SpinMatrix2(_GaussEntries, fields="a11 a12 a21 a22"):
    """2x2 matrix of Gaussian rationals, stored flat row by row; ``@``
    multiplies matrices or applies the matrix to a spinor column."""

    __slots__ = ()

    def __matmul__(self, other: SpinMatrix2 | Spinor):
        # (re, im) pairs: a11 = (a, b), a12 = (c, d), a21 = (e, f), a22 = (g, h); those
        # of a spinor are (w, x) and (y, z). A matrix operand is taken column by column.
        a, b, c, d, e, f, g, h = self
        if type(other) is Spinor:
            w, x, y, z = other
            return Spinor._make((a * w - b * x + c * y - d * z, a * x + b * w + c * z + d * y,
                                 e * w - f * x + g * y - h * z, e * x + f * w + g * z + h * y))
        if type(other) is not SpinMatrix2:
            return NotImplemented
        p, q, r, s, t, u, v, w = other
        left, right = self @ Spinor._make((p, q, t, u)), self @ Spinor._make((r, s, v, w))
        return SpinMatrix2._make(left[:2] + right[:2] + left[2:] + right[2:])

    def __str__(self) -> str:
        return f"[[{self.a11}, {self.a12}], [{self.a21}, {self.a22}]]"


# Antisymmetric unit: C @ C = -identity.
C = SpinMatrix2(0, 1, -1, 0)


def sigma(q: Quaternion) -> Spinor:
    """Linear injective image of a quaternion: [q3 + i*q0; q1 + i*q2]."""
    q0, q1, q2, q3 = q
    return Spinor._make((q3, q0, q1, q2))


def sigma_inv(s: Spinor) -> Quaternion:
    """Inverse of sigma on its image: recovers (q0, q1, q2, q3)."""
    return Quaternion._make(s[1:] + s[:1])


def complex_conjugate(s: Spinor) -> Spinor:
    """Componentwise complex conjugate."""
    w, x, y, z = s
    return Spinor._make((w, -x, y, -z))


def cartan_conjugate(s: Spinor) -> Spinor:
    """[i*conj(c2); -i*conj(c1)]; the conjugates check proves it is i * C @ conjugate(s)."""
    w, x, y, z = s
    return Spinor._make((z, y, -x, -w))


def mate(s: Spinor) -> Spinor:
    """[-conj(c2); conj(c1)]; the conjugates check proves it is -C @ conjugate(s)."""
    w, x, y, z = s
    return Spinor._make((-y, z, w, -x))


def breve(q: Quaternion) -> SpinMatrix2:
    """2x2 representation of a quaternion; its first column is sigma(q) and
    sigma(p * q) = -i * breve(p) @ sigma(q)."""
    q0, q1, q2, q3 = q
    return SpinMatrix2._make((q3, q0, q1, -q2, q1, q2, -q3, q0))


def spinor_dot(u: Spinor, v: Spinor) -> GaussScalar:
    """Plain bilinear pairing u1*v1 + u2*v2 (no conjugation)."""
    a, b, c, d = u
    w, x, y, z = v
    return GaussScalar._make((a * w - b * x + c * y - d * z, a * x + b * w + c * z + d * y))


def spinor_norm(s: Spinor) -> GaussScalar:
    """|c1|^2 + |c2|^2; always real and nonnegative."""
    return spinor_dot(complex_conjugate(s), s)


def spinor_window(v: Sequence[Rational], n: int = 0) -> Spinor:
    """Spinor [v[n+3] + i*v[n]; v[n+1] + i*v[n+2]] of four consecutive terms,
    read off a list of terms as seq_slice returns them, each an int or a
    Fraction in lowest terms: the terms are the components, unchanged. It is built
    from the terms themselves, not as sigma of the window quaternion, so that
    checks comparing the two stay independent."""
    return Spinor._make((v[n + 3], v[n], v[n + 1], v[n + 2]))


def trib_spinor(p: SeqParams, n: int) -> Spinor:
    """Spinor [V(n+3) + i*V(n); V(n+1) + i*V(n+2)]; equals
    sigma(trib_quaternion(p, n))."""
    return spinor_window(seq_slice(p, n, 4))
