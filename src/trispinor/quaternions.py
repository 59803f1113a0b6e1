"""Hamilton quaternions over exact rationals and the quaternions built from
consecutive terms of a third-order recurrence."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .sequences import Matrix3, SeqParams, seq_slice

Rational = Fraction | int


class DegenerateDelta(ArithmeticError):
    """The closed-form partial sum divides by r + s + t - 1, which is zero here."""


@dataclass(frozen=True)
class Quaternion:
    """Quaternion with exact rational components over the basis e0, e1, e2, e3.

    ``*`` is the Hamilton product when both operands are quaternions and
    componentwise scaling when one operand is a rational scalar.
    """

    q0: Fraction
    q1: Fraction
    q2: Fraction
    q3: Fraction

    def __post_init__(self) -> None:
        for name in ("q0", "q1", "q2", "q3"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))

    def __add__(self, other: Quaternion) -> Quaternion:
        return Quaternion(
            self.q0 + other.q0, self.q1 + other.q1,
            self.q2 + other.q2, self.q3 + other.q3,
        )

    def __sub__(self, other: Quaternion) -> Quaternion:
        return Quaternion(
            self.q0 - other.q0, self.q1 - other.q1,
            self.q2 - other.q2, self.q3 - other.q3,
        )

    def __neg__(self) -> Quaternion:
        return Quaternion(-self.q0, -self.q1, -self.q2, -self.q3)

    def __mul__(self, other: Quaternion | Rational) -> Quaternion:
        if isinstance(other, Quaternion):
            return qmul(self, other)
        k = Fraction(other)
        return Quaternion(k * self.q0, k * self.q1, k * self.q2, k * self.q3)

    def __rmul__(self, other: Rational) -> Quaternion:
        k = Fraction(other)
        return Quaternion(k * self.q0, k * self.q1, k * self.q2, k * self.q3)

    def __str__(self) -> str:
        return f"({self.q0}, {self.q1}, {self.q2}, {self.q3})"


ZERO = Quaternion(0, 0, 0, 0)
ONE = Quaternion(1, 0, 0, 0)
E1 = Quaternion(0, 1, 0, 0)
E2 = Quaternion(0, 0, 1, 0)
E3 = Quaternion(0, 0, 0, 1)


def qmul(p: Quaternion, q: Quaternion) -> Quaternion:
    """Hamilton product; non-commutative (e1*e2 = e3 = -(e2*e1))."""
    return Quaternion(
        p.q0 * q.q0 - p.q1 * q.q1 - p.q2 * q.q2 - p.q3 * q.q3,
        p.q0 * q.q1 + p.q1 * q.q0 + p.q2 * q.q3 - p.q3 * q.q2,
        p.q0 * q.q2 - p.q1 * q.q3 + p.q2 * q.q0 + p.q3 * q.q1,
        p.q0 * q.q3 + p.q1 * q.q2 - p.q2 * q.q1 + p.q3 * q.q0,
    )


def qconj(q: Quaternion) -> Quaternion:
    """Quaternion conjugate: the vector part is negated."""
    return Quaternion(q.q0, -q.q1, -q.q2, -q.q3)


def qnorm(q: Quaternion) -> Fraction:
    """Sum of squared components; equals the scalar part of q * qconj(q)."""
    return q.q0 ** 2 + q.q1 ** 2 + q.q2 ** 2 + q.q3 ** 2


def quat_window(v: Sequence[Rational], n: int = 0) -> Quaternion:
    """Quaternion (v[n], v[n+1], v[n+2], v[n+3]) of four consecutive terms,
    read off a list of terms."""
    return Quaternion(v[n], v[n + 1], v[n + 2], v[n + 3])


def k_window(p: SeqParams, v: Sequence[Rational], n: int = 0) -> Quaternion:
    """s*Q(n+1) + t*Q(n), with the window quaternions read off a list of terms."""
    return p.s * quat_window(v, n + 1) + p.t * quat_window(v, n)


def trib_quaternion(p: SeqParams, n: int) -> Quaternion:
    """Quaternion (V(n), V(n+1), V(n+2), V(n+3))."""
    return quat_window(seq_slice(p, n, 4))


def k_quaternion(p: SeqParams, n: int) -> Quaternion:
    """Middle-column entry of the window matrix: s*Q(n+1) + t*Q(n)."""
    return k_window(p, seq_slice(p, n, 5))


@dataclass(frozen=True)
class QvMatrix:
    """3x3 matrix of quaternions assembled from a window of consecutive terms.

    Row i of a matrix with shift n is
    (Q(n+4-i), s*Q(n+3-i) + t*Q(n+2-i), t*Q(n+3-i)).
    """

    entries: tuple[tuple[Quaternion, Quaternion, Quaternion], ...]
    shift: int


def qv_matrix(p: SeqParams, shift: int = 0) -> QvMatrix:
    if shift < 0:
        raise ValueError("shift must be nonnegative")
    v = seq_slice(p, shift, 8)
    rows = tuple(
        (quat_window(v, 4 - i), k_window(p, v, 2 - i), p.t * quat_window(v, 3 - i))
        for i in range(3)
    )
    return QvMatrix(rows, shift)


def qv_right_multiply(
    qv: QvMatrix, m: Matrix3
) -> tuple[tuple[Quaternion, Quaternion, Quaternion], ...]:
    """Right-multiply the quaternion grid by an exact scalar 3x3 matrix.

    Scalars commute with quaternions, so each result entry is a scalar
    combination of the row's quaternions; no Hamilton products occur.
    """
    return tuple(
        tuple(
            sum((m[k][j] * qv.entries[i][k] for k in range(3)), ZERO)
            for j in range(3)
        )
        for i in range(3)
    )


def quat_u_decomposition(p: SeqParams, n: int) -> Quaternion:
    """Combination Q(2)*U(n+2) + (s*Q(1) + t*Q(0))*U(n+1) + t*Q(1)*U(n), where
    U is the companion sequence seeded (0, 0, 1); equals Q(n+2)."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    v = seq_slice(p, 0, 6)
    u_n, u_n1, u_n2 = seq_slice(SeqParams(p.r, p.s, p.t, 0, 0, 1), n, 3)
    return u_n2 * quat_window(v, 2) + u_n1 * k_window(p, v) + (p.t * u_n) * quat_window(v, 1)


@dataclass(frozen=True)
class SummationCorrection:
    """Constants of the closed-form partial sum:

    delta = r + s + t - 1,
    lambda = (r + s - 1)*v0 + (r - 1)*v1 - v2,
    omega  = quaternion of lambda shifted by running seed sums.
    """

    delta: Fraction
    lambda_: Fraction
    omega: Quaternion


def summation_correction(p: SeqParams) -> SummationCorrection:
    delta = p.r + p.s + p.t - 1
    lambda_ = (p.r + p.s - 1) * p.v0 + (p.r - 1) * p.v1 - p.v2
    omega = Quaternion(
        lambda_,
        lambda_ - delta * p.v0,
        lambda_ - delta * (p.v0 + p.v1),
        lambda_ - delta * (p.v0 + p.v1 + p.v2),
    )
    return SummationCorrection(delta, lambda_, omega)


def quat_partial_sum(p: SeqParams, n: int) -> Quaternion:
    """Closed form of Q(0) + ... + Q(n); requires delta = r + s + t - 1 != 0."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    corr = summation_correction(p)
    if corr.delta == 0:
        raise DegenerateDelta(
            "r + s + t - 1 = 0: closed-form sum undefined, sum terms directly"
        )
    v = seq_slice(p, n, 6)
    total = (quat_window(v, 2) + (1 - p.r) * quat_window(v, 1) + p.t * quat_window(v)
             + corr.omega)
    return (Fraction(1) / corr.delta) * total
