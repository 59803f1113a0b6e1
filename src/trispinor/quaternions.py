"""Hamilton quaternions over exact rationals and the quaternions built from
consecutive terms of a third-order recurrence."""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .gauss import Rational, _Exact, rat
from .sequences import Matrix3, SeqParams, seq_slice, u_companion


class DegenerateDelta(ArithmeticError):
    """The closed-form partial sum divides by r + s + t - 1, which is zero here."""

    # A default, not a fixed message: pickling calls the class with self.args.
    def __init__(self, message: str = "r + s + t - 1 = 0: closed-form sum "
                 "undefined for these parameters") -> None:
        super().__init__(message)


class Quaternion(_Exact, fields="q0 q1 q2 q3", coerce=rat):
    """Quaternion with exact rational components over the basis e0, e1, e2, e3.

    ``*`` scales every component by a rational scalar, which rat coerces;
    the Hamilton product of two quaternions is `qmul`.
    """

    __slots__ = ()

    def __mul__(self, other: Rational) -> Quaternion:
        return self._scaled(rat(other))

    __rmul__ = __mul__  # a rational scalar commutes

    def __str__(self) -> str:
        return f"({self.q0}, {self.q1}, {self.q2}, {self.q3})"


def qmul(p: Quaternion, q: Quaternion) -> Quaternion:
    """Hamilton product; non-commutative (e1*e2 = e3 = -(e2*e1))."""
    p0, p1, p2, p3 = p
    q0, q1, q2, q3 = q
    return Quaternion._make((
        p0 * q0 - p1 * q1 - p2 * q2 - p3 * q3,
        p0 * q1 + p1 * q0 + p2 * q3 - p3 * q2,
        p0 * q2 - p1 * q3 + p2 * q0 + p3 * q1,
        p0 * q3 + p1 * q2 - p2 * q1 + p3 * q0,
    ))


def qconj(q: Quaternion) -> Quaternion:
    """Quaternion conjugate: the vector part is negated."""
    return Quaternion._make((q.q0, -q.q1, -q.q2, -q.q3))


def qnorm(q: Quaternion) -> Rational:
    """Sum of squared components; equals the scalar part of q * qconj(q)."""
    return q.q0 ** 2 + q.q1 ** 2 + q.q2 ** 2 + q.q3 ** 2


def quat_window(v: Sequence[Rational], n: int = 0) -> Quaternion:
    """Quaternion (v[n], v[n+1], v[n+2], v[n+3]) of four consecutive terms,
    read off a list of terms as seq_slice returns them, each an int or a
    Fraction in lowest terms: the terms are the components, unchanged. Each
    is read by its index, so a list that ends before v[n+3] raises IndexError."""
    return Quaternion._make((v[n], v[n + 1], v[n + 2], v[n + 3]))


def k_window(p: SeqParams, v: Sequence[Rational], n: int = 0) -> Quaternion:
    """s*Q(n+1) + t*Q(n), summed component by component from a list of terms
    as seq_slice returns them; each component is coerced by rat."""
    s, t = p.s, p.t
    a, b, c, d, e = v[n:n + 5]
    return Quaternion._make(map(rat, (s * b + t * a, s * c + t * b, s * d + t * c, s * e + t * d)))


def sum_window(p: SeqParams, v: Sequence[Rational], n: int = 0) -> Quaternion:
    """Q(n+2) + (1-r)*Q(n+1) + t*Q(n), with the window quaternions read off a
    list of terms: the closed-form partial sum, scaled by delta, without its
    constant omega. Summed component by component; each component is coerced by rat."""
    r1, t = 1 - p.r, p.t
    return Quaternion._make(rat(v[m + 2] + r1 * v[m + 1] + t * v[m]) for m in range(n, n + 4))


def trib_quaternion(p: SeqParams, n: int) -> Quaternion:
    """Quaternion (V(n), V(n+1), V(n+2), V(n+3))."""
    return quat_window(seq_slice(p, n, 4))


QvRows = tuple[tuple[Quaternion, Quaternion, Quaternion], ...]


def qv_matrix(p: SeqParams, shift: int = 0) -> QvRows:
    """Rows of the window matrix with the given shift n, the window quaternions
    read off seq_slice(p, n, 8) as Q(n+m) = quat_window(v, m). Row i is
    (Q(n+4-i), s*Q(n+3-i) + t*Q(n+2-i), t*Q(n+3-i))."""
    v = seq_slice(p, shift, 8)
    return tuple(
        (quat_window(v, 4 - i), k_window(p, v, 2 - i), p.t * quat_window(v, 3 - i))
        for i in range(3)
    )


def qv_right_multiply(rows: QvRows, m: Matrix3) -> QvRows:
    """Right-multiply a 3x3 matrix of quaternions by an exact scalar 3x3 matrix.

    Scalars commute with quaternions, so each result entry is a scalar
    combination of the row's quaternions; no Hamilton products occur. Each of
    the 9 results is built once, component by component, from the row's three
    quaternions zipped over their components.
    """
    (m0, m1, m2), (m3, m4, m5), (m6, m7, m8) = m
    make = Quaternion._make
    return tuple([(make([x * m0 + y * m3 + z * m6 for x, y, z in xyz]),
                   make([x * m1 + y * m4 + z * m7 for x, y, z in xyz]),
                   make([x * m2 + y * m5 + z * m8 for x, y, z in xyz]))
                  for xyz in [tuple(zip(a, b, c)) for a, b, c in rows]])


def u_setup(p: SeqParams) -> tuple[SeqParams, tuple[tuple[Rational, Rational, Rational], ...]]:
    """quat_u_decomposition's n-free part for p, to pass as its third argument:
    the tuple (u, rows) of U's parameters (u_companion), and for each m, component
    m of Q(2), s*Q(1) + t*Q(0) and t*Q(1), read off V(0..5), each coerced by rat."""
    s, t = p.s, p.t
    v = seq_slice(p, 0, 6)
    rows = tuple((v[m + 2], rat(s * v[m + 1] + t * v[m]), rat(t * v[m + 1])) for m in range(4))
    return u_companion(p), rows


def quat_u_decomposition(p: SeqParams, n: int, setup: tuple | None = None) -> Quaternion:
    """Combination Q(2)*U(n+2) + (s*Q(1) + t*Q(0))*U(n+1) + t*Q(1)*U(n), where
    U is the companion sequence seeded (0, 0, 1); equals Q(n+2). The set-up is
    u_setup(p) unless given; the step reads U(n), U(n+1) and U(n+2) at once, past
    n = 0 by a jump of the power kernel, and sums component by component, each
    component coerced by rat."""
    u, rows = setup or u_setup(p)
    u0, u1, u2 = seq_slice(u, n, 3)
    return Quaternion._make([rat(u2 * a + u1 * b + u0 * c) for a, b, c in rows])


def summation_correction(p: SeqParams) -> Quaternion:
    """Constant omega of the closed-form partial sum: lambda = (r + s - 1)*v0 +
    (r - 1)*v1 - v2, less running seed sums times delta = r + s + t - 1."""
    delta = p.r + p.s + p.t - 1
    lambda_ = (p.r + p.s - 1) * p.v0 + (p.r - 1) * p.v1 - p.v2
    return Quaternion(
        lambda_,
        lambda_ - delta * p.v0,
        lambda_ - delta * (p.v0 + p.v1),
        lambda_ - delta * (p.v0 + p.v1 + p.v2),
    )


def quat_partial_sum(p: SeqParams, n: int) -> Quaternion:
    """Closed form of Q(0) + ... + Q(n); requires delta = r + s + t - 1 != 0."""
    delta = p.r + p.s + p.t - 1
    if delta == 0:
        raise DegenerateDelta()
    total = sum_window(p, seq_slice(p, n, 6)) + summation_correction(p)
    return Quaternion(*(Fraction(x) / delta for x in total))
