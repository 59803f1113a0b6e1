"""Third-order linear recurrences V(n) = r*V(n-1) + s*V(n-2) + t*V(n-3) over exact rationals."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterator

from .gauss import Rational, rat

Matrix3 = tuple[
    tuple[Rational, Rational, Rational],
    tuple[Rational, Rational, Rational],
    tuple[Rational, Rational, Rational],
]


class UnknownPreset(ValueError):
    """Raised for preset names this library does not define."""


@dataclass(frozen=True)
class SeqParams:
    """Recurrence coefficients (r, s, t) and seed values (v0, v1, v2)."""

    r: Rational
    s: Rational
    t: Rational
    v0: Rational
    v1: Rational
    v2: Rational

    def __post_init__(self) -> None:
        for name in ("r", "s", "t", "v0", "v1", "v2"):
            object.__setattr__(self, name, rat(getattr(self, name)))

    def __str__(self) -> str:
        return (
            f"(r={self.r}, s={self.s}, t={self.t}; "
            f"v0={self.v0}, v1={self.v1}, v2={self.v2})"
        )


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
    """Terms from V(n0) on. A start past 0 jumps there by the companion power
    applied to the seed window; from 0 the terms are iterated only."""
    a, b, c = p.v0, p.v1, p.v2
    if n0:
        c, b, a = (x * p.v2 + y * p.v1 + z * p.v0 for x, y, z in companion_power(p, n0))
    while True:
        yield a
        a, b, c = b, c, p.r * c + p.s * b + p.t * a


def seq_term(p: SeqParams, n: int) -> Rational:
    """n-th term of the recurrence, exact, in O(log n) matrix products."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    return next(_iter_terms(p, n))


def seq_slice(p: SeqParams, n0: int, length: int) -> list[Rational]:
    """Terms n0 .. n0+length-1 in one forward pass, after a jump to n0 by the
    companion power if n0 > 0. A slice from 0 never uses the power."""
    if n0 < 0:
        raise ValueError("start index must be nonnegative")
    if length < 0:
        raise ValueError("length must be nonnegative")
    return list(islice(_iter_terms(p, n0), length))


def companion_matrix(p: SeqParams) -> Matrix3:
    """The matrix [[r, s, t], [1, 0, 0], [0, 1, 0]] that shifts term windows."""
    return ((p.r, p.s, p.t), (1, 0, 0), (0, 1, 0))


def mat_mul3(a: Matrix3, b: Matrix3) -> Matrix3:
    """The 3x3 product a*b. Its three products are added directly, so the
    entries of a may also be quaternions scaled by the rationals of b."""
    return tuple(
        tuple(a[i][0] * b[0][j] + a[i][1] * b[1][j] + a[i][2] * b[2][j] for j in range(3))
        for i in range(3)
    )  # type: ignore[return-value]


def companion_power(p: SeqParams, n: int) -> Matrix3:
    """n-th power of the companion matrix by repeated squaring, exact."""
    if n < 0:
        raise ValueError("exponent must be nonnegative")
    result = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    base = companion_matrix(p)
    while n:
        if n & 1:
            result = mat_mul3(result, base)
        n >>= 1
        if n:
            base = mat_mul3(base, base)
    return result
