"""Third-order linear recurrences V(n) = r*V(n-1) + s*V(n-2) + t*V(n-3) over exact rationals."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterator

Matrix3 = tuple[
    tuple[Fraction, Fraction, Fraction],
    tuple[Fraction, Fraction, Fraction],
    tuple[Fraction, Fraction, Fraction],
]


class UnknownPreset(ValueError):
    """Raised for preset names this library does not define."""


@dataclass(frozen=True)
class SeqParams:
    """Recurrence coefficients (r, s, t) and seed values (v0, v1, v2)."""

    r: Fraction
    s: Fraction
    t: Fraction
    v0: Fraction
    v1: Fraction
    v2: Fraction

    def __post_init__(self) -> None:
        for name in ("r", "s", "t", "v0", "v1", "v2"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))

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


def _iter_terms(p: SeqParams) -> Iterator[Fraction]:
    a, b, c = p.v0, p.v1, p.v2
    while True:
        yield a
        a, b, c = b, c, p.r * c + p.s * b + p.t * a


def seq_term(p: SeqParams, n: int) -> Fraction:
    """n-th term of the recurrence, exact."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    return next(islice(_iter_terms(p), n, None))


def seq_slice(p: SeqParams, n0: int, length: int) -> list[Fraction]:
    """Terms n0 .. n0+length-1 in one forward pass."""
    if n0 < 0:
        raise ValueError("start index must be nonnegative")
    if length < 0:
        raise ValueError("length must be nonnegative")
    return list(islice(_iter_terms(p), n0, n0 + length))


def companion_matrix(p: SeqParams) -> Matrix3:
    """The matrix [[r, s, t], [1, 0, 0], [0, 1, 0]] that shifts term windows."""
    one, zero = Fraction(1), Fraction(0)
    return (
        (p.r, p.s, p.t),
        (one, zero, zero),
        (zero, one, zero),
    )


def identity3() -> Matrix3:
    one, zero = Fraction(1), Fraction(0)
    return ((one, zero, zero), (zero, one, zero), (zero, zero, one))


def mat_mul3(a: Matrix3, b: Matrix3) -> Matrix3:
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )  # type: ignore[return-value]


def companion_power(p: SeqParams, n: int) -> Matrix3:
    """n-th power of the companion matrix by repeated squaring, exact."""
    if n < 0:
        raise ValueError("exponent must be nonnegative")
    result = identity3()
    base = companion_matrix(p)
    while n:
        if n & 1:
            result = mat_mul3(result, base)
        n >>= 1
        if n:
            base = mat_mul3(base, base)
    return result
