"""Expected outputs the benchmark derives on its own, without the library.

Nothing here imports trispinor: terms come from powers of the 3x3 companion
matrix, and the expected identity statuses from the parameters alone.
"""

from __future__ import annotations

from fractions import Fraction

Params = tuple[Fraction, Fraction, Fraction, Fraction, Fraction, Fraction]
Matrix = list[list[Fraction]]

TRIBONACCI: Params = tuple(Fraction(x) for x in (1, 1, 1, 0, 1, 1))  # type: ignore[assignment]

# Declaration order of the identities, as the suite reports them.
IDENTITIES = (
    "recurrence", "conjugates", "norm", "binet", "genfunc", "triple_product",
    "spinor_matrix", "determinant", "summation", "u_decomposition", "matrix_power",
)

# A prime for the cheap modular check of long slices.
_PRIME = (1 << 61) - 1


def _matmul(a: Matrix, b: Matrix) -> Matrix:
    return [[sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)] for i in range(3)]


def companion_power(p: Params, n: int) -> Matrix:
    """C**n for C = [[r, s, t], [1, 0, 0], [0, 1, 0]], by repeated squaring."""
    r, s, t = p[:3]
    base = [[r, s, t], [Fraction(1), Fraction(0), Fraction(0)], [Fraction(0), Fraction(1), Fraction(0)]]
    result = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    while n:
        if n & 1:
            result = _matmul(result, base)
        n >>= 1
        if n:
            base = _matmul(base, base)
    return result


def terms(p: Params, n: int, count: int) -> list[Fraction]:
    """V(n), ..., V(n + count - 1), from the window C**n applied to (V2, V1, V0)."""
    window = [p[5], p[4], p[3]]  # (V(k+2), V(k+1), V(k)) at k = 0
    m = companion_power(p, n)
    window = [sum(m[i][k] * window[k] for k in range(3)) for i in range(3)]
    out = []
    r, s, t = p[:3]
    for _ in range(count):
        out.append(window[2])
        window = [r * window[0] + s * window[1] + t * window[2], window[0], window[1]]
    return out


def _residue(x: Fraction) -> int | None:
    den = x.denominator % _PRIME
    return None if den == 0 else x.numerator * pow(den, -1, _PRIME) % _PRIME


def slice_ok(p: Params, values: list[Fraction], n: int) -> bool:
    """Check values == V(0), ..., V(n).

    The three seeds and the last three terms are compared exactly with the
    matrix power. Every term in between is checked against the recurrence
    modulo a 61-bit prime, which catches any wrong value except with
    negligible probability at a small fraction of the exact cost.
    """
    if len(values) != n + 1:
        return False
    if n < 5:
        return values == terms(p, 0, n + 1)
    if values[:3] != list(p[3:]) or values[n - 2:] != terms(p, n - 2, 3):
        return False
    coeffs = [_residue(c) for c in p[:3]]
    res = [_residue(v) for v in values]
    if None in coeffs or None in res:
        return values == terms(p, 0, n + 1)
    r, s, t = coeffs
    return all(
        res[k + 3] == (r * res[k + 2] + s * res[k + 1] + t * res[k]) % _PRIME
        for k in range(n - 2)
    )


def _poly_rem(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    # Coefficients from the highest degree down; b has a nonzero lead.
    a = list(a)
    while len(a) >= len(b):
        k = a[0] / b[0]
        a = [x - k * y for x, y in zip(a, b + [Fraction(0)] * (len(a) - len(b)))][1:]
        while a and a[0] == 0:
            a.pop(0)
    return a


def has_repeated_root(r: Fraction, s: Fraction, t: Fraction) -> bool:
    """x^3 - r x^2 - s x - t has a repeated root iff gcd(f, f') is not constant."""
    f = [Fraction(1), -r, -s, -t]
    g = [Fraction(3), -2 * r, -s]
    while g:
        f, g = g, _poly_rem(f, g)
    return len(f) > 1


def expected_status(identity: str, p: Params) -> str:
    """The status a correct suite reports for one identity on parameters p."""
    r, s, t = p[:3]
    if identity == "binet":
        return "skipped" if has_repeated_root(r, s, t) else "tolered_pass"
    if identity == "summation" and r + s + t == 1:
        return "skipped"
    if identity == "determinant" and p != TRIBONACCI:
        return "skipped"
    return "exact_pass"
