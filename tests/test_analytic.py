import cmath
import hashlib
import itertools
import math
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from trispinor import analytic
from trispinor import (
    DegenerateRoots,
    GaussScalar,
    IdentityId,
    SeqParams,
    Spinor,
    binet_spinor,
    cubic_roots,
    determinant_combination_values,
    genfunc_numerator,
    preset,
    random_params,
    run_identity,
    seq_slice,
    trib_spinor,
)
from trispinor.analytic import binet_setup, genfunc_coefficient, genfunc_setup
from trispinor.spinors import spinor_window

TRIB = preset("tribonacci")
JAC = preset("third_order_jacobsthal")


def test_tribonacci_roots():
    alpha, omega1, omega2 = cubic_roots(1, 1, 1)
    assert abs(alpha - 1.839286755214161) < 1e-12
    assert abs(omega1) < 1 and abs(omega2) < 1
    assert abs(omega1 - omega2.conjugate()) < 1e-12


def test_unit_circle_roots():
    roots = cubic_roots(0, 0, 1)  # x^3 = 1
    expected = sorted(
        (1 + 0j, cmath.exp(2j * cmath.pi / 3), cmath.exp(-2j * cmath.pi / 3)),
        key=lambda z: (z.real, z.imag), reverse=True,
    )
    for got, want in zip(roots, expected):
        assert abs(got - want) < 1e-12


def test_triple_root_flagged():
    with pytest.raises(DegenerateRoots, match="^repeated characteristic roots$"):
        cubic_roots(3, -3, 1)  # (x - 1)^3


def test_vieta_residuals():
    rng = random.Random(19)
    for _ in range(40):
        r, s, t = (rng.randint(-5, 5) for _ in range(3))
        a, w1, w2 = cubic_roots(r, s, t)
        scale = 1e-9 * (1 + abs(r) + abs(s) + abs(t))
        assert abs(a + w1 + w2 - r) < scale
        assert abs(a * w1 + a * w2 + w1 * w2 + s) < scale
        assert abs(a * w1 * w2 - t) < scale


coefficients = st.one_of(
    st.integers(-5, 5).map(Fraction),
    st.fractions(min_value=-10, max_value=10, max_denominator=9),
)


@settings(max_examples=300, deadline=None)
@given(coefficients, coefficients, coefficients,
       st.sampled_from([-120, 0, 120]), st.sampled_from([-40, 0, 40]))
def test_cubic_roots_properties(r, s, t, uniform, homogeneous):
    # Every coefficient times 10^uniform, then x -> 10^homogeneous * x.
    k, lam = Fraction(10) ** uniform, Fraction(10) ** homogeneous
    r, s, t = r * k * lam, s * k * lam**2, t * k * lam**3
    b, c, d = -r, -s, -t
    disc = 18 * b * c * d - 4 * b**3 * d + b**2 * c**2 - 4 * c**3 - 27 * d**2
    if disc == 0:
        with pytest.raises(DegenerateRoots, match="^repeated"):
            cubic_roots(r, s, t)
        return
    # The solver's roots, which cubic_roots returns unless two lie too close.
    zs = sorted(analytic._solve(r, s, t, disc), key=lambda z: (z.real, z.imag), reverse=True)
    if min(abs(x - y) for x, y in itertools.combinations(zs, 2)) < 1e-8 * (1 + max(map(abs, zs))):
        with pytest.raises(DegenerateRoots, match="^characteristic roots closer"):
            cubic_roots(r, s, t)
    else:
        assert cubic_roots(r, s, t) == tuple(zs)
    assert all(math.isfinite(z.real) and math.isfinite(z.imag) for z in zs)
    assert list(zs) == sorted(zs, key=lambda z: (z.real, z.imag), reverse=True)
    # Vieta, with the roots and coefficients scaled by m.
    m = max(abs(float(r)), math.sqrt(abs(float(s))), abs(float(t)) ** (1 / 3)) or 1.0
    y1, y2, y3 = (z / m for z in zs)
    assert abs(y1 + y2 + y3 - float(r) / m) <= 1e-13
    assert abs(y1 * y2 + y1 * y3 + y2 * y3 + float(s) / m / m) <= 1e-13
    assert abs(y1 * y2 * y3 - float(t) / m / m / m) <= 1e-13
    if disc > 0:
        assert all(z.imag == 0 for z in zs)
    if disc < 0:
        real = [z for z in zs if z.imag == 0]
        pair = [z for z in zs if z.imag != 0]
        assert len(real) == 1 and pair[0] == pair[1].conjugate() and pair[0].imag > 0


def test_refusal_is_the_exact_rule_on_the_sweep_domain():
    # Over param-sweep's [-5, 5]^3 the float gap test never fires: cubic_roots
    # refuses exactly the cubics with a repeated root, so binet skips no other set.
    refused = []
    for r, s, t in itertools.product(range(-5, 6), repeat=3):
        disc = r**2 * s**2 + 4 * s**3 - 4 * r**3 * t - 18 * r * s * t - 27 * t**2
        try:
            cubic_roots(r, s, t)
        except DegenerateRoots:
            refused.append((r, s, t))
        assert (disc == 0) == (refused[-1:] == [(r, s, t)])
    assert len(refused) == 27


def test_import_does_not_load_numpy():
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = (f"import sys; sys.path.insert(0, {src!r}); import trispinor; "
            "print('numpy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out == "False\n"


def _sweep_sets():
    """The parameter sweep's sets: 40 integer and 40 rational (denominators 1-3)."""
    rng = random.Random(7)
    sets = [random_params(rng) for _ in range(40)]
    rng = random.Random(7)
    return sets + [SeqParams(*(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(6)))
                   for _ in range(40)]


def _lagrange_weight(p, x):
    """Root x's weight in V(n) = sum of w*x^n, in the paper's Lagrange form P(x)/f'(x):
    P(x) = v2 - (y + z)*v1 + y*z*v0 for the other roots y and z, written through
    y + z = r - x and y*z = x^2 - r*x - s, and f'(x) = 3x^2 - 2rx - s for
    f(x) = x^3 - r*x^2 - s*x - t. Neither depends on how the roots are ordered."""
    r, s, v0, v1, v2 = map(float, (p.r, p.s, p.v0, p.v1, p.v2))
    return (v2 - (r - x) * v1 + (x * x - r * x - s) * v0) / (3 * x * x - 2 * r * x - s)


def test_binet_constants():
    checked = 0
    for p in _sweep_sets():
        try:
            roots, weights, _ = binet_setup(p)
        except DegenerateRoots:
            continue
        checked += 1
        for x, w in zip(roots, weights):
            want = _lagrange_weight(p, x)
            assert abs(w - want) <= 1e-12 * abs(want)
    assert checked > 60
    # Zero seeds weigh every root 0; seeds (0, 1, 1) weigh tribonacci's alpha
    # by alpha / f'(alpha), P being alpha itself.
    _, weights, _ = binet_setup(SeqParams(1, 1, 1, 0, 0, 0))
    assert weights == (0, 0, 0)
    (alpha, _, _), (w, _, _), _ = binet_setup(TRIB)
    assert abs(w * (3 * alpha**2 - 2 * alpha - 1) - alpha) < 1e-12
    with pytest.raises(DegenerateRoots):
        binet_setup(SeqParams(3, -3, 1, 0, 1, 1))


def _power_sum(p, n, column):
    """The closed form with another column, summed by hand over binet_setup(p)'s
    roots x and weights w: component l is the sum of w*x^n*column(x)[l]."""
    roots, weights, _ = binet_setup(p)
    return tuple(sum(w * x**n * c for w, x, c in zip(weights, roots, cs))
                 for cs in zip(*map(column, roots)))


def _binet_number(p, n):
    """Closed-form value of V(n), the column (1,); its imaginary part is rounding noise."""
    return _power_sum(p, n, lambda x: (1,))[0]


def _binet_quaternion(p, n):
    """Closed-form quaternion, the column (1, x, x^2, x^3): component l approximates V(n+l)."""
    return _power_sum(p, n, lambda x: (1, x, x**2, x**3))


def test_binet_number():
    assert abs(_binet_number(TRIB, 0)) < 1e-9
    assert abs(_binet_number(TRIB, 5) - 7) < 1e-9
    assert abs(_binet_number(JAC, 6) - 18) < 1e-9
    assert abs(_binet_number(TRIB, 20).imag) < 1e-9


def test_binet_quaternion():
    got = _binet_quaternion(TRIB, 0)
    for value, want in zip(got, (0, 1, 1, 2)):
        assert abs(value - want) < 1e-9
    got = _binet_quaternion(TRIB, 3)
    for value, want in zip(got, (2, 4, 7, 13)):
        assert abs(value - want) < 1e-9
    flat = SeqParams(1, 1, 1, 0, 0, 0)
    assert all(abs(x) < 1e-9 for x in _binet_quaternion(flat, 7))


def test_binet_spinor_values():
    c1, c2 = binet_spinor(TRIB, 0)
    assert abs(c1 - 2) < 1e-9 and abs(c2 - (1 + 1j)) < 1e-9
    c1, c2 = binet_spinor(TRIB, 3)
    assert abs(c1 - (13 + 2j)) < 1e-9 and abs(c2 - (4 + 7j)) < 1e-9
    c1, c2 = binet_spinor(TRIB, 4)
    assert abs(c1 - (24 + 4j)) < 1e-9 and abs(c2 - (7 + 13j)) < 1e-9


def test_binet_seed_011_collapses_constants_to_roots():
    # For seeds (0, 1, 1) the interpolation constants collapse onto the roots
    # themselves, raising every exponent by one.
    a, w1, w2 = cubic_roots(1, 1, 1)
    n = 2
    expected = [0j, 0j]
    for weight, x in (
        (a ** (n + 1) / ((a - w1) * (a - w2)), a),
        (-(w1 ** (n + 1)) / ((a - w1) * (w1 - w2)), w1),
        (w2 ** (n + 1) / ((a - w2) * (w1 - w2)), w2),
    ):
        expected[0] += weight * (x ** 3 + 1j)
        expected[1] += weight * (x + 1j * x ** 2)
    got = binet_spinor(TRIB, n)
    assert abs(got[0] - expected[0]) < 1e-9
    assert abs(got[1] - expected[1]) < 1e-9


def test_binet_tracks_exact_terms():
    for p in (TRIB, JAC):
        v = seq_slice(p, 0, 35)
        setup = binet_setup(p)
        for n in range(31):
            c1, c2 = binet_spinor(p, n, setup)
            for got, want in (
                (c1, complex(v[n + 3], v[n])),
                (c2, complex(v[n + 1], v[n + 2])),
            ):
                assert abs(got - want) / max(1.0, abs(want)) < 1e-9


def test_binet_degenerate_raises():
    with pytest.raises(DegenerateRoots):
        binet_spinor(SeqParams(3, -3, 1, 0, 1, 1), 5)
    with pytest.raises(DegenerateRoots):
        binet_setup(SeqParams(3, -3, 1, 0, 1, 1))


def test_root_relabeling_invariance():
    # The closed form summed by hand with omega1 and omega2 swapped.
    alpha, omega1, omega2 = cubic_roots(1, 1, 1)
    xs = (alpha, omega2, omega1)
    weights = [_lagrange_weight(TRIB, x) for x in xs]
    for n in (0, 4, 11, 25):
        got = binet_spinor(TRIB, n)
        want = (sum(g * x**n * (x**3 + 1j) for g, x in zip(weights, xs)),
                sum(g * x**n * (x + 1j * x**2) for g, x in zip(weights, xs)))
        assert abs(got[0] - want[0]) < 1e-9 and abs(got[1] - want[1]) < 1e-9


def test_sigma_of_binet_quaternion_is_binet_spinor():
    rng = random.Random(29)
    checked = 0
    while checked < 10:
        p = SeqParams(*(rng.randint(-5, 5) for _ in range(6)))
        try:
            cubic_roots(p.r, p.s, p.t)
        except DegenerateRoots:
            continue
        checked += 1
        for n in (0, 3, 9):
            q0, q1, q2, q3 = _binet_quaternion(p, n)
            c1, c2 = binet_spinor(p, n)
            for got, want in ((c1, q3 + 1j * q0), (c2, q1 + 1j * q2)):
                assert abs(got - want) / max(1.0, abs(want)) < 1e-9


def test_genfunc_numerator_tribonacci():
    # Components: [2 + 2x + x^2 + i*x ; 1 + i*(1 + x + x^2)]
    n0, n1, n2 = genfunc_numerator(TRIB)
    assert n0 == Spinor(GaussScalar(2, 0), GaussScalar(1, 1))
    assert n1 == Spinor(GaussScalar(2, 1), GaussScalar(0, 1))
    assert n2 == Spinor(GaussScalar(1, 0), GaussScalar(0, 1))


@pytest.mark.parametrize("call, message", [
    (lambda: binet_spinor(TRIB, -1), "index must be nonnegative"),
    pytest.param(lambda: genfunc_coefficient(genfunc_setup(TRIB), -1),
                 "index must be nonnegative", id="genfunc_coefficient"),
    pytest.param(lambda: determinant_combination_values(TRIB, -1), "shift must be nonnegative",
                 id="determinant_combination_values"),
])
def test_negative_index_and_order_raise(call, message):
    with pytest.raises(ValueError, match=message):
        call()


small_rationals = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))


@settings(max_examples=40, deadline=None)
@given(values=st.one_of(st.tuples(*[st.integers(-5, 5)] * 6), st.tuples(*[small_rationals] * 6)))
def test_genfunc_coefficient_equals_the_long_division(values):
    """Bostan-Mori on int reads the quotient S of the long division N(x)/Q(x),
    which the product states: S(x)*Q(x) = N(x) mod x^70, where
    Q(x) = 1 - r*x - s*x^2 - t*x^3 and N = genfunc_numerator(p). The
    coefficients render as what genfunc prints, spinor_window over seq_slice."""
    p = SeqParams(*values)
    setup = genfunc_setup(p)
    coefficients = [genfunc_coefficient(setup, k) for k in range(70)]
    zero = Spinor(GaussScalar(0), GaussScalar(0))
    s = [zero] * 3 + coefficients
    product = [s[k + 3] - p.r * s[k + 2] - p.s * s[k + 1] - p.t * s[k] for k in range(70)]
    assert product == [*genfunc_numerator(p), *[zero] * 67]
    v = seq_slice(p, 0, 73)
    assert list(map(str, coefficients)) == [str(spinor_window(v, k)) for k in range(70)]


RATIONAL = SeqParams(Fraction(1, 2), Fraction(-2, 3), Fraction(3, 4),
                     1, Fraction(-1, 2), Fraction(2, 5))


@pytest.mark.parametrize("n", [1000, 4096])
@pytest.mark.parametrize("p", [TRIB, RATIONAL], ids=str)
def test_genfunc_coefficient_deep(p, n):
    assert genfunc_coefficient(genfunc_setup(p), n) == trib_spinor(p, n)


def test_genfunc_coefficient_builds_no_fraction_on_an_integer_set(monkeypatch):
    p = SeqParams(3, -2, 5, 1, -4, 2)
    setup = genfunc_setup(p)

    def no_fraction(*args):
        raise AssertionError("Fraction built")
    monkeypatch.setattr(analytic, "Fraction", no_fraction)
    coefficient = genfunc_coefficient(setup, 1000)
    assert coefficient == trib_spinor(p, 1000)
    assert {type(c) for c in tuple(coefficient)} == {int}


@pytest.mark.parametrize("r, s, t, expected", [
    (3, -4, 2, (1 + 1j, 1, 1 - 1j)),
    (-3, -4, -2, (-1 + 1j, -1, -1 - 1j)),
])
def test_cubic_roots_order_on_an_exact_real_part_tie(r, s, t, expected):
    # 2r^3 + 9rs + 27t = 0 with a negative discriminant: the real root r/3
    # and the pair share their real part, so the imaginary part orders them.
    roots = alpha, omega1, omega2 = cubic_roots(r, s, t)
    assert [z.real for z in roots] == [r / 3] * 3
    assert omega1.imag == 0 and omega2 == alpha.conjugate()
    for got, want in zip(roots, expected):
        assert abs(got - want) < 1e-12


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_floats_are_pinned():
    # sha256 of the roots, the closed-form spinors and the binet reports, as the
    # Fraction solver and the closed form rebuilt at every n computed them.
    rng = random.Random(29)
    triples = [*itertools.product(range(-5, 6), repeat=3)] + [
        tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(3))
        for _ in range(300)]

    def roots(t):
        try:
            return repr(cubic_roots(*t))
        except DegenerateRoots:
            return "DegenerateRoots"
    assert _digest(map(roots, triples)) == (
        "f9e249906c6fedde2a8c394dcdd471fd1da47ec9855380ae66362dbca4229971")
    sets = _sweep_sets()

    def spinors(p):
        try:
            return [repr(binet_spinor(p, n)) for n in range(31)]
        except ArithmeticError as exc:
            return [f"{type(exc).__name__}: {exc}"]
    assert _digest(line for p in sets for line in spinors(p)) == (
        "93ca12a6c5d36d5f94db59a15811af0e34e32f4d65692b462965635e5d125035")
    assert _digest(repr(run_identity(IdentityId.BINET_AGREEMENT, p, nmax=60))
                   for p in sets) == (
        "0f94f43df35ad8af078e5581f1065d95675a21c9532aae1ffb1b3d8d177dc0a2")


def test_cubic_roots_builds_no_fraction_on_int(monkeypatch):
    def no_fraction(*args):
        raise AssertionError("Fraction built")
    monkeypatch.setattr(analytic, "Fraction", no_fraction)
    for r, s, t in [(1, 1, 1), (3, -4, 2), (2, 0, -1)]:
        cubic_roots(r, s, t)
    for r, s, t in [(3, -3, 1), (0, 0, 0)]:
        with pytest.raises(DegenerateRoots):
            cubic_roots(r, s, t)
