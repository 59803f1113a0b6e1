"""The identity runner: first-mismatch reporting for the exact identities
(exercised by injecting a fault into one operation), tolerance validation and
the mapping of float overflow."""

import math
import time
from fractions import Fraction

import pytest

from trispinor import (GaussScalar, IdentityId, SeqParams, Status, companion_power, preset,
                       run_identity)
from trispinor import identities, quaternions, sequences
from trispinor.analytic import GenfuncSetup, binet_spinor, genfunc_setup
from trispinor.cli import main
from trispinor.quaternions import (ONE, Quaternion, SummationCorrection, k_window, qmul,
                                   USetup, quat_u_decomposition, summation_correction,
                                   u_setup)
from trispinor.spinors import (SpinMatrix2, Spinor, breve, complex_conjugate, mate, sigma,
                               spinor_norm, spinor_window)

TRIB = preset("tribonacci")
HUGE_R = SeqParams(10**400, 1, 1, 0, 1, 1)
RATIONAL = SeqParams(Fraction(1, 2), Fraction(-2, 3), Fraction(3, 4),
                     1, Fraction(-1, 2), Fraction(2, 5))


def _negated_mate(s):
    return -mate(s)


def _mate_unconjugated_c1(s):
    """[-conj(c2); c1]: mate with the conjugation of c1 dropped."""
    return Spinor(-s.c2.conjugate(), s.c1)


def _cartan_unconjugated_c2(s):
    """[i*c2; -i*conj(c1)]: cartan_conjugate with the conjugation of c2 dropped."""
    return Spinor(GaussScalar(0, 1) * s.c2, GaussScalar(0, -1) * s.c1.conjugate())


def _shifted_qv_matrix(p, shift=0):
    return quaternions.qv_matrix(p, shift + 1)


def _affine_breve(q):
    return breve(q) + SpinMatrix2(1, 0, 0, 0)


def _swapped_qmul(a, b):
    return qmul(b, a)


def _floored_qmul(a, b):
    """Exact on integer input, wrong on half-integer input."""
    q = qmul(a, b)
    return Quaternion(*(math.floor(x) for x in (q.q0, q.q1, q.q2, q.q3)))


def _shifted_omega(p):
    c = summation_correction(p)
    return SummationCorrection(c.delta, c.lambda_, c.omega + ONE)


def _scaled_binet(p, n, setup=None):
    return tuple(x * (1 + 1e-6) for x in binet_spinor(p, n, setup))


def _bumped_window(v, n=0):
    return spinor_window(v, n) + Spinor(1, 0)


def _bumped_sigma(q):
    return sigma(q) + Spinor(1, 0)


def _shifted_k_window(p, v, n=0):
    return k_window(p, v, n) + ONE


def _shifted_u_decomposition(p, n, setup=None):
    return quat_u_decomposition(p, n, setup) + ONE


def _shifted_u_setup(p):
    """u_setup with Q(2) off by one in its first component."""
    u, ((a, b, c), *rows) = u_setup(p)
    return USetup(u, ((a + 1, b, c), *rows))


def _shifted_genfunc_setup(p):
    """genfunc_setup with N's first int component polynomial off by one at x^0."""
    d, q, e, ((a0, a1, a2), *polys) = genfunc_setup(p)
    return GenfuncSetup(d, q, e, ((a0 + 1, a1, a2), *polys))


def _shifted_sum_window(p, v, n=0):
    # Looked up when called, so that the module imports where sum_window is missing.
    return quaternions.sum_window(p, v, n) + ONE


def _negated_norm(s):
    return -spinor_norm(s)


def _floored(z):
    return GaussScalar(math.floor(z.re), math.floor(z.im))


def _floored_conjugate(s):
    """Exact on integer components, wrong on a Fraction one."""
    return complex_conjugate(Spinor(_floored(s.c1), _floored(s.c2)))


def _floored_norm(s):
    """Exact on integer components, wrong where the norm is a Fraction."""
    return _floored(spinor_norm(s))


def _floored_k_window(p, v, n=0):
    """Exact on integer terms, wrong on a Fraction one."""
    return k_window(p, [math.floor(x) for x in v[n:n + 5]])


# (identity, operation replaced, faulty replacement, expected span, witness
# n, lhs, rhs, note). The expected strings were recorded before the runner
# existed; those of the binet, genfunc and u_decomposition rows before the
# Binet functions shared one power sum, and before each closed form was split
# into a set-up built once per run and a per-n step: the u_decomposition row
# faults the closed form on its set-up. A set-up off by one, of u or of
# genfunc, fails at n = 0, where it is built and first read. In the three
# triple_product rows a swapped qmul and an affine breve fail on a basis
# triple (n < 64), while a floored qmul is exact on int and fails only in the
# seeded draws (n >= 64).
# conjugates and norm are proved on a basis before the set's windows: the
# four basis spinors (n < 4), then the windows at n <= 3; the ten polarization
# points (n < 10) and the four unit windows (10 <= n < 14), then the windows.
# A negated mate or spinor_norm fails on the first basis element, [1; 0] or
# e_0, and a window bumped by [1; 0] fails on the first unit window. The
# sum_window and spinor_norm rows pin that summation and norm evaluate the
# exported functions. spinor_matrix is proved on the five unit term windows
# (n < 5), then compares the windows at n <= 3 (5 <= n < 9). An affine breve
# or a shifted k_window fails on the first unit window, (1, 0, 0, 0, 0): a
# shifted k_window moves only its lhs, breve(K). spinor_matrix reads no
# Hamilton product, so a swapped qmul fails the suite through triple_product
# alone. The determinant's breve row was recorded before the spinor sides
# were multiplied right to left and the windows were read once per check: it
# pins that the witness stayed the same. The recurrence reads every window
# through spinor_window: a window shifted by [1; 0] moves its lhs by one
# shift and its rhs by r+s+t = 3 shifts, so the check fails at n = 0. The
# determinant compares its spinor side with a constant: a fault in either
# spinor-side primitive, sigma or breve, moves its lhs at n = 0. matrix_power
# compares its whole window matrix at each n and carries its product by the
# companion matrix from the window matrix at shift 0, qv_matrix(p): shifting
# that matrix by one gives the witness that a companion power shifted by one
# gave before.
# mate and cartan_conjugate are read off a spinor's components, not composed
# from C and the complex conjugate: a formula that drops the conjugation of one
# component agrees on the real basis spinors and fails conjugates on the
# imaginary one of that component, [i; 0] (n = 1) or [0; i] (n = 3).
FAULTS = [
    ("conjugates", "mate", _negated_mate, (0, 7), 0,
     "C@mate: [-1+0i; 0+0i]", "[1+0i; 0+0i]", "basis spinor [1+0i; 0+0i]"),
    ("norm", "mate", _negated_mate, (0, 17), 0,
     "mate pairing: -1+0i", "1+0i", "polarization point (1, 0, 0, 0)"),
    ("matrix_power", "qv_matrix", _shifted_qv_matrix, (0, 10), 0,
     "entry(0,0)=(7, 13, 24, 44)", "entry(0,0)=(4, 7, 13, 24)", ""),
    ("spinor_matrix", "breve", _affine_breve, (0, 8), 0,
     "[[1+1i, 0+0i], [0+0i, 0+1i]]", "[[2+1i, 0+0i], [0+0i, 0+1i]]",
     "unit window (1, 0, 0, 0, 0)"),
    ("triple_product", "qmul", _swapped_qmul, (0, 79), 6,
     "[-1+0i; 0+0i]", "[1+0i; 0+0i]",
     "a=(1, 0, 0, 0), b=(0, 1, 0, 0), c=(0, 0, 1, 0)"),
    ("determinant", "sigma", _bumped_sigma, (0, 10), 0,
     "[-4-8i; 4+0i]", "[-4+4i; 4-4i]",
     "final index n+4: spinor side differs from reference"),
    ("summation", "summation_correction", _shifted_omega, (0, 10), 0,
     "[4+0i; 2+2i]", "[4+1i; 2+2i]",
     "sigma(omega) constant [-5+0i; -1-3i] fails; "
     "seed-window constant [-3-1i; 0-2i]: first mismatch at n=0"),
    ("triple_product", "breve", _affine_breve, (0, 79), 0,
     "[0+1i; 0+0i]", "[2+0i; 0+0i]",
     "a=(1, 0, 0, 0), b=(1, 0, 0, 0), c=(1, 0, 0, 0)"),
    ("triple_product", "qmul", _floored_qmul, (0, 79), 64,
     "[-107-260i; 751+769i]", "[-451/4-1053/4i; 754+3097/4i]",
     "a=(-1, 8, 1, 3), b=(9, -9, -1/2, -2), c=(3, 8, 3/2, -5)"),
    ("binet", "binet_spinor", _scaled_binet, (0, 10), 0,
     "[2.000002-9.71446117992e-17j; 1.000001+1.000001j]", "[2+0i; 1+1i]",
     "relative error 1.000e-06 exceeds tol 1.0e-09"),
    # The series reads analytic's own spinor_window: the fault moves the rhs only.
    ("genfunc", "spinor_window", _bumped_window, (0, 10), 0,
     "[2+0i; 1+1i]", "[3+0i; 1+1i]", ""),
    ("u_decomposition", "quat_u_decomposition", _shifted_u_decomposition, (0, 10), 0,
     "(2, 2, 4, 7)", "(1, 2, 4, 7)", ""),
    ("u_decomposition", "u_setup", _shifted_u_setup, (0, 10), 0,
     "(2, 2, 4, 7)", "(1, 2, 4, 7)", ""),
    ("genfunc", "genfunc_setup", _shifted_genfunc_setup, (0, 10), 0,
     "[3+0i; 1+1i]", "[2+0i; 1+1i]", ""),
    ("summation", "sum_window", _shifted_sum_window, (0, 10), 0,
     "[4+0i; 2+2i]", "[4+1i; 2+2i]",
     "sigma(omega) constant [-5-1i; -1-3i] fails; "
     "seed-window constant [-3-1i; 0-2i]: first mismatch at n=0"),
    ("norm", "spinor_norm", _negated_norm, (0, 17), 0,
     "conjugate pairing: -1+0i", "1+0i", "polarization point (1, 0, 0, 0)"),
    ("norm", "spinor_window", _bumped_window, (0, 17), 10,
     "[1+1i; 0+0i]", "[0+1i; 0+0i]", "unit window (1, 0, 0, 0)"),
    ("spinor_matrix", "k_window", _shifted_k_window, (0, 8), 0,
     "[[0+2i, 0+0i], [0+0i, 0+2i]]", "[[0+1i, 0+0i], [0+0i, 0+1i]]",
     "unit window (1, 0, 0, 0, 0)"),
    ("determinant", "breve", _affine_breve, (0, 10), 0,
     "[-2+14i; 6-8i]", "[-4+4i; 4-4i]",
     "final index n+4: spinor side differs from reference"),
    ("recurrence", "spinor_window", _bumped_window, (0, 10), 0,
     "[14+2i; 4+7i]", "[16+2i; 4+7i]", ""),
    ("conjugates", "mate", _mate_unconjugated_c1, (0, 7), 1,
     "C@mate: [0+1i; 0+0i]", "[0-1i; 0+0i]", "basis spinor [0+1i; 0+0i]"),
    ("conjugates", "cartan_conjugate", _cartan_unconjugated_c2, (0, 7), 3,
     "i*cartan: [0-1i; 0+0i]", "[0+1i; 0+0i]", "basis spinor [0+0i; 0+1i]"),
]
# A row's id is its identity; a later row of the same identity adds its fault.
FAULT_IDS = [ident if [f[0] for f in FAULTS].index(ident) == i
             else f"{ident}-{faulty.__name__.lstrip('_')}"
             for i, (ident, _, faulty, *_) in enumerate(FAULTS)]


@pytest.mark.parametrize("ident, attr, faulty, span, n, lhs, rhs, note", FAULTS, ids=FAULT_IDS)
def test_injected_fault_reports_first_mismatch(monkeypatch, ident, attr, faulty, span,
                                               n, lhs, rhs, note):
    monkeypatch.setattr(identities, attr, faulty)
    report = run_identity(IdentityId(ident), TRIB, nmax=10, seed=3)
    assert report.status is Status.FAIL
    assert report.span == span
    assert (report.witness.n, report.witness.lhs, report.witness.rhs) == (n, lhs, rhs)
    assert report.note == note


def _wrong_kk_qmul(a, b):
    """Wrong only for the product k*k, which it takes to be 1."""
    return ONE if a == b == Quaternion(0, 0, 0, 1) else qmul(a, b)


def test_triple_product_finds_a_fault_on_one_basis_product(monkeypatch):
    # One random triple almost never multiplies k by k; the basis triples do,
    # first at (1, k, k).
    monkeypatch.setattr(identities, "qmul", _wrong_kk_qmul)
    report = identities.run_identity(IdentityId.TRIPLE_PRODUCT_MAP, None, seed=0)
    assert report.status is Status.FAIL
    assert report.witness.n == 15
    assert report.note == "a=(1, 0, 0, 0), b=(0, 0, 0, 1), c=(0, 0, 0, 1)"


def test_triple_product_draws_catch_a_fault_exact_on_integers(monkeypatch):
    # A floored qmul is not trilinear and agrees on every basis triple: only
    # the seeded draws at the drawn scale can find it.
    monkeypatch.setattr(identities, "qmul", _floored_qmul)
    for seed in range(2000):
        report = identities.run_identity(IdentityId.TRIPLE_PRODUCT_MAP, None, seed=seed)
        assert report.status is Status.FAIL and report.witness.n >= 64, seed


@pytest.mark.parametrize("ident, attr, faulty, basis", [
    ("conjugates", "complex_conjugate", _floored_conjugate, 4),
    ("norm", "spinor_norm", _floored_norm, 14),
    ("spinor_matrix", "k_window", _floored_k_window, 5),
])
def test_the_sets_windows_catch_a_fault_exact_on_integers(monkeypatch, ident, attr,
                                                          faulty, basis):
    # A floored operation is not linear or quadratic, yet agrees on every
    # int basis element or unit window: only the windows of a rational set
    # can find it.
    monkeypatch.setattr(identities, attr, faulty)
    assert run_identity(IdentityId(ident), TRIB, nmax=10).status is Status.EXACT_PASS
    report = run_identity(IdentityId(ident), RATIONAL, nmax=10)
    assert report.status is Status.FAIL
    assert report.witness.n == basis and report.note == "window n=0"


def test_matrix_power_reports_the_first_differing_entry(monkeypatch):
    # A product that goes wrong in one entry when it multiplies by C^30 alone:
    # the products by C^0, C^1 and C^2 below the order stay right, and the
    # guard's, the window matrix at shift 0 times C^30, differs from the window
    # matrix at n = 30 there alone. The witness names that entry, after the
    # five entries before it agree.
    matrices = []

    def guard_fault(rows, m):
        matrices.append(m)
        product = quaternions.qv_right_multiply(rows, m)
        if m != companion_power(TRIB, 30):
            return product
        row = product[1]
        return product[0], (row[0], row[1], row[2] + ONE), product[2]

    monkeypatch.setattr(identities, "qv_right_multiply", guard_fault)
    report = run_identity(IdentityId.MATRIX_POWER_SHIFT, TRIB, nmax=30)
    assert report.status is Status.FAIL and report.span == (0, 30)
    assert report.witness == (30, "entry(1,2)=(98950097, 181997601, 334745777, 615693474)",
                              "entry(1,2)=(98950096, 181997601, 334745777, 615693474)")
    assert report.note == ""
    assert matrices == [companion_power(TRIB, n) for n in (0, 1, 2, 30)]


def test_matrix_power_reads_w0_apart_from_the_runs_slice(monkeypatch):
    # The lhs builds W(0) with qv_matrix off terms of its own, so a run's slice
    # whose V(5) is off by one moves the rhs alone: the check fails at n = 0,
    # where entry (0,0) is Q(4) = (V(4), ..., V(7)). Were W(0) read off the same
    # slice, both sides would agree at n = 0.
    def faulted(p, n0, length):
        v = sequences.seq_slice(p, n0, length)
        if n0 <= 5 < n0 + length:
            v[5 - n0] += 1
        return v

    monkeypatch.setattr(identities, "seq_slice", faulted)
    report = run_identity(IdentityId.MATRIX_POWER_SHIFT, TRIB, nmax=10)
    assert report.status is Status.FAIL
    assert report.witness == (0, "entry(0,0)=(4, 7, 13, 24)", "entry(0,0)=(4, 8, 13, 24)")


def test_overflow_skips():
    report = run_identity(IdentityId.BINET_AGREEMENT, HUGE_R, nmax=8)
    assert report.status is Status.SKIPPED
    assert report.span == (0, 8)
    assert report.note.startswith("skipped (OverflowError): ")


INT_DIVISION = "integer division result too large for a float"


@pytest.mark.parametrize("p, message", [
    (HUGE_R, INT_DIVISION),
    (SeqParams(1, 10**700, 1, 0, 1, 1), INT_DIVISION),
    (SeqParams(1, 1, 10**1000, 0, 1, 1), INT_DIVISION),
    (SeqParams(Fraction(10**400, 3), 1, 1, 0, 1, 1), INT_DIVISION),
    (SeqParams(1, 1, 1, 10**400, 1, 1), "int too large to convert to float"),
], ids=["r", "s", "t", "rational-r", "v0"])
def test_overflow_note_names_the_conversion(p, message):
    # A coefficient beyond float range overflows as a Fraction's conversion does,
    # whether it is an int or not; a seed overflows as an int's.
    report = run_identity(IdentityId.BINET_AGREEMENT, p, nmax=60)
    assert report.status is Status.SKIPPED
    assert report.note == f"skipped (OverflowError): {message}"


def test_binet_refuses_an_overflowing_set_after_its_capped_slice():
    # binet stops at n = 30, so it reads V(0) to V(33) of r = 10**400, not the
    # slice to V(1004) of ints of 400k digits; then its set-up overflows.
    start = time.perf_counter()
    report = run_identity(IdentityId.BINET_AGREEMENT, HUGE_R, nmax=1000)
    assert time.perf_counter() - start < 0.1
    assert (report.status, report.span) == (Status.SKIPPED, (0, 30))
    assert report.note == f"skipped (OverflowError): {INT_DIVISION}"


@pytest.mark.parametrize("p, note", [
    (TRIB, "sigma(omega) constant [-5-1i; -1-3i]: exact; order 4: n=0..3 prove every n; "
           "guard at n=60; seed-window constant [-3-1i; 0-2i]: first mismatch at n=0"),
    # The seed-window candidate holds at every point, so the claim reads all five.
    (SeqParams(1, 1, 1, 0, 0, 0),
     "sigma(omega) constant [0+0i; 0+0i]: exact; order 4: n=0..3 prove every n; "
     "guard at n=60; seed-window constant [0+0i; 0+0i]: also exact"),
], ids=["tribonacci", "zero"])
def test_summation_claim_reads_the_values_its_sides_computed(monkeypatch, p, note):
    calls = []

    def counted(p, v, n=0):
        calls.append(n)
        return quaternions.sum_window(p, v, n)

    monkeypatch.setattr(identities, "sum_window", counted)
    report = run_identity(IdentityId.SUMMATION_CLOSED_FORM, p, nmax=60)
    assert report.status is Status.EXACT_PASS
    assert calls == [0, 1, 2, 3, 60]
    assert report.note == note


def _sum_window_wrong_at_60(p, v, n=0):
    q = quaternions.sum_window(p, v, n)
    return q + ONE if n == 60 else q


@pytest.mark.parametrize("p, tail", [
    # stated == derived: the candidate holds below the order and fails at the guard.
    (SeqParams(1, 1, 1, 0, 0, 0), "seed-window constant [0+0i; 0+0i]: first mismatch at n=60"),
    (TRIB, "seed-window constant [-3-1i; 0-2i]: first mismatch at n=0"),
], ids=["zero", "tribonacci"])
def test_a_failed_summation_claim_compares_the_candidate_at_every_point(monkeypatch, p, tail):
    monkeypatch.setattr(identities, "sum_window", _sum_window_wrong_at_60)
    report = run_identity(IdentityId.SUMMATION_CLOSED_FORM, p, nmax=60)
    assert report.status is Status.FAIL and report.witness.n == 60
    assert report.note.endswith(tail)


def test_a_direct_binet_check_stops_at_its_cap():
    report = run_identity(IdentityId.BINET_AGREEMENT, TRIB, nmax=100)
    assert report == run_identity(IdentityId.BINET_AGREEMENT, TRIB, nmax=30)
    assert report.span == (0, 30)


def test_the_recurrence_reads_its_least_nmax(monkeypatch):
    """run_identity raises an nmax below 3 to 3, which compares n = 0 alone, reading
    the windows at 3, 2, 1 and 0."""
    calls = []

    def counted(v, n=0):
        calls.append(n)
        return spinor_window(v, n)

    monkeypatch.setattr(identities, "spinor_window", counted)
    report = run_identity(IdentityId.SPINOR_RECURRENCE, TRIB, nmax=0)
    assert (report.status, report.span) == (Status.EXACT_PASS, (0, 3))
    assert report.note == "order 3: only [0..0] compared; n=0..2 prove every n"
    assert calls == [3, 2, 1, 0]


def test_cli_verify_overflow_exits_0(capsys):
    code = main(["verify", "--identity", "binet", "--params", "1e400,1,1,0,1,1"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    assert "skipped (OverflowError)" in captured.out


def test_cli_binet_overflow_exits_2(capsys):
    code = main(["binet", "-n", "2000"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "OverflowError" in captured.err
