import itertools
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from trispinor import identities, sequences
from trispinor.gauss import I
from trispinor.quaternions import k_window, quat_window
from trispinor.spinors import breve, spinor_window
from trispinor import (
    DegenerateDelta,
    C,
    GaussScalar,
    IdentityId,
    Quaternion,
    SeqParams,
    Spinor,
    Status,
    UnsupportedParams,
    binet_spinor,
    cartan_conjugate,
    complex_conjugate,
    determinant_combination_values,
    mate,
    norm_forms,
    preset,
    qnorm,
    quat_partial_sum,
    qv_matrix,
    random_params,
    run_identity,
    run_suite,
    seq_slice,
    sigma,
    summation_correction,
    trib_spinor,
    verify_binet,
    verify_conjugate_relations,
    verify_determinant_combination,
    verify_genfunc_agreement,
    verify_matrix_power_shift,
    verify_norm_equality,
    verify_spinor_matrix_behavior,
    verify_spinor_recurrence,
    verify_summation,
    verify_triple_product_map,
    verify_u_decomposition,
)

TRIB = preset("tribonacci")
JAC = preset("third_order_jacobsthal")
DEGENERATE_DELTA = SeqParams(1, 1, -1, 0, 1, 1)
TRIPLE_ROOT = SeqParams(3, -3, 1, 0, 1, 1)


def test_spinor_recurrence_reports():
    assert verify_spinor_recurrence(TRIB, 50).status is Status.EXACT_PASS
    rng = random.Random(2)
    for _ in range(5):
        assert verify_spinor_recurrence(random_params(rng), 50).status is Status.EXACT_PASS
    with pytest.raises(ValueError):
        verify_spinor_recurrence(TRIB, 2)


def test_conjugate_relations_reports():
    assert verify_conjugate_relations(TRIB, 100).status is Status.EXACT_PASS
    assert verify_conjugate_relations(JAC, 100).status is Status.EXACT_PASS
    zero_seeds = SeqParams(1, 1, 1, 0, 0, 0)
    assert verify_conjugate_relations(zero_seeds, 20).status is Status.EXACT_PASS


def test_norm_equality_reports_and_spots():
    assert norm_forms(trib_spinor(TRIB, 0)) == (GaussScalar(6),) * 3
    assert norm_forms(trib_spinor(TRIB, 1)) == (GaussScalar(22),) * 3
    assert verify_norm_equality(TRIB, 60).status is Status.EXACT_PASS
    assert verify_norm_equality(SeqParams(1, 1, 1, 0, 0, 0), 10).status is Status.EXACT_PASS


@pytest.mark.parametrize("nmax", [0, 1, 2, 3, 4, 60])
def test_conjugates_and_norm_span_their_basis_and_windows(nmax):
    last = min(nmax, 3)
    conj, norm = verify_conjugate_relations(TRIB, nmax), verify_norm_equality(TRIB, nmax)
    assert (conj.span, conj.note) == ((0, 4 + last),
                                      f"4 basis spinors and the windows on [0..{last}]")
    assert (norm.span, norm.note) == (
        (0, 14 + last),
        f"10 polarization points, 4 unit windows and the windows on [0..{last}]")


def _rank(rows: list[list[Fraction]]) -> int:
    """Rank of a matrix over Q, by Gaussian elimination."""
    rows, rank = [list(row) for row in rows], 0
    for col in range(len(rows[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col] / rows[rank][col]
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def test_the_bases_span_what_they_prove():
    units = [tuple(int(i == j) for j in range(4)) for i in range(4)]
    assert identities._UNIT_WINDOWS == units
    assert [tuple(a) for a in identities._BASIS_SPINORS] == units
    # A quadratic form on Q^4 is fixed by its 10 coefficients of x_i*x_j, i <= j:
    # the points determine it when those monomials, evaluated there, have rank 10.
    points = [tuple(q) for q in identities._POLARIZATION_POINTS]
    assert len(set(points)) == 10
    pairs = list(itertools.combinations_with_replacement(range(4), 2))
    assert _rank([[Fraction(x[i] * x[j]) for i, j in pairs] for x in points]) == 10


@pytest.mark.parametrize("nmax", [0, 1, 2, 3, 4, 60])
def test_spinor_matrix_spans_its_unit_windows_and_windows(nmax):
    last = min(nmax, 3)
    report = verify_spinor_matrix_behavior(TRIB, nmax)
    assert report.status is Status.EXACT_PASS
    assert (report.span, report.note) == ((0, 5 + last),
                                          f"5 unit windows and the windows on [0..{last}]")


def test_the_unit_term_windows_span_q5():
    # Both sides are linear in the five terms K(n) reads: the unit windows
    # must be a basis of Q^5.
    windows = identities._UNIT_K_WINDOWS
    assert len(windows) == 5 and all(len(u) == 5 for u in windows)
    assert _rank([[Fraction(x) for x in u] for u in windows]) == 5


small_rationals = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 3))


@settings(max_examples=60, deadline=None)
@given(values=st.one_of(st.tuples(*[st.integers(-5, 5)] * 6), st.tuples(*[small_rationals] * 6)))
def test_a_basis_proof_agrees_with_the_per_n_comparisons(values):
    """The per-n comparisons the two checks made before their basis proofs,
    run here to nmax 30, hold wherever the checks report exact_pass."""
    p, nmax = SeqParams(*values), 30
    v = seq_slice(p, 0, nmax + 4)
    assert verify_conjugate_relations(p, nmax).status is Status.EXACT_PASS
    assert verify_norm_equality(p, nmax).status is Status.EXACT_PASS
    for n in range(nmax + 1):
        a = spinor_window(v, n)
        conj, mated, cartan = complex_conjugate(a), mate(a), cartan_conjugate(a)
        assert C @ mated == conj and I * cartan == mated and I * (C @ cartan) == conj
        assert norm_forms(a) == (GaussScalar(qnorm(quat_window(v, n))),) * 3


@settings(max_examples=60, deadline=None)
@given(values=st.one_of(st.tuples(*[st.integers(-5, 5)] * 6), st.tuples(*[small_rationals] * 6)))
def test_the_unit_window_proof_agrees_with_the_per_n_comparison(values):
    """The per-n comparison spinor_matrix made before its unit-window proof,
    run here to nmax 30, holds wherever the check reports exact_pass."""
    p, nmax = SeqParams(*values), 30
    v = seq_slice(p, 0, nmax + 6)
    assert verify_spinor_matrix_behavior(p, nmax).status is Status.EXACT_PASS
    for n in range(nmax + 1):
        assert breve(k_window(p, v, n)) == (p.s * breve(quat_window(v, n + 1))
                                            + p.t * breve(quat_window(v, n)))


def test_binet_reports():
    report = verify_binet(TRIB, 30)
    assert report.status is Status.TOLERED_PASS
    assert "max relative error" in report.note
    assert verify_binet(JAC, 25).status is Status.TOLERED_PASS


def test_binet_fail_carries_witness():
    # Float noise alone fails the comparison on this set at n = 21 (relative
    # error 1.756e-09), which exercises the witness machinery on a real
    # computation. Item 1's exact Binet verdict flips it to a pass.
    p = SeqParams(-1, -2, 4, 3, 2, 5)
    report = verify_binet(p, 30)
    assert report.status is Status.FAIL
    assert report.witness is not None
    assert report.witness.lhs != report.witness.rhs
    # The witness replays through the public operations.
    n = report.witness.n
    assert n == 21
    c1, c2 = binet_spinor(p, n)
    assert f"[{c1:.12g}; {c2:.12g}]" == report.witness.lhs
    assert str(trib_spinor(p, n)) == report.witness.rhs


def test_genfunc_reports():
    assert verify_genfunc_agreement(TRIB, 63).status is Status.EXACT_PASS
    rng = random.Random(4)
    for _ in range(5):
        assert verify_genfunc_agreement(random_params(rng), 40).status is Status.EXACT_PASS


def _no_jump(*args):
    raise AssertionError("jumped by the power kernel")


@pytest.mark.parametrize("p", [SeqParams(3, -2, 5, 1, -4, 2),
                               SeqParams(Fraction(1, 2), Fraction(-2, 3), Fraction(3, 4),
                                         1, Fraction(-1, 2), Fraction(2, 5))], ids=str)
def test_genfunc_reads_no_jump(monkeypatch, p):
    """genfunc's coefficients are read off the generating function by
    Bostan-Mori and its windows off the slice: neither side jumps by the
    power kernel that seq_term, trib_spinor and companion_power share."""
    monkeypatch.setattr(sequences, "_jump", _no_jump)
    monkeypatch.setattr(sequences, "_power_residue", _no_jump)
    monkeypatch.setattr(identities, "companion_power", _no_jump)
    assert run_identity(IdentityId.GENFUNC_AGREEMENT, p, nmax=60).status is Status.EXACT_PASS


def test_genfunc_guard_catches_a_coefficient_wrong_at_nmax(monkeypatch):
    coefficient = identities.genfunc_coefficient

    def wrong_at_60(setup, n):
        value = coefficient(setup, n)
        return value + Spinor(1, 0) if n == 60 else value
    monkeypatch.setattr(identities, "genfunc_coefficient", wrong_at_60)
    report = run_identity(IdentityId.GENFUNC_AGREEMENT, TRIB, nmax=60)
    assert report.status is Status.FAIL
    assert report.witness.n == 60
    assert report.witness.rhs == str(trib_spinor(TRIB, 60))


def test_triple_product_reports():
    report = verify_triple_product_map(42)
    assert report.status is Status.EXACT_PASS
    assert report.params is None
    assert report.span == (0, 79)
    with pytest.raises(TypeError):
        verify_triple_product_map(42, 0)


def test_spinor_matrix_behavior_reports():
    assert verify_spinor_matrix_behavior(TRIB, 30).status is Status.EXACT_PASS
    rng = random.Random(6)
    for _ in range(5):
        assert verify_spinor_matrix_behavior(random_params(rng), 20).status is Status.EXACT_PASS


def test_determinant_combination_values_agree():
    for n in range(6):
        spin_val, quat_val = determinant_combination_values(TRIB, n)
        assert spin_val == -sigma(quat_val)
    # The shifted reading is the constant one.
    reference = Spinor(GaussScalar(-4, 4), GaussScalar(4, -4))
    for n in range(6):
        spin_val, _ = determinant_combination_values(TRIB, n)
        assert spin_val == reference


def test_determinant_combination_report():
    report = verify_determinant_combination(TRIB, 20)
    assert report.status is Status.EXACT_PASS
    assert "equals reference" in report.note
    with pytest.raises(UnsupportedParams):
        verify_determinant_combination(JAC, 5)


def _raising_qmul(a, b):
    raise AssertionError("no per-parameter-set check reads a Hamilton product")


def test_determinant_check_reads_only_the_spinor_side(monkeypatch):
    # The map from Hamilton products to spinor products is triple_product's
    # proof; the determinant compares the spinor side with the constant alone.
    monkeypatch.setattr(identities, "qmul", _raising_qmul)
    assert verify_determinant_combination(TRIB, 20).status is Status.EXACT_PASS


def test_spinor_matrix_check_reads_no_hamilton_product(monkeypatch):
    # Window triple products are instances of triple_product's proof; the
    # check keeps only the middle column's linearity.
    monkeypatch.setattr(identities, "qmul", _raising_qmul)
    assert verify_spinor_matrix_behavior(TRIB, 20).status is Status.EXACT_PASS


def test_summation_report_tribonacci():
    report = verify_summation(TRIB, 50)
    assert report.status is Status.EXACT_PASS
    assert "[-5-1i; -1-3i]" in report.note
    assert "[-3-1i; 0-2i]" in report.note
    assert "first mismatch at n=0" in report.note


def test_summation_single_term_spot_value():
    # delta * (sum of the single spinor at n=0) for the tribonacci preset.
    delta = summation_correction(TRIB).delta
    assert delta * trib_spinor(TRIB, 0) == Spinor(GaussScalar(4, 0), GaussScalar(2, 2))


def test_summation_random_params():
    rng = random.Random(8)
    checked = 0
    while checked < 8:
        p = random_params(rng)
        if p.r + p.s + p.t - 1 == 0:
            continue
        checked += 1
        assert verify_summation(p, 80).status is Status.EXACT_PASS


def test_summation_degenerate_delta():
    with pytest.raises(DegenerateDelta):
        verify_summation(DEGENERATE_DELTA, 10)


def test_matrix_power_shift_reports():
    report = verify_matrix_power_shift(TRIB, 20)
    assert report.status is Status.EXACT_PASS
    assert qv_matrix(TRIB, 1)[0][0] == Quaternion(7, 13, 24, 44)
    rng = random.Random(10)
    for _ in range(4):
        assert verify_matrix_power_shift(random_params(rng), 30).status is Status.EXACT_PASS


def test_u_decomposition_reports():
    assert verify_u_decomposition(TRIB, 40).status is Status.EXACT_PASS
    rng = random.Random(12)
    for _ in range(4):
        assert verify_u_decomposition(random_params(rng), 40).status is Status.EXACT_PASS


def test_run_identity_skips():
    report = run_identity(IdentityId.SUMMATION_CLOSED_FORM, DEGENERATE_DELTA, nmax=20)
    assert report.status is Status.SKIPPED
    assert "DegenerateDelta" in report.note
    report = run_identity(IdentityId.BINET_AGREEMENT, TRIPLE_ROOT, nmax=20)
    assert report.status is Status.SKIPPED
    assert "DegenerateRoots" in report.note
    report = run_identity(IdentityId.DETERMINANT_COMBINATION, JAC, nmax=20)
    assert report.status is Status.SKIPPED
    assert "UnsupportedParams" in report.note


def test_skip_reports_the_range_a_run_would_check():
    # binet checks at most n = 30, so its skip says so too.
    report = run_identity(IdentityId.BINET_AGREEMENT, TRIPLE_ROOT, nmax=50)
    assert report.status is Status.SKIPPED
    assert report.span == (0, 30)


def test_degenerate_delta_has_one_message():
    with pytest.raises(DegenerateDelta) as from_sum:
        quat_partial_sum(DEGENERATE_DELTA, 4)
    with pytest.raises(DegenerateDelta) as from_check:
        verify_summation(DEGENERATE_DELTA, 10)
    message = "r + s + t - 1 = 0: closed-form sum undefined for these parameters"
    assert str(from_sum.value) == str(from_check.value) == message
    assert str(pickle.loads(pickle.dumps(from_sum.value))) == message


def test_run_suite_tribonacci():
    reports = run_suite(TRIB, nmax=50, seed=1)
    assert len(reports) == 11
    assert [r.identity for r in reports] == list(IdentityId)
    assert all(r.status in (Status.EXACT_PASS, Status.TOLERED_PASS) for r in reports)
    by_id = {r.identity: r for r in reports}
    assert "sigma(omega)" in by_id[IdentityId.SUMMATION_CLOSED_FORM].note
    assert "reference" in by_id[IdentityId.DETERMINANT_COMBINATION].note


def test_run_suite_deterministic():
    first = run_suite(TRIB, nmax=30, seed=7)
    second = run_suite(TRIB, nmax=30, seed=7)
    assert first == second


def test_run_suite_skips_where_inapplicable():
    reports = run_suite(DEGENERATE_DELTA, nmax=20, seed=0)
    by_id = {r.identity: r for r in reports}
    assert by_id[IdentityId.SUMMATION_CLOSED_FORM].status is Status.SKIPPED
    assert by_id[IdentityId.DETERMINANT_COMBINATION].status is Status.SKIPPED
    assert by_id[IdentityId.SPINOR_RECURRENCE].status is Status.EXACT_PASS

    reports = run_suite(TRIPLE_ROOT, nmax=20, seed=0)
    by_id = {r.identity: r for r in reports}
    assert by_id[IdentityId.BINET_AGREEMENT].status is Status.SKIPPED


@pytest.mark.parametrize("p", [TRIB, SeqParams(Fraction(1, 2), Fraction(1, 2), 1, 2, 0, 1),
                               SeqParams(Fraction(1, 1031), 1, 1, 0, 1, 1)])
def test_summation_seed_window_constant_is_exact_terms(monkeypatch, p):
    """The seed-window candidate (r+s)*V(j) + (r-1)*V(j+1) - V(j+2), j = 0..3, is
    a spinor of ints where integral and of non-integral Fractions otherwise."""
    built, original = [], identities.spinor_window

    def recording(v, n=0):
        s = original(v, n)
        if len(v) == 4:
            built.append(s)
        return s

    monkeypatch.setattr(identities, "spinor_window", recording)
    assert verify_summation(p, 5).status is Status.EXACT_PASS
    (stated,) = built
    v = seq_slice(p, 0, 6)
    want = [(p.r + p.s) * v[j] + (p.r - 1) * v[j + 1] - v[j + 2] for j in range(4)]
    assert list(tuple(stated)) == [want[3], want[0], want[1], want[2]]
    for x in tuple(stated):
        assert type(x) is int or (type(x) is Fraction and x.denominator > 1)


# 40 sets drawn as param-sweep draws them, and 40 small rational sets from the
# same seed: numerators in [-5, 5], denominators 1-3. The windows a basis proof
# compares after its basis catch a fault that is not linear only on rational input.
_rng = random.Random(7)
SWEEP_INTEGER = [random_params(_rng) for _ in range(40)]
_rng = random.Random(7)
SWEEP_RATIONAL = [SeqParams(*(Fraction(_rng.randint(-5, 5), _rng.randint(1, 3))
                              for _ in range(6))) for _ in range(40)]
SWEEP_IDENTITIES = [i for i in IdentityId if i is not IdentityId.TRIPLE_PRODUCT_MAP]


def test_no_report_on_the_sweep_sets_fails():
    failed = [(identity.value, p) for p in SWEEP_INTEGER + SWEEP_RATIONAL
              for identity in SWEEP_IDENTITIES
              if run_identity(identity, p, nmax=60).status is Status.FAIL]
    assert failed == []


# A denominator prime far above any trial bound: at nmax 400 its terms reach 41k bits.
LARGE_PRIME = 10**30 + 57
LARGE_PRIME_SET = SeqParams(Fraction(1, LARGE_PRIME), Fraction(-2, 3), Fraction(1, 2),
                            1, Fraction(5, LARGE_PRIME), Fraction(1, 4))


def test_every_identity_reports_on_the_large_prime_set():
    reports = [run_identity(identity, LARGE_PRIME_SET, nmax=400) for identity in IdentityId]
    assert [r.identity for r in reports] == list(IdentityId)
    assert all(r.status is not Status.FAIL for r in reports)
