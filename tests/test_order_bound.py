"""The order bound behind the sequence checks, tested from outside them.

A sequence check compares its two sides at n = 0..d-1, which proves the
identity for every n if each side, as a sequence in n, obeys a linear
recurrence of order at most d, and one guard at nmax. The oracle here
evaluates the check's own declared sides at every n to n = 60, one n at a
time, and bounds the Hankel rank of every component sequence by d: a
sequence obeys a recurrence of order d exactly when its Hankel matrices
have rank at most d. A fault that bites only between d and nmax passes the
check; the oracle is what catches it.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import ONE, RATIONAL, params_id
from trispinor import (IdentityId, SeqParams, Status, TRIBONACCI, companion_matrix, identities,
                       run_identity, seq_slice)
from trispinor.analytic import genfunc_coefficient
from trispinor.quaternions import (quat_u_decomposition, qv_matrix, qv_right_multiply,
                                   sum_window)
from trispinor.spinors import Spinor

DEPTH = 60
SETS = [TRIBONACCI, SeqParams(3, -2, 5, 1, -4, 2), RATIONAL,
        SeqParams(Fraction(-4, 3), Fraction(5, 2), Fraction(1, 3), Fraction(2, 3), -1, 3)]
SEQUENCE_CHECKS = [IdentityId.SPINOR_RECURRENCE, IdentityId.GENFUNC_AGREEMENT,
                   IdentityId.SUMMATION_CLOSED_FORM, IdentityId.U_DECOMPOSITION,
                   IdentityId.MATRIX_POWER_SHIFT, IdentityId.DETERMINANT_COMBINATION]


def _sides(identity: IdentityId, p: SeqParams, depth: int = DEPTH) -> tuple[list, list]:
    """(lhs, rhs) of a sequence check at n = 0..depth, one n at a time, by the
    check's own sides on a run at nmax depth + 3, whose slice reaches the
    recurrence's last window."""
    d, nmax = identities._IDENTITIES[identity], depth + 3
    (part,) = d.parts
    run = identities._Run(p, nmax, seq_slice(p, 0, nmax + d.reach), 0, {})
    ns = range(depth + 1)
    return [part.lhs(run, n) for n in ns], [part.rhs(run, n) for n in ns]


def _components(values: list) -> list[tuple[Fraction, ...]]:
    """The distinct rational component sequences of a list of exact values."""
    def flat(x):
        return [c for y in x for c in flat(y)] if isinstance(x, tuple) else [Fraction(x)]
    return sorted(set(zip(*map(flat, values))))


def _hankel_rank(seq: tuple[Fraction, ...], height: int) -> int:
    """Rank over Q of the Hankel matrix [seq[i + j]] with height rows and as
    many columns as seq fills, by Fraction elimination. It is below height
    exactly when some nonzero c satisfies c0*seq[n] + ... + c(height-1)*seq[n+height-1]
    = 0 at every n the matrix covers: a recurrence of order below height."""
    rows = [list(seq[i:len(seq) - height + 1 + i]) for i in range(height)]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((r for r in range(rank, height) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, height):
            if rows[r][col]:
                factor = rows[r][col] / rows[rank][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        if rank == height:
            break
    return rank


def _side_ranks(identity: IdentityId, p: SeqParams) -> tuple[int, int]:
    """The largest Hankel rank, with d + 1 rows, of a component sequence of
    each side to n = 60, d the check's declared order."""
    height = identities._IDENTITIES[identity].order + 1
    return tuple(max(_hankel_rank(seq, height) for seq in _components(side))
                 for side in _sides(identity, p))


def test_the_sequence_checks_declare_their_order():
    orders = {i: e.order for i, e in identities._IDENTITIES.items() if e.order is not None}
    assert orders == {IdentityId.SPINOR_RECURRENCE: 3, IdentityId.GENFUNC_AGREEMENT: 3,
                      IdentityId.U_DECOMPOSITION: 3, IdentityId.MATRIX_POWER_SHIFT: 3,
                      IdentityId.SUMMATION_CLOSED_FORM: 4, IdentityId.DETERMINANT_COMBINATION: 11}


def test_the_rank_counts_a_recurrences_order():
    fib = [0, 1]
    while len(fib) < 61:
        fib.append(fib[-1] + fib[-2])
    assert _hankel_rank(tuple(map(Fraction, fib)), 4) == 2
    assert _hankel_rank(tuple(Fraction(n * n) for n in range(61)), 5) == 3
    # One term off the recurrence leaves no relation among the shifts.
    fib[20] += 1
    assert _hankel_rank(tuple(map(Fraction, fib)), 4) == 4


@pytest.mark.parametrize("p", SETS, ids=params_id)
@pytest.mark.parametrize("identity", SEQUENCE_CHECKS, ids=lambda i: i.value)
def test_each_side_obeys_a_recurrence_of_the_declared_order(identity, p):
    order = identities._IDENTITIES[identity].order
    lhs, rhs = _side_ranks(identity, p)
    assert lhs <= order and rhs <= order


def _at_20(f, extra, at=-1):
    """f, with extra added to its value at index n = 20 alone, n being args[at]."""
    def faulty(*args):
        value = f(*args)
        return value + extra if args[at] == 20 else value
    return faulty


def _guard_20(rows, m):
    """qv_right_multiply, wrong in one entry for the companion power C^20 alone."""
    product = qv_right_multiply(rows, m)
    if m != identities.companion_power(TRIBONACCI, 20):
        return product
    return product[0], (product[1][0], product[1][1], product[1][2] + ONE), product[2]


# (identity, operation replaced, faulty replacement, the side it moves: 0 lhs, 1 rhs)
LATE_FAULTS = [
    ("u_decomposition", "quat_u_decomposition", _at_20(quat_u_decomposition, ONE, at=1), 0),
    ("summation", "sum_window", _at_20(sum_window, ONE), 1),
    ("genfunc", "genfunc_coefficient", _at_20(genfunc_coefficient, Spinor(1, 0)), 0),
    ("matrix_power", "qv_right_multiply", _guard_20, 0),
]


@pytest.mark.parametrize("ident, attr, faulty, side", LATE_FAULTS,
                         ids=[row[0] for row in LATE_FAULTS])
def test_a_fault_between_the_order_and_the_guard_passes_the_check_not_the_oracle(
        monkeypatch, ident, attr, faulty, side):
    """A fault that bites at n = 20 alone is not polynomial in the windows:
    the check at nmax 60 compares n < d and n = 60 and passes, while the
    faulted side's component sequences leave every recurrence of order d."""
    identity = IdentityId(ident)
    order = identities._IDENTITIES[identity].order
    monkeypatch.setattr(identities, attr, faulty)
    assert run_identity(identity, TRIBONACCI, nmax=DEPTH).status is Status.EXACT_PASS
    ranks = _side_ranks(identity, TRIBONACCI)
    assert ranks[side] > order and ranks[1 - side] <= order


small_rationals = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 3))


def _per_n_statuses(p: SeqParams, nmax: int) -> dict[IdentityId, tuple]:
    """The per-n comparisons the sequence checks made before their order
    bound, to nmax: each check's status, and summation's seed-window clause."""
    out = {}
    for identity in SEQUENCE_CHECKS[:-1]:
        if identity is IdentityId.SUMMATION_CLOSED_FORM and p.r + p.s + p.t == 1:
            continue
        lhs, rhs = _sides(identity, p, nmax)
        if identity is IdentityId.SPINOR_RECURRENCE:
            lhs, rhs = lhs[:nmax - 2], rhs[:nmax - 2]
        if identity is IdentityId.MATRIX_POWER_SHIFT:
            lhs = [tuple(itertools.chain(*m)) for m in itertools.accumulate(
                [companion_matrix(p)] * nmax, qv_right_multiply,
                initial=qv_matrix(p))]
        status = Status.EXACT_PASS if lhs == rhs else Status.FAIL
        clause = None
        if identity is IdentityId.SUMMATION_CLOSED_FORM:
            v = seq_slice(p, 0, 6)
            stated = identities.spinor_window(
                [identities.rat((p.r + p.s) * v[j] + (p.r - 1) * v[j + 1] - v[j + 2])
                 for j in range(4)])
            derived = identities.sigma(identities.summation_correction(p))
            miss = next((n for n, (a, b) in enumerate(zip(lhs, rhs)) if a != b - derived + stated),
                        None)
            clause = (f"seed-window constant {stated}: also exact" if miss is None
                      else f"seed-window constant {stated}: first mismatch at n={miss}")
        out[identity] = status, clause
    return out


@settings(max_examples=60, deadline=None)
@given(values=st.one_of(st.tuples(*[st.integers(-5, 5)] * 6), st.tuples(*[small_rationals] * 6)))
def test_the_guarded_checks_agree_with_the_per_n_comparisons(values):
    """Run here to nmax 30, the per-n comparisons give each guarded check's
    status, and summation's seed-window clause."""
    p, nmax = SeqParams(*values), 30
    for identity, (status, clause) in _per_n_statuses(p, nmax).items():
        report = run_identity(identity, p, nmax=nmax)
        assert report.status is status, identity
        if clause is not None:
            assert report.note[report.note.index("seed-window constant"):] == clause


def test_the_guarded_determinant_agrees_with_the_per_n_comparison():
    lhs, rhs = _sides(IdentityId.DETERMINANT_COMBINATION, TRIBONACCI, 30)
    assert lhs == rhs
    assert run_identity(IdentityId.DETERMINANT_COMBINATION, TRIBONACCI,
                        nmax=30).status is Status.EXACT_PASS


@pytest.mark.parametrize("nmax, note", [
    (60, "order 3: n=0..2 prove every n; guard at n=60"),
    (3, "order 3: n=0..2 prove every n; guard at n=3"),
    (2, "order 3: only [0..2] compared; n=0..2 prove every n"),
    (0, "order 3: only [0..0] compared; n=0..2 prove every n"),
])
def test_the_note_says_what_was_compared(nmax, note):
    for identity in (IdentityId.GENFUNC_AGREEMENT, IdentityId.U_DECOMPOSITION,
                     IdentityId.MATRIX_POWER_SHIFT):
        report = run_identity(identity, TRIBONACCI, nmax=nmax)
        assert (report.span, report.note) == ((0, nmax), note)
    recurrence = run_identity(IdentityId.SPINOR_RECURRENCE, TRIBONACCI, nmax=nmax + 3)
    assert recurrence.note == note
    determinant = run_identity(IdentityId.DETERMINANT_COMBINATION, TRIBONACCI, nmax=5)
    assert determinant.note.endswith("order 11: only [0..5] compared; n=0..10 prove every n")
