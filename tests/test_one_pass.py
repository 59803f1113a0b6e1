"""Every parameter-dependent identity reads its windows from one forward pass
of the sequence, so a check costs O(nmax) term evaluations rather than
O(nmax^2). A sequence check compares only the windows at n below its order
and its guard at nmax.

The pass starts at V(0) and iterates the recurrence, so the brute-force side
of a check never goes through the power kernel, the residue of x^n that
seq_slice uses to jump to a later start. One side does, on purpose:
matrix_power's lhs multiplies the window matrix at shift 0 by
companion_power(p, n) at every n it compares, which reads the companion
sequence from U(n-2) and so jumps past n = 2 only: at the guard, a jump by the
power kernel that shares no step with the slice."""

import pytest

from trispinor import IdentityId, TRIBONACCI, Status, run_identity, run_suite, seq_term
from trispinor import identities, sequences

NMAX = 40
PARAMETER_DEPENDENT = [i for i in IdentityId if i is not IdentityId.TRIPLE_PRODUCT_MAP]


@pytest.mark.parametrize("identity", PARAMETER_DEPENDENT, ids=lambda i: i.value)
def test_identity_reads_one_pass(monkeypatch, identity):
    slices = []
    seq_slice = identities.seq_slice

    def recording_slice(p, n0, length):
        slices.append((n0, length))
        return seq_slice(p, n0, length)

    monkeypatch.setattr(identities, "seq_slice", recording_slice)
    report = run_identity(identity, TRIBONACCI, nmax=NMAX)
    assert report.status is not Status.FAIL
    # Terms iterated over all slices: one pass over the window, plus the
    # companion sequence for u_decomposition.
    assert sum(n0 + length for n0, length in slices) <= 2 * (NMAX + 10)
    assert all(n0 == 0 for n0, _ in slices)


def test_only_matrix_powers_guard_reads_terms_through_the_companion_power(monkeypatch):
    """A wrong power kernel in the sequence module FAILs matrix_power at
    n = nmax, its guard, and moves no other report: the slices the checks
    read start at V(0) and are iterated only."""
    power_residue = sequences._power_residue

    def shifted_power(p, n):
        return power_residue(p, n + 1)

    def render(reports):
        return [(r.identity, r.status, r.note, r.witness) for r in reports]

    before = render(run_suite(TRIBONACCI, nmax=40, seed=1))
    monkeypatch.setattr(sequences, "_power_residue", shifted_power)
    assert seq_term(TRIBONACCI, 5) != 7  # the fault is live: a term past 0 jumps through it
    after = run_suite(TRIBONACCI, nmax=40, seed=1)
    (power,) = [r for r in after if r.identity is IdentityId.MATRIX_POWER_SHIFT]
    assert power.status is Status.FAIL and power.witness.n == 40 and power.span == (0, 40)
    assert [row for row in render(after) if row[0] is not IdentityId.MATRIX_POWER_SHIFT] == [
        row for row in before if row[0] is not IdentityId.MATRIX_POWER_SHIFT]
