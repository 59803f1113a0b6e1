"""Every parameter-dependent identity reads its windows from one forward pass
of the sequence, so a check costs O(nmax) term evaluations rather than
O(nmax^2). A sequence check compares only the windows at n below its order
and its guard at nmax.

The pass starts at V(0) and iterates the recurrence, so the brute-force side
of a check never goes through the power kernel, the residue of x^n that
seq_slice uses to jump to a later start. Two closed forms built on the
companion sequence U do, on purpose, and read U only at the n they evaluate.
matrix_power's lhs multiplies the window matrix at shift 0 by
companion_power(p, n): C^0 and C^1 are literals, C^n from n = 2 is read off
U(n-2)..U(n+2), so only the guard jumps. u_decomposition's lhs is
quat_u_decomposition(p, n), which reads U(n)..U(n+2) and so jumps at every
n past 0. Neither jump shares a step with the slice."""

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
    assert slices == [(0, identities.read_terms(identity, NMAX, TRIBONACCI))]


def test_a_wrong_power_kernel_fails_only_the_closed_forms_that_read_u(monkeypatch):
    """A wrong power kernel in the sequence module FAILs u_decomposition at
    n = 1, its first jump and inside the order argument, and matrix_power at
    n = nmax, its guard, and moves no other report: the slices the checks read
    start at V(0) and are iterated only."""
    power_residue = sequences._power_residue

    def shifted_power(p, n):
        return power_residue(p, n + 1)

    def render(reports):
        return [(r.identity, r.status, r.note, r.witness) for r in reports]

    jumping = {IdentityId.U_DECOMPOSITION: 1, IdentityId.MATRIX_POWER_SHIFT: 40}
    before = render(run_suite(TRIBONACCI, nmax=40, seed=1))
    monkeypatch.setattr(sequences, "_power_residue", shifted_power)
    assert seq_term(TRIBONACCI, 5) != 7  # the fault is live: a term past 0 jumps through it
    after = run_suite(TRIBONACCI, nmax=40, seed=1)
    for r in after:
        if r.identity in jumping:
            assert r.status is Status.FAIL and r.span == (0, 40)
            assert r.witness.n == jumping[r.identity]
    assert [row for row in render(after) if row[0] not in jumping] == [
        row for row in before if row[0] not in jumping]
