"""Every parameter-dependent identity reads its windows from one forward pass
of the sequence, so a check costs O(nmax) term evaluations rather than
O(nmax^2); matrix_power carries its product by the companion matrix from one
n to the next.

The pass starts at V(0) and iterates the recurrence, so the brute-force side
of a check never goes through the power kernel, the residue of x^n that
seq_slice uses to jump to a later start."""

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


def test_suite_does_not_read_terms_through_the_companion_power(monkeypatch):
    """A wrong power kernel in the sequence module moves no report: the
    slices the checks read start at V(0) and are iterated only."""
    power_residue = sequences._power_residue

    def shifted_power(p, n):
        return power_residue(p, n + 1)

    def render(reports):
        return [(r.identity, r.status, r.note, r.witness) for r in reports]

    before = render(run_suite(TRIBONACCI, nmax=40, seed=1))
    monkeypatch.setattr(sequences, "_power_residue", shifted_power)
    assert seq_term(TRIBONACCI, 5) != 7  # the fault is live: a term past 0 jumps through it
    assert render(run_suite(TRIBONACCI, nmax=40, seed=1)) == before
