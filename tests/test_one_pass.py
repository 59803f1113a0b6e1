"""Every parameter-dependent identity reads its windows from one forward pass
of the sequence and builds the companion power once, so a check costs
O(nmax) term evaluations rather than O(nmax^2)."""

import pytest

from trispinor import IdentityId, TRIBONACCI, Status, run_identity
from trispinor import identities

NMAX = 40
PARAMETER_DEPENDENT = [i for i in IdentityId if i is not IdentityId.TRIPLE_PRODUCT_MAP]


@pytest.mark.parametrize("identity", PARAMETER_DEPENDENT, ids=lambda i: i.value)
def test_identity_reads_one_pass(monkeypatch, identity):
    slices, powers = [], []
    seq_slice, companion_power = identities.seq_slice, identities.companion_power

    def recording_slice(p, n0, length):
        slices.append(n0 + length)
        return seq_slice(p, n0, length)

    def recording_power(p, n):
        powers.append(n)
        return companion_power(p, n)

    monkeypatch.setattr(identities, "seq_slice", recording_slice)
    monkeypatch.setattr(identities, "companion_power", recording_power)
    report = run_identity(identity, TRIBONACCI, nmax=NMAX)
    assert report.status is not Status.FAIL
    # Terms iterated over all slices: one pass over the window, plus the
    # companion sequence for u_decomposition.
    assert sum(slices) <= 2 * (NMAX + 10)
    assert len(powers) <= 1
