"""The closed forms a check evaluates at several n are each an n-free set-up,
built once per run inside the side that uses it, and a per-n step: binet's
power sum, genfunc's Bostan-Mori operands and u_decomposition's window
products. The one-shot call is the set-up followed by
the step, so the check's side must give exactly what the one-shot call gives,
at every n, on integer and rational sets and on a set with t = 0."""

from fractions import Fraction

import pytest

from trispinor import (IdentityId, SeqParams, Status, THIRD_ORDER_JACOBSTHAL, TRIBONACCI,
                       binet_spinor, identities, quat_u_decomposition, run_identity, seq_slice,
                       trib_spinor)
from trispinor.spinors import Spinor, spinor_window

# The rational sets of tools/output_digest.py: multipliers of period 1, 2, 3
# and 6, and the composite base element 6.
DIGEST_RATIONAL = ["1/2,-2/3,3/4,1,-1/2,2/5", "1,1/2,1,1,1,1", "1,1,1/3,0,1,1",
                   "1,1/2,1/3,1,1,1", "1/6,1/6,1/6,1/6,1/6,1/6"]
SETS = [TRIBONACCI, THIRD_ORDER_JACOBSTHAL, SeqParams(3, -2, 5, 1, -4, 2),
        *(SeqParams(*map(Fraction, s.split(","))) for s in DIGEST_RATIONAL),
        SeqParams(3, -2, 0, 1, 3, -2)]  # t = 0: the roots 0, 1 and 2
# Roots 10^11, 2000 and 1, seeded on the root 1: every term is 1, the two
# larger roots weigh exactly 0, and 10^11 to the 30th overflows a float.
OVERFLOWING = SeqParams(10**11 + 2001, -(10**11 * 2001 + 2000), 2000 * 10**11, 1, 1, 1)


def _side(monkeypatch, identity: IdentityId, p: SeqParams, nmax: int, setup: str):
    """The check's lhs on a run at nmax, and the calls of its set-up so far."""
    calls, build = [], getattr(identities, setup)

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(identities, setup, counted)
    d = identities._IDENTITIES[identity]
    run = identities._Run(p, nmax, seq_slice(p, 0, nmax + d.reach), 0, {})
    return (lambda n: d.parts[0].lhs(run, n)), calls


@pytest.mark.parametrize("p", SETS, ids=str)
def test_u_decomposition_set_up_once_then_stepped_is_the_one_shot(monkeypatch, p):
    lhs, calls = _side(monkeypatch, IdentityId.U_DECOMPOSITION, p, 40, "u_setup")
    for n in range(41):
        got, want = lhs(n), quat_u_decomposition(p, n)
        assert (got, str(got)) == (want, str(want)), n
    assert len(calls) == 1


@pytest.mark.parametrize("p", SETS, ids=str)
def test_genfunc_set_up_once_then_stepped_is_the_term(monkeypatch, p):
    lhs, calls = _side(monkeypatch, IdentityId.GENFUNC_AGREEMENT, p, 40, "genfunc_setup")
    for n in [*range(41), 1000]:
        got, want = lhs(n), trib_spinor(p, n)
        assert (got, str(got)) == (want, str(want)), n
    assert len(calls) == 1


@pytest.mark.parametrize("p", SETS, ids=str)
def test_binet_set_up_once_then_stepped_gives_the_one_shot_floats(monkeypatch, p):
    lhs, calls = _side(monkeypatch, IdentityId.BINET_AGREEMENT, p, 30, "binet_setup")
    for n in range(31):
        assert tuple(lhs(n)) == binet_spinor(p, n), n
    assert len(calls) == 1


def test_a_binet_overflow_skips_when_the_runner_reaches_it():
    # 10^11 ** 30 overflows; the exact terms never do.
    assert run_identity(IdentityId.BINET_AGREEMENT, OVERFLOWING, nmax=27).status is (
        Status.TOLERED_PASS)
    report = run_identity(IdentityId.BINET_AGREEMENT, OVERFLOWING, nmax=30)
    assert (report.status, report.span) == (Status.SKIPPED, (0, 30))
    assert report.note == "skipped (OverflowError): complex exponentiation"
    with pytest.raises(OverflowError, match="complex exponentiation"):
        binet_spinor(OVERFLOWING, 30)


def test_a_fail_before_binet_overflows_is_reported(monkeypatch):
    def bumped_at_5(v, n=0):
        return spinor_window(v, n) + (Spinor(1, 0) if n == 5 else Spinor(0, 0))

    monkeypatch.setattr(identities, "spinor_window", bumped_at_5)
    report = run_identity(IdentityId.BINET_AGREEMENT, OVERFLOWING, nmax=30)
    assert report.status is Status.FAIL
    assert report.witness.n == 5 and report.witness.rhs == "[2+1i; 1+1i]"
