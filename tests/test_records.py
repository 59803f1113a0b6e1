"""The record types: their text, their coercion, their immutability and the
argument errors of run_identity and run_suite, which build them. The reprs were
recorded while the records were still dataclasses."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from trispinor import (
    IdentityId,
    SeqParams,
    Status,
    VerificationReport,
    Witness,
    preset,
    run_identity,
    run_suite,
)

SRC = str(Path(__file__).resolve().parent.parent / "src")
TRIB = preset("tribonacci")
P = SeqParams(Fraction(4, 3), Fraction(4, 2), 5, Fraction(3, 2), -1, Fraction(1, 4))
P_REPR = ("SeqParams(r=Fraction(4, 3), s=2, t=5, v0=Fraction(3, 2), v1=-1, "
          "v2=Fraction(1, 4))")

RECORDS = [
    (P, P_REPR),
    (Witness(3, "[1+0i; 2-1i]", "x"),
     "Witness(n=3, lhs='[1+0i; 2-1i]', rhs='x')"),
    (VerificationReport(IdentityId.SUMMATION_CLOSED_FORM, P, (0, 3), Status.EXACT_PASS),
     "VerificationReport(identity=<IdentityId.SUMMATION_CLOSED_FORM: 'summation'>, "
     f"params={P_REPR}, span=(0, 3), status=<Status.EXACT_PASS: 'exact_pass'>, "
     "witness=None, note='')"),
    (VerificationReport(IdentityId.TRIPLE_PRODUCT_MAP, None, (0, 9), Status.FAIL,
                        Witness(0, "a", "b"), "a=(1, 2, 3, 4)"),
     "VerificationReport(identity=<IdentityId.TRIPLE_PRODUCT_MAP: 'triple_product'>, "
     "params=None, span=(0, 9), status=<Status.FAIL: 'fail'>, "
     "witness=Witness(n=0, lhs='a', rhs='b'), note='a=(1, 2, 3, 4)')"),
]


@pytest.mark.parametrize("record, text", RECORDS, ids=[type(r).__name__ for r, _ in RECORDS])
def test_record_repr_and_str(record, text):
    assert repr(record) == text
    if type(record) is not SeqParams:
        assert str(record) == text


def _assert_coerced(p):
    assert p == P
    assert [type(x) for x in (p.r, p.s, p.t, p.v0, p.v1, p.v2)] == [
        Fraction, int, int, Fraction, int, Fraction]


@pytest.mark.parametrize("route", [
    lambda: SeqParams(Fraction(4, 3), Fraction(4, 2), 5, Fraction(3, 2), -1, Fraction(1, 4)),
    lambda: SeqParams(r=Fraction(4, 3), s=Fraction(4, 2), t=5.0, v0=1.5, v1=Fraction(-2, 2),
                      v2=Fraction(1, 4)),
    lambda: SeqParams._make([Fraction(4, 3), Fraction(4, 2), Fraction(10, 2), Fraction(3, 2),
                             -1, Fraction(1, 4)]),
    lambda: P._replace(s=Fraction(4, 2), v1=Fraction(-3, 3)),
    lambda: P._replace(s=7)._replace(s=Fraction(6, 3)),
    lambda: pickle.loads(pickle.dumps(P)),
    lambda: copy.copy(P),
    lambda: copy.deepcopy(P),
], ids=["positional", "keywords", "_make", "_replace", "_replace-other", "pickle", "copy",
        "deepcopy"])
def test_seq_params_coerces_on_every_route(route):
    _assert_coerced(route())


FIRST_FIELD = {SeqParams: "r", Witness: "n", VerificationReport: "identity"}


@pytest.mark.parametrize("record, _", RECORDS, ids=[type(r).__name__ for r, _ in RECORDS])
def test_records_are_immutable(record, _):
    with pytest.raises(AttributeError):
        setattr(record, FIRST_FIELD[type(record)], 0)
    with pytest.raises(AttributeError):
        record.extra = 0


@pytest.mark.parametrize("call, error", [
    (lambda: run_identity(IdentityId.SPINOR_RECURRENCE), TypeError),
    (lambda: run_identity(IdentityId.SPINOR_RECURRENCE, TRIB, nmax=5, bogus=1), TypeError),
    # nmax and seed are keywords only.
    (lambda: run_identity(IdentityId.SPINOR_RECURRENCE, TRIB, 5), TypeError),
    (lambda: run_identity(IdentityId.BINET_AGREEMENT, TRIB, nmax=5, p=TRIB), TypeError),
    (lambda: run_identity(), TypeError),
    (lambda: run_identity(IdentityId.TRIPLE_PRODUCT_MAP, None, trials=16), TypeError),
    (lambda: run_identity(IdentityId.BINET_AGREEMENT, TRIB, nmax=-1), ValueError),
    (lambda: run_suite(TRIB, -1), ValueError),
    # binet's tolerance is the constant TOL.
    (lambda: run_identity(IdentityId.BINET_AGREEMENT, TRIB, tol=1e-9), TypeError),
    (lambda: run_suite(TRIB, 50, 0, 1e-9), TypeError),
])
def test_verify_argument_errors(call, error):
    with pytest.raises(error):
        call()


def test_verify_binds_defaults_and_keywords():
    # perfbench's tracer binds run_identity's arguments by name.
    assert run_identity(nmax=4, p=TRIB, identity=IdentityId.BINET_AGREEMENT).span == (0, 4)
    assert run_identity(IdentityId.TRIPLE_PRODUCT_MAP, None, seed=2).span == (0, 79)


def test_import_leaves_out_dataclasses_and_inspect():
    code = ("import sys, trispinor.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=SRC)).stdout
    assert out == "[]\n"
