"""Acceptance checks: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; plain `pytest` still enforces every criterion.
"""

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from trispinor import (
    DegenerateRoots,
    GaussScalar,
    IdentityId,
    Quaternion,
    SeqParams,
    Spinor,
    Status,
    binet_spinor,
    breve,
    determinant_combination_values,
    genfunc_numerator,
    norm_forms,
    preset,
    qmul,
    qnorm,
    random_params,
    run_identity,
    seq_slice,
    sigma,
    trib_quaternion,
    trib_spinor,
)
from trispinor.cli import render_json
from trispinor.spinors import spinor_window

TRIB = preset("tribonacci")
JAC = preset("third_order_jacobsthal")

_rng = random.Random(20260808)
SWEEP = [random_params(_rng) for _ in range(100)]
SMALL_SWEEP = SWEEP[:25]


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f"  {detail}" if detail else ""
    print(f"[acceptance {num:02d}] {name}: {tag}{suffix}")
    assert ok, f"criterion {num} ({name}) failed{suffix}"


def test_c01_spinor_recurrence_sweep():
    start = time.perf_counter()
    ok = all(
        run_identity(IdentityId.SPINOR_RECURRENCE, p, nmax=100).status is Status.EXACT_PASS
        for p in SWEEP
    )
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    report(1, "spinor recurrence, 100 param sets, n<=100", ok,
           f"elapsed {elapsed:.2f}s")


def test_c02_conjugate_relations_sweep():
    ok = all(
        run_identity(IdentityId.CONJUGATE_RELATIONS, p, nmax=100).status is Status.EXACT_PASS
        for p in SWEEP
    )
    report(2, "conjugate relations, same sweep", ok)


def test_c03_norm_equality():
    ok = all(
        run_identity(IdentityId.NORM_EQUALITY, p, nmax=100).status is Status.EXACT_PASS
        for p in SWEEP
    )
    spot = norm_forms(trib_spinor(TRIB, 0)) == (GaussScalar(6),) * 3
    spot = spot and qnorm(trib_quaternion(TRIB, 0)) == 6
    report(3, "norm equality, three forms", ok and spot, "spot value n=0 -> 6")


def test_c04_product_correspondence():
    rng = random.Random(42)
    minus_i = GaussScalar(0, -1)
    ok = True
    for _ in range(1000):
        p = Quaternion(*(Fraction(rng.randint(-9, 9)) for _ in range(4)))
        q = Quaternion(*(Fraction(rng.randint(-9, 9)) for _ in range(4)))
        if sigma(qmul(p, q)) != minus_i * (breve(p) @ sigma(q)):
            ok = False
            break
        if breve(qmul(p, q)) != minus_i * (breve(p) @ breve(q)):
            ok = False
            break
    report(4, "product correspondence and matrix homomorphism, 1000 pairs", ok)


def test_c05_triple_product_map():
    # Each seed draws TRIALS = 16 random triples after the 64 basis triples:
    # 63 seeds draw 1008.
    ok = all(run_identity(IdentityId.TRIPLE_PRODUCT_MAP, None, seed=seed).status
             is Status.EXACT_PASS
             for seed in range(42, 42 + 63))
    report(5, "triple product map, 1008 random triples over 63 seeds", ok)


def test_c06_binet():
    ok = all(run_identity(IdentityId.BINET_AGREEMENT, p, nmax=30).status is Status.TOLERED_PASS
             for p in (TRIB, JAC))
    try:
        binet_spinor(SeqParams(3, -3, 1, 0, 1, 1), 3)
        degenerate_raises = False
    except DegenerateRoots:
        degenerate_raises = True
    report(6, "closed form within 1e-9 for n<=30; triple root refused",
           ok and degenerate_raises)


def test_c07_generating_function():
    # genfunc prints A(k), read off V(0..66) by spinor_window, for k < 64. That
    # is the series S of N(x)/Q(x) if S(x)*Q(x) = N(x) mod x^64, where
    # Q(x) = 1 - r*x - s*x^2 - t*x^3 and N = genfunc_numerator(p).
    zero = Spinor(GaussScalar(0), GaussScalar(0))
    ok = True
    for p in SWEEP:
        v = seq_slice(p, 0, 67)
        s = [zero] * 3 + [spinor_window(v, k) for k in range(64)]
        product = [s[k + 3] - p.r * s[k + 2] - p.s * s[k + 1] - p.t * s[k] for k in range(64)]
        if product != [*genfunc_numerator(p), *[zero] * 61]:
            ok = False
            break
    numerator_ok = genfunc_numerator(TRIB) == (
        Spinor(GaussScalar(2, 0), GaussScalar(1, 1)),
        Spinor(GaussScalar(2, 1), GaussScalar(0, 1)),
        Spinor(GaussScalar(1, 0), GaussScalar(0, 1)),
    )
    report(7, "printed coefficients are the series of N/Q, 64 terms x 100 sets; numerator",
           ok and numerator_ok)


def test_c08_summation():
    ok = True
    tested = 0
    for p in SWEEP:
        if p.r + p.s + p.t - 1 == 0:
            continue
        tested += 1
        if (run_identity(IdentityId.SUMMATION_CLOSED_FORM, p, nmax=200).status
                is not Status.EXACT_PASS):
            ok = False
            break
    trib_report = run_identity(IdentityId.SUMMATION_CLOSED_FORM, TRIB, nmax=200)
    notes_ok = (
        "[-5-1i; -1-3i]" in trib_report.note
        and "[-3-1i; 0-2i]" in trib_report.note
        and "first mismatch at n=0" in trib_report.note
    )
    report(8, "summation with sigma(omega), n<=200", ok and notes_ok,
           f"{tested} non-degenerate sets; alternative constant mismatch recorded")


def test_c09_matrix_power_shift():
    ok = all(
        run_identity(IdentityId.MATRIX_POWER_SHIFT, p, nmax=30).status is Status.EXACT_PASS
        for p in SMALL_SWEEP
    )
    report(9, "window matrix times companion power, n<=30", ok)


def test_c10_u_decomposition():
    ok = all(
        run_identity(IdentityId.U_DECOMPOSITION, p, nmax=100).status is Status.EXACT_PASS
        for p in SMALL_SWEEP
    )
    report(10, "companion-sequence decomposition, n<=100", ok)


def test_c11_determinant_combination():
    result = run_identity(IdentityId.DETERMINANT_COMBINATION, TRIB, nmax=20)
    sides_agree = result.status is Status.EXACT_PASS
    reference = Spinor(GaussScalar(-4, 4), GaussScalar(4, -4))
    shifted_constant = all(
        determinant_combination_values(TRIB, n)[0] == reference for n in range(21)
    )
    deterministic = result == run_identity(IdentityId.DETERMINANT_COMBINATION, TRIB, nmax=20)
    report(11, "determinant combination: sides agree, constants recorded",
           sides_agree and shifted_constant and deterministic,
           "shifted reading equals 4*[-1+i; 1-i]")


def test_c12_cli_suite():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "trispinor", "suite", "--preset", "tribonacci",
         "--nmax", "50", "--seed", "1", "--json"],
        capture_output=True, text=True, env=env, timeout=30,
    )
    elapsed = time.perf_counter() - start
    ok = proc.returncode == 0 and elapsed < 2.0
    roundtrip = proc.stdout == render_json(json.loads(proc.stdout))
    ok = ok and roundtrip and len(json.loads(proc.stdout)) == len(IdentityId)
    report(12, "CLI suite under 2s, exit 0, byte-stable JSON", ok,
           f"elapsed {elapsed:.2f}s")
