"""The CLI contract: counts are bounded, and any argv ends in exit 0, 1 or 2
with one error line, never a traceback."""

import argparse
import contextlib
import io
import os
import re
import resource
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from trispinor import TRIBONACCI, IdentityId, SeqParams, Status, cli, identities
from trispinor.cli import MAX_CHECK_NMAX, MAX_OPERAND_BITS, MAX_TERMS, main
from trispinor.identities import read_terms
from trispinor.quaternions import u_companion


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv, message", [
    (["term", "-n", str(MAX_TERMS + 1)], f"index must be at most {MAX_TERMS}"),
    (["term", "--nmax", str(MAX_TERMS + 1)], f"nmax must be at most {MAX_TERMS}"),
    (["quaternion", "-n", str(MAX_TERMS + 1)], f"index must be at most {MAX_TERMS}"),
    (["spinor", "-n", str(MAX_TERMS + 1)], f"index must be at most {MAX_TERMS}"),
    (["binet", "-n", str(MAX_TERMS + 1)], f"index must be at most {MAX_TERMS}"),
    (["genfunc", "--order", str(MAX_TERMS + 1)], f"order must be at most {MAX_TERMS}"),
    (["verify", "--identity", "norm", "--nmax", str(MAX_CHECK_NMAX + 1)],
     f"nmax must be at most {MAX_CHECK_NMAX}"),
    (["suite", "--nmax", str(MAX_CHECK_NMAX + 1)], f"nmax must be at most {MAX_CHECK_NMAX}"),
])
def test_count_above_bound_exits_2(argv, message):
    assert run(argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv", [
    ["term", "-n", "-1"], ["term", "--nmax", "-1"], ["quaternion", "-n", "-1"],
    ["spinor", "-n", "-1"], ["binet", "-n", "-1"], ["genfunc", "--order", "-1"],
])
def test_negative_count_exits_2(argv):
    code, out, err = run(argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.endswith(" must be nonnegative\n")


@pytest.mark.parametrize("argv", [
    # V(9000) of this set has about 7,000 digits; Python prints at most 4,300
    # unless its limit is changed.
    ["term", "--nmax", "9000", "--params", "5,5,5,1,1,1"],
    ["term", "-n", "9000", "--params", "5,5,5,1,1,1"],
    ["term", "--nmax", "9000", "--json", "--params", "5,5,5,1,1,1"],
    # V(k) is 99999^(k-2), so the coefficients pass 4,300 digits from k = 860.
    ["genfunc", "--order", "1000", "--params", "99999,0,0,1,1,1"],
])
def test_value_past_the_digit_limit_exits_2_with_empty_stdout(argv):
    code, out, err = run(argv)
    assert (code, out) == (2, "")
    limit = sys.get_int_max_str_digits()
    assert err == f"error: output limit exceeded: a value has more than {limit} digits\n"
    assert "set_int_max_str_digits" not in err


@pytest.mark.parametrize("command", [["term", "--nmax", "9000"], ["genfunc", "--order", "9000"]],
                         ids=["term", "genfunc"])
def test_term_and_genfunc_meet_the_digit_limit_before_the_slice(monkeypatch, command):
    def no_slice(*args):
        raise AssertionError("seq_slice called")

    monkeypatch.setattr(cli, "seq_slice", no_slice)
    limit = sys.get_int_max_str_digits()
    assert run([*command, "--params", "5,5,5,1,1,1"]) == (
        2, "", f"error: output limit exceeded: a value has more than {limit} digits\n")


def test_a_deep_term_of_a_large_prime_set_meets_the_digit_limit_fast():
    """V(2000) of a set with a 31-digit denominator prime has about 61,000
    digits. Its jump runs on int, so the refusal comes in well under a second."""
    large_prime = 10**30 + 57
    params = f"1/{large_prime},-2/3,1/2,1,5/{large_prime},1/4"
    limit = sys.get_int_max_str_digits()
    start = time.perf_counter()
    assert run(["term", "-n", "2000", "--params", params]) == (
        2, "", f"error: output limit exceeded: a value has more than {limit} digits\n")
    assert time.perf_counter() - start < 1


def test_long_bad_params_piece_is_echoed_short():
    code, out, err = run(["term", "--params", "x" * 100_000 + ",1,1,0,1,1", "-n", "0"])
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and len(err.encode()) < 120
    assert err == f"error: invalid rational value in --params: {'x' * 40!r}... (100000 characters)\n"


@pytest.mark.parametrize("piece", ["\U000e0001" * 100, "\x00" * 100],
                         ids=["language-tags", "nuls"])
def test_bad_params_line_is_bounded_in_bytes(piece):
    """A bad piece is cut by the width of its repr, not by its characters."""
    code, out, err = run(["term", "--params", piece + ",1,1,0,1,1", "-n", "0"])
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and len(err.encode()) <= 120
    shown = err.removeprefix("error: invalid rational value in --params: ")
    assert shown.endswith(f"... ({len(piece)} characters)\n")
    assert repr(piece).startswith(shown.partition("... (")[0][:-1])


def test_operands_past_the_bit_bound_exit_2_at_once():
    """verify and suite read the size of the terms their checks read, up to
    V(nmax+7) at most, before any check, and stop at the first one past the
    bound. norm reads only V(0) to V(6) on that set, and runs."""
    params = "9" * 4300 + ",1,1,0,1,1"
    for argv in (["verify", "--identity", "summation", "--nmax", "50", "--params", params],
                 ["suite", "--params", params]):
        start = time.perf_counter()
        code, out, err = run(argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert re.fullmatch(rf"error: operands are limited to {MAX_OPERAND_BITS} bits: "
                            r"V\(\d+\) has \d+\n", err)
    start = time.perf_counter()
    code, out, err = run(["verify", "--identity", "norm", "--nmax", "50", "--params", params])
    assert time.perf_counter() - start < 1.0
    assert (code, err) == (0, "") and out.startswith("norm             exact_pass")


def test_verify_bounds_only_the_terms_its_identity_reads():
    """conjugates compares the windows at n <= 3 after its basis: verify sizes
    V(0) to V(6) and runs, while suite still sizes every term to V(nmax+7)."""
    params = "9" * 100 + ",1,1,0,1,1"
    start = time.perf_counter()
    code, out, err = run(["verify", "--identity", "conjugates", "--nmax", "1000",
                          "--params", params])
    assert time.perf_counter() - start < 1.0
    assert (code, err) == (0, "") and "exact_pass" in out
    assert run(["suite", "--nmax", "1000", "--params", params]) == (
        2, "", f"error: operands are limited to {MAX_OPERAND_BITS} bits: V(397) has 131217\n")


@pytest.mark.parametrize("identity", ["matrix_power", "determinant", "summation"])
def test_verify_sizes_a_sequence_check_to_its_guard(identity):
    """A sequence check compares n below its order and a guard at nmax, which
    reads V(nmax) and beyond: verify sizes every term to V(nmax + reach - 1),
    whatever the order bound. The determinant refuses every set but tribonacci
    before it reads a term, so verify sizes none and skips it at once."""
    params = "9" * 100 + ",1,1,0,1,1"
    start = time.perf_counter()
    code, out, err = run(["verify", "--identity", identity, "--nmax", "1000", "--params", params])
    assert time.perf_counter() - start < 1.0
    if identity == "determinant":
        assert (code, err) == (0, "") and out.startswith("determinant      skipped")
    else:
        assert (code, out, err) == (
            2, "", f"error: operands are limited to {MAX_OPERAND_BITS} bits: V(397) has 131217\n")


def test_a_refused_check_sizes_no_terms():
    """V(1009) of this set is past the operand bound, but only the determinant,
    which refuses every set but tribonacci, would read it: verify sizes no term,
    skips the determinant and exits 0."""
    params = "1562500000000000000000000000000000000001,1,1,0,1,1"
    code, out, err = run(["verify", "--identity", "determinant", "--nmax", "1000",
                          "--params", params])
    assert (code, err) == (0, "")
    assert out == ("determinant      skipped      n=[0..1000]  skipped (UnsupportedParams): "
                   "determinant combination is only defined for the tribonacci preset\n")


def test_suite_sizes_the_most_a_check_that_runs_reads(monkeypatch):
    """On a set the determinant refuses, suite's operand pass pulls V(0) to
    V(nmax+7), matrix_power's slice, of V and of U."""
    pulled, iter_terms = Counter(), cli._iter_terms

    def counted(p, *args):
        for v in iter_terms(p, *args):
            pulled[p] += 1
            yield v

    monkeypatch.setattr(cli, "_iter_terms", counted)
    p = SeqParams(2, 1, 1, 0, 1, 1)
    assert run(["suite", "--nmax", "50", "--params", "2,1,1,0,1,1"])[0] == 0
    assert pulled[p] == pulled[u_companion(p)] == 50 + 8


@pytest.mark.parametrize("params", ["tribonacci", "9" * 39 + ",0,0,0,0,0"],
                         ids=["tribonacci", "39-nines-zero-seeds"])
def test_suite_at_nmax_1000_exits_0(params):
    """The deepest suite the bounds admit runs: on tribonacci, and on the largest
    zero-seed r admitted at that depth, where V is all 0 and only the operand
    pass over the companion U bounds r."""
    argv = ["--preset", params] if params == "tribonacci" else ["--params", params]
    code, out, err = run(["suite", "--nmax", "1000", *argv])
    assert (code, err) == (0, "")


def test_verify_bounds_binet_by_the_nmax_cap():
    """run_identity caps binet at nmax 30: verify sizes V(0) to V(33) and runs,
    while suite still sizes every term to V(nmax+7)."""
    params = "9" * 100 + ",1,1,0,1,1"
    start = time.perf_counter()
    code, out, err = run(["verify", "--identity", "binet", "--nmax", "1000", "--params", params])
    assert time.perf_counter() - start < 1.0
    assert (code, err) == (0, "") and out.startswith("binet") and "n=[0..30]" in out
    assert run(["suite", "--nmax", "1000", "--params", params]) == (
        2, "", f"error: operands are limited to {MAX_OPERAND_BITS} bits: V(397) has 131217\n")


def test_verify_sizes_nothing_for_a_parameter_free_check():
    """triple_product reads no terms: verify sizes none of them and runs, while
    suite still sizes every term to V(nmax+7)."""
    params = "1e300,1,1,0,1,1"
    start = time.perf_counter()
    code, out, err = run(["verify", "--identity", "triple_product", "--nmax", "1000",
                          "--params", params])
    assert time.perf_counter() - start < 1.0
    assert (code, err) == (0, "") and out.startswith("triple_product   exact_pass")
    assert run(["suite", "--nmax", "1000", "--params", params]) == (
        2, "", f"error: operands are limited to {MAX_OPERAND_BITS} bits: V(134) has 131549\n")


@pytest.mark.parametrize("argv, params, message", [
    (["verify", "--identity", "u_decomposition"], "9" * 4300, "U(12) has 142843"),
    (["verify", "--identity", "matrix_power"], "9" * 4300, "U(12) has 142843"),
    (["verify", "--identity", "recurrence"], "1e40", "U(989) has 131150"),
    (["suite"], "1e40", "U(989) has 131150"),
], ids=["u_decomposition", "matrix_power", "recurrence", "suite"])
def test_a_zero_seed_set_is_sized_by_its_companion_sequence(argv, params, message):
    """Every V(n) of a zero-seed set is 0, while its companion U, which
    u_decomposition and the companion power read, grows as r^n: verify and
    suite size U to as many terms as V, after V. So even the recurrence, which
    reads only V, is refused once U passes the bound within that count."""
    start = time.perf_counter()
    assert run([*argv, "--nmax", "1000", "--params", params + ",0,0,0,0,0"]) == (
        2, "", f"error: operands are limited to {MAX_OPERAND_BITS} bits: {message}\n")
    assert time.perf_counter() - start < 1.0


def _reads(monkeypatch, argv):
    """Run argv on tribonacci: the terms the operand pass pulls from V and from
    U, and the lengths of the slices from V(0) the checks read."""
    pulled, slices = Counter(), []
    iter_terms, seq_slice = cli._iter_terms, identities.seq_slice

    def counted(p, *args):
        for v in iter_terms(p, *args):
            pulled[p] += 1
            yield v

    def recorded(p, n0, length):
        if p == TRIBONACCI:
            assert n0 == 0
            slices.append(length)
        return seq_slice(p, n0, length)

    monkeypatch.setattr(cli, "_iter_terms", counted)
    monkeypatch.setattr(identities, "seq_slice", recorded)
    code, out, err = run([*argv, "--preset", "tribonacci"])
    assert (code, err) == (0, "")
    return pulled[TRIBONACCI], pulled[u_companion(TRIBONACCI)], slices


_NMAXES = [0, 2, 3, 29, 30, 31, 50, 1000]
RATIONAL = SeqParams(Fraction(1, 2), Fraction(-2, 3), Fraction(3, 4),
                     1, Fraction(-1, 2), Fraction(2, 5))


@pytest.mark.parametrize("nmax", _NMAXES)
@pytest.mark.parametrize("identity", [i.value for i in IdentityId])
def test_verify_sizes_exactly_what_the_runner_reads(monkeypatch, identity, nmax):
    """The operand pass pulls read_terms terms of V and of U, and the runner's
    one slice from V(0) is as long; a parameter-free check reads none."""
    v, u, slices = _reads(monkeypatch, ["verify", "--identity", identity, "--nmax", str(nmax)])
    terms = read_terms(IdentityId(identity), nmax, TRIBONACCI)
    assert v == u == terms == sum(slices) and len(slices) == bool(terms)


@pytest.mark.parametrize("nmax", _NMAXES)
def test_suite_sizes_the_most_any_check_reads(monkeypatch, nmax):
    """suite's operand pass pulls the most any check reads: V(0) to V(nmax+7),
    the slice of the determinant and of matrix_power."""
    v, u, slices = _reads(monkeypatch, ["suite", "--nmax", str(nmax)])
    most = max(read_terms(i, nmax, TRIBONACCI) for i in IdentityId)
    assert v == u == most == max(slices) == nmax + 8


class _ReadSlice(list):
    """A slice of terms that records the highest index read off it, by index
    or by slice (the stop asked for, even past the end)."""

    last = -1

    def __getitem__(self, key):
        if isinstance(key, slice):
            start, stop = key.start or 0, len(self) if key.stop is None else key.stop
            if stop > start:
                self.last = max(self.last, stop - 1)
        else:
            self.last = max(self.last, key)
        return super().__getitem__(key)


@pytest.mark.parametrize("p", [TRIBONACCI, RATIONAL], ids=["tribonacci", "rational"])
@pytest.mark.parametrize("identity", list(IdentityId), ids=lambda i: i.value)
def test_each_check_reads_exactly_the_terms_it_declares(monkeypatch, identity, p):
    """The highest index the sides read off the runner's slice is read_terms - 1
    at every nmax, so no reach is declared short (a side would raise, or read a
    truncated window) or long (the CLI would size terms no check reads)."""
    reads, seq_slice = [], identities.seq_slice

    def recorded(q, n0, length):
        terms = seq_slice(q, n0, length)
        if q is p:
            reads.append(terms := _ReadSlice(terms))
        return terms

    monkeypatch.setattr(identities, "seq_slice", recorded)
    for nmax in _NMAXES:
        reads.clear()
        report = identities.run_identity(identity, p, nmax=nmax)
        assert report.status is not Status.FAIL
        last = max((r.last for r in reads), default=-1)
        assert last == read_terms(identity, nmax, p) - 1, nmax


def _cap_memory():
    # Before the bound, 1e99999999999 built a 41 GB integer: fail instead.
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.parametrize("value", ["1e99999999999", "1e-99999999999", "1" * 5001],
                         ids=["exponent", "negative-exponent", "5001-digits"])
def test_params_past_the_digit_limit_exit_2_at_once(value):
    # In a child process, so that a hang is cut by the timeout.
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "trispinor", "term", "--params", f"{value},1,1,0,1,1", "-n", "0"],
        capture_output=True, text=True, env=env, timeout=20, preexec_fn=_cap_memory)
    assert time.perf_counter() - start < 1.0
    assert (proc.returncode, proc.stdout) == (2, "")
    limit = sys.get_int_max_str_digits()
    assert proc.stderr == (f"error: --params values are limited to {limit} digits "
                           f"and exponents of at most {limit}\n")


SIZES = st.one_of(
    st.integers(0, 30).map(str),
    st.integers(-5, -1).map(str),
    st.sampled_from([str(MAX_TERMS + 1), str(MAX_CHECK_NMAX + 1), "x", "1.5", "nan", "inf"]),
)
TOLS = st.sampled_from(["1e-9", "1e-3", "0", "-1e-9", "nan", "inf", "x"])
SOURCES = st.sampled_from([
    [], ["--preset", "tribonacci"], ["--preset", "third_order_jacobsthal"],
    ["--preset", "nope"], ["--params", "1/2,-2/3,3/4,1,-1/2,2/5"],
    ["--params", "3,0,-2,-2,-2,-2"], ["--params", "3,-3,1,0,1,1"],
    ["--params", "0,0,0,0,0,0"], ["--params", "1,2,3"],
    ["--params", "1/0,1,1,0,1,1"], ["--params", "a,1,1,0,1,1"],
])
IDENTITIES = st.sampled_from(["recurrence", "conjugates", "norm", "binet", "genfunc",
                              "triple_product", "spinor_matrix", "determinant",
                              "summation", "u_decomposition", "matrix_power", "nope"])


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(
        ["term", "quaternion", "spinor", "binet", "genfunc", "verify", "suite"]))
    argv = [command] + draw(SOURCES)
    if command == "term":
        argv += [draw(st.sampled_from(["-n", "--nmax"])), draw(SIZES)]
    elif command in ("quaternion", "spinor", "binet"):
        argv += ["-n", draw(SIZES)]
    elif command == "genfunc":
        argv += ["--order", draw(SIZES)] if draw(st.booleans()) else []
    elif command == "verify":
        argv += ["--identity", draw(IDENTITIES), "--nmax", draw(SIZES)]
    else:
        argv += ["--nmax", draw(SIZES)]
    # No subcommand takes --tol: argparse exits 2 on it.
    if command in ("binet", "verify", "suite") and draw(st.booleans()):
        argv += ["--tol", draw(TOLS)]
    if draw(st.booleans()):
        argv.append("--json")
    return argv


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argvs())
def test_any_argv_exits_0_1_or_2(argv):
    try:
        code, out, err = run(argv)
    except SystemExit as exc:
        assert exc.code == 2
        return
    assert code in (0, 1, 2)
    if code == 2:
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
    else:
        assert err == ""


# Every option of every subcommand, in declaration order: option strings, dest,
# default, type, required, choices, metavar and help (the -h action aside).
_SOURCE_OPTIONS = [
    (("--preset",), "preset", None, None, False, None, "NAME",
     "named parameter set (default: tribonacci)"),
    (("--params",), "params", None, None, False, None, "CSV",
     "explicit r,s,t,V0,V1,V2 (integers or fractions like 3/2)"),
    (("--json",), "json", False, None, False, None, None, "emit JSON"),
]
_INDEX = (("-n", "--index"), "index", None, int, True, None, None, None)
_CHECK_OPTIONS = [
    (("--nmax",), "nmax", 50, int, False, None, None, None),
    (("--seed",), "seed", 0, int, False, None, None, None),
]
_IDENTITY_NAMES = ["recurrence", "conjugates", "norm", "binet", "genfunc", "triple_product",
                   "spinor_matrix", "determinant", "summation", "u_decomposition",
                   "matrix_power"]
OPTION_TABLE = {
    "term": _SOURCE_OPTIONS + [
        (("-n", "--index"), "index", None, int, False, None, None, None),
        (("--nmax",), "nmax", None, int, False, None, None, None),
    ],
    "quaternion": _SOURCE_OPTIONS + [_INDEX],
    "spinor": _SOURCE_OPTIONS + [_INDEX],
    "binet": _SOURCE_OPTIONS + [_INDEX],
    "genfunc": _SOURCE_OPTIONS + [
        (("--order",), "order", 8, int, False, None, "N", "number of coefficients (default 8)"),
    ],
    "verify": _SOURCE_OPTIONS + [
        (("--identity",), "identity", None, None, True, _IDENTITY_NAMES, None, None),
    ] + _CHECK_OPTIONS,
    "suite": _SOURCE_OPTIONS + _CHECK_OPTIONS,
}
SUBCOMMAND_HELP = [
    ("term", "sequence term V(n), or V(0..nmax)"),
    ("quaternion", "window quaternion at index n"),
    ("spinor", "window spinor at index n"),
    ("binet", "root-based closed-form spinor at index n"),
    ("genfunc", "generating-function series coefficients"),
    ("verify", "check one identity"),
    ("suite", "check every identity"),
]
# The option strings of each subcommand's mutually exclusive groups, and
# whether the group is required.
EXCLUSIVE_GROUPS = {name: [(("--preset", "--params"), False)] for name in OPTION_TABLE}
EXCLUSIVE_GROUPS["term"].append((("-n", "--index", "--nmax"), True))


def _subparsers(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action


def test_each_subcommand_declares_its_pinned_options():
    sub = _subparsers(cli.build_parser())
    assert (sub.dest, sub.required) == ("command", True)
    assert [(a.dest, a.help) for a in sub._choices_actions] == SUBCOMMAND_HELP
    assert list(sub.choices) == list(OPTION_TABLE)
    for name, parser in sub.choices.items():
        got = [(tuple(a.option_strings), a.dest, a.default, a.type, a.required,
                a.choices, a.metavar, a.help)
               for a in parser._actions if not isinstance(a, argparse._HelpAction)]
        assert got == OPTION_TABLE[name], name
        groups = [(tuple(s for a in g._group_actions for s in a.option_strings), g.required)
                  for g in parser._mutually_exclusive_groups]
        assert groups == EXCLUSIVE_GROUPS[name], name
