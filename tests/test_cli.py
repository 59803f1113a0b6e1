import io
import json
import sys
from fractions import Fraction

import pytest

from trispinor.cli import main, render_json

# binet FAILs on this set at n = 21 by float noise alone, a relative error of
# 1.756e-09 against the tolerance 1e-9 (ROADMAP item 1).
FLOAT_NOISE_FAIL = "-1,-2,4,3,2,5"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone, as under `trispinor term | head -0`."""

    def write(self, text):
        raise BrokenPipeError


def test_term_single(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "term", "--preset", "tribonacci", "-n", "5")
    assert code == 0
    assert out == "7\n"
    # A closed pipe ends the command quietly: exit 0, nothing on stderr.
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert main(["term", "-n", "5"]) == 0
    assert capsys.readouterr().err == ""


def test_term_explicit_params(capsys):
    code, out, _ = run_cli(capsys, "term", "--params", "1,1,1,0,1,1", "-n", "0")
    assert code == 0
    assert out == "0\n"


def test_term_slice(capsys):
    code, out, _ = run_cli(capsys, "term", "--nmax", "5")
    assert code == 0
    assert out.splitlines() == ["0", "1", "1", "2", "4", "7"]


def test_term_fractional_params(capsys):
    code, out, _ = run_cli(capsys, "term", "--params", "1/2,1,1,0,1,1", "-n", "3")
    assert code == 0
    assert out == "3/2\n"


def test_unknown_preset(capsys):
    code, out, err = run_cli(capsys, "term", "--preset", "nope", "-n", "1")
    assert code == 2
    assert out == ""
    assert "unknown preset" in err


def test_bad_params_csv(capsys):
    code, _, err = run_cli(capsys, "term", "--params", "1,2,3", "-n", "1")
    assert code == 2
    assert "six comma-separated" in err
    code, _, err = run_cli(capsys, "term", "--params", "a,b,c,d,e,f", "-n", "1")
    assert code == 2
    assert "invalid rational" in err


def test_missing_index_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["spinor", "--preset", "tribonacci"])
    assert exc.value.code == 2


def test_negative_ranges_exit_2(capsys):
    code, _, err = run_cli(capsys, "suite", "--nmax", "-1")
    assert code == 2 and "nonnegative" in err
    code, _, err = run_cli(capsys, "verify", "--identity", "norm", "--nmax", "-5")
    assert code == 2 and "nonnegative" in err


def test_dash_leading_values_are_read_as_values(capsys):
    code, out, _ = run_cli(capsys, "term", "--params", "-1,1,1,0,1,1", "-n", "3")
    assert code == 0
    assert out == "0\n"


@pytest.mark.parametrize("command", [["binet", "-n", "5"], ["verify", "--identity", "binet"],
                                     ["suite"]])
@pytest.mark.parametrize("tol", [["--tol", "1e-9"], ["--tol=1e-18"]])
def test_tol_is_not_an_option(capsys, command, tol):
    # binet's tolerance is the constant identities.TOL: no subcommand takes --tol.
    with pytest.raises(SystemExit) as exc:
        main(command + tol)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "unrecognized arguments: --tol" in captured.err


def test_quaternion_output(capsys):
    code, out, _ = run_cli(capsys, "quaternion", "-n", "0")
    assert code == 0
    assert out == "(0, 1, 1, 2)\n"
    code, out, _ = run_cli(capsys, "quaternion", "-n", "2", "--json")
    assert json.loads(out) == {"q0": "1", "q1": "2", "q2": "4", "q3": "7"}


def test_spinor_text(capsys):
    code, out, _ = run_cli(capsys, "spinor", "--preset", "tribonacci", "-n", "0")
    assert code == 0
    assert out == "[2+0i; 1+1i]\n"


def test_spinor_json(capsys):
    code, out, _ = run_cli(capsys, "spinor", "--preset", "tribonacci", "-n", "2", "--json")
    assert code == 0
    assert json.loads(out) == {
        "c1": {"re": "7", "im": "1"},
        "c2": {"re": "2", "im": "4"},
    }


def test_binet_json_carries_tol(capsys):
    code, out, _ = run_cli(capsys, "binet", "-n", "5", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["tol"] == 1e-9
    assert abs(payload["c1"]["re"] - 44.0) < 1e-6
    assert abs(payload["c1"]["im"] - 7.0) < 1e-6


REPEATED = "error: DegenerateRoots: repeated characteristic roots\n"
CLOSE = "error: DegenerateRoots: characteristic roots closer than 1e-8 of their scale\n"


def test_binet_degenerate_params(capsys):
    # (x - 1)^3
    assert run_cli(capsys, "binet", "--params", "3,-3,1,0,1,1", "-n", "2") == (2, "", REPEATED)


@pytest.mark.parametrize("params, message", [
    ("3e400,-3e800,1e1200,0,1,1", REPEATED),  # (x - 10^400)^3, past float range
    ("1e300,1,1,0,1,1", CLOSE),  # two roots of size 1e-150 beside one near 1e300
    ("0,0,1e-300,1,1,1", CLOSE),  # three roots of size 1e-100 against the scale 1
], ids=["repeated-past-float-range", "close-beside-a-large-root", "close-and-small"])
def test_binet_refusal_says_what_it_found(capsys, params, message):
    # The exact discriminant is 0 on the repeated roots alone.
    r, s, t = map(Fraction, params.split(",")[:3])
    disc = r**2 * s**2 + 4 * s**3 - 4 * r**3 * t - 18 * r * s * t - 27 * t**2
    assert (disc == 0) == (message == REPEATED)
    assert run_cli(capsys, "binet", "--params", params, "-n", "1") == (2, "", message)


def test_genfunc_text(capsys):
    code, out, _ = run_cli(capsys, "genfunc", "--order", "3")
    assert code == 0
    assert out.splitlines() == [
        "0: [2+0i; 1+1i]",
        "1: [4+1i; 1+2i]",
        "2: [7+1i; 2+4i]",
    ]
    # --order 0 reads no term: V(2) of this set, 10^4300, is past the digit limit.
    assert run_cli(capsys, "genfunc", "--order", "0", "--params=1,1,1,0,1,1e4300") == (0, "", "")


def test_genfunc_json_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "genfunc", "--order", "4", "--json")
    assert code == 0
    assert out == render_json(json.loads(out))
    assert json.loads(out)["order"] == 4
    code, out, _ = run_cli(capsys, "genfunc", "--order", "0", "--json",
                           "--params=1,1,1,0,1,1e4300")
    assert (code, out) == (0, '{\n  "coefficients": [],\n  "order": 0\n}\n')


def test_verify_norm(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--preset", "tribonacci", "--identity", "norm", "--nmax", "50")
    assert code == 0
    assert "exact_pass" in out


def test_verify_summation_reports_both_constants(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--preset", "tribonacci", "--identity", "summation",
        "--nmax", "50")
    assert code == 0
    assert "sigma(omega) constant [-5-1i; -1-3i]" in out
    assert "seed-window constant [-3-1i; 0-2i]" in out


def test_verify_summation_degenerate_delta_skips(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--params", "1,1,-1,0,1,1", "--identity", "summation")
    assert code == 0
    assert "skipped" in out
    assert "DegenerateDelta" in out


def test_verify_failure_exit_code(capsys):
    # Item 1's exact Binet verdict flips this set to a pass.
    code, out, _ = run_cli(capsys, "verify", "--identity", "binet", "--nmax", "30",
                           "--params", FLOAT_NOISE_FAIL)
    assert code == 1
    assert "fail" in out
    assert "witness" in out


def test_suite_text(capsys):
    code, out, _ = run_cli(capsys, "suite", "--preset", "third_order_jacobsthal",
                           "--nmax", "30")
    assert code == 0
    lines = [line for line in out.splitlines() if line and not line.startswith("  ")]
    assert len(lines) == 11


def test_suite_defaults_to_tribonacci(capsys):
    code, out, _ = run_cli(capsys, "suite", "--json")
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 11
    assert reports[0]["params"]["r"] == "1"
    assert reports[0]["range"] == [0, 50]


def test_suite_json_roundtrips(capsys):
    code, out, _ = run_cli(capsys, "suite", "--preset", "tribonacci",
                           "--nmax", "50", "--seed", "1", "--json")
    assert code == 0
    assert out == render_json(json.loads(out))
    reports = json.loads(out)
    statuses = {r["identity"]: r["status"] for r in reports}
    assert statuses["summation"] == "exact_pass"
    assert statuses["determinant"] == "exact_pass"
    assert statuses["binet"] == "tolered_pass"


def test_report_schema(capsys):
    _, out, _ = run_cli(capsys, "verify", "--identity", "recurrence", "--json")
    payload = json.loads(out)
    assert set(payload) == {"identity", "params", "range", "status", "note"}
    # Item 1's exact Binet verdict flips this set to a pass.
    _, out, _ = run_cli(capsys, "verify", "--identity", "binet",
                        "--params", FLOAT_NOISE_FAIL, "--json")
    payload = json.loads(out)
    assert set(payload) == {"identity", "params", "range", "status", "note", "witness"}
    assert set(payload["witness"]) == {"n", "lhs", "rhs"}
