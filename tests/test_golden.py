"""Output-contract goldens: reports rendered exactly as the CLI renders them,
and the output of the value subcommands (term, quaternion, spinor, genfunc,
binet), compared byte for byte with the files under tests/golden/.

The files pin statuses, spans, witnesses and notes (float noise and
triple_product's seed included). The cubic solver is pure Python, so
the float noise depends only on CPython float arithmetic, not on a linear
algebra library. Regenerate them with `PYTHONPATH=src python
tests/test_golden.py` only for an intended change of output.
"""

import contextlib
import io
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from trispinor import (
    THIRD_ORDER_JACOBSTHAL,
    IdentityId,
    SeqParams,
    run_identity,
)
from trispinor.cli import main, render_json, report_to_dict

GOLDEN = Path(__file__).resolve().parent / "golden"

PARAM_SETS = {
    "third_order_jacobsthal": THIRD_ORDER_JACOBSTHAL,
    # V(n) = -2 sits on the root 1, so binet passes only if no float noise
    # leaks into the dominant root 1 + sqrt(3); an imprecise root 1 once made
    # it report a false FAIL at n=14 (error 2.4e-9).
    "binet_false_fail": SeqParams(3, 0, -2, -2, -2, -2),
    # r + s + t - 1 = 0: summation is skipped.
    "degenerate_delta": SeqParams(1, 1, -1, 0, 1, 1),
    "rational": SeqParams(Fraction(1, 2), Fraction(-2, 3), Fraction(3, 4),
                          1, Fraction(-1, 2), Fraction(2, 5)),
}


def _suite_cli() -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["suite", "--preset", "tribonacci", "--nmax", "50",
                     "--seed", "1", "--json"])
    assert code == 0
    return out.getvalue()


def _run_identities(p: SeqParams) -> str:
    return render_json([
        report_to_dict(run_identity(i, p, nmax=30))
        for i in IdentityId if i is not IdentityId.TRIPLE_PRODUCT_MAP
    ])


# The subcommands that print values rather than reports, each in text and
# JSON. Indices above 0 read deep terms, not only the seed window.
CLI_COMMANDS = [
    [*argv, *json_flag]
    for argv in (["term", "-n", "40"], ["term", "--nmax", "12"], ["quaternion", "-n", "25"],
                 ["spinor", "-n", "30"], ["genfunc", "--order", "6"], ["binet", "-n", "10"])
    for json_flag in ([], ["--json"])
]
CLI_PARAMS = {"integer": "2,-1,3,1,-2,5", "rational": "1/2,-2/3,3/4,1,-1/2,2/5"}


def _cli_transcript(params: str) -> str:
    """Every CLI_COMMANDS line run with --params, its stdout and its exit code."""
    parts = []
    for argv in CLI_COMMANDS:
        argv = [*argv, "--params", params]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        parts.append(f"$ trispinor {' '.join(argv)}\n{out.getvalue()}[exit {code}]\n")
    return "".join(parts)


CASES = {
    "suite_tribonacci_nmax50_seed1.json": _suite_cli,
    **{f"run_identity_{name}_nmax30.json": (lambda p=p: _run_identities(p))
       for name, p in PARAM_SETS.items()},
    # binet FAILs by float noise at n = 21; item 1's exact Binet verdict flips it.
    "verify_binet_float_noise_nmax30.json":
        lambda: render_json(report_to_dict(run_identity(IdentityId.BINET_AGREEMENT,
                                                        SeqParams(-1, -2, 4, 3, 2, 5), nmax=30))),
    **{f"cli_values_{name}.txt": (lambda params=params: _cli_transcript(params))
       for name, params in CLI_PARAMS.items()},
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name):
    assert CASES[name]() == (GOLDEN / name).read_text()


def test_suite_golden_in_fresh_processes():
    """Each fresh process draws its own hash seed, which the in-process golden
    cannot vary: 5 `python -m trispinor suite` processes each print the golden
    byte for byte."""
    src = str(GOLDEN.parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    env.pop("PYTHONHASHSEED", None)
    argv = [sys.executable, "-m", "trispinor", "suite", "--preset", "tribonacci",
            "--nmax", "50", "--seed", "1", "--json"]
    want = (GOLDEN / "suite_tribonacci_nmax50_seed1.json").read_bytes()
    outputs = [subprocess.run(argv, stdout=subprocess.PIPE, check=True, env=env,
                              timeout=30).stdout for _ in range(5)]
    assert sum(out != want for out in outputs) == 0


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, render in CASES.items():
        (GOLDEN / name).write_text(render())
        print(f"wrote {GOLDEN / name}", file=sys.stderr)
