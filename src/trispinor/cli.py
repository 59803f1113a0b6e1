"""Command-line front end: compute terms, quaternions and spinors, expand
generating functions, and run the identity verification suite.

Exact values are rendered as decimal rationals (strings in JSON); only
binet's root-based closed form produces floats.
Each command returns its whole output, which ``main`` writes once; Python's
int digit limit bounds it. Bad input is a ValueError, reported as one line.
Exit codes: 0 all checks pass, 1 a verified identity failed, 2 bad input.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from itertools import islice

from .analytic import DegenerateRoots, binet_spinor
from .gauss import Rational
from .identities import (
    IdentityId,
    Status,
    VerificationReport,
    read_terms,
    run_identity,
    run_suite,
)
from .quaternions import trib_quaternion
from .sequences import SeqParams, _iter_terms, preset, seq_slice, seq_term, u_companion
from .spinors import spinor_window, trib_spinor

# Largest --index, --order and term --nmax: genfunc --order 10000 takes 1.7-1.9 s on
# tribonacci and 4.0-4.5 s on (1, 1, 1/3, 0, 1, 1), whose terms are Fractions, most
# of it rendering, on a 2-core x86-64 VM (Intel Xeon, CPython 3.11.7; 3 fresh processes).
MAX_TERMS = 10_000
# Largest verify/suite --nmax: the tribonacci suite at 1000 takes 0.16 s on the same
# VM, the median of 7 fresh processes (each 0.13-0.19 s).
MAX_CHECK_NMAX = 1_000
# Largest bit size of a numerator or denominator among the terms of V and U a
# check reads; suite --params 1e400,1,1,0,1,1 reads V(57), 73,083 bits, at the
# default nmax, and verify --identity binet, bounded by its cap, V(33), 41,192 bits.
MAX_OPERAND_BITS = 1 << 17


def _bounded(value: int, name: str, bound: int) -> int:
    """value, if it is a count in [0, bound]; otherwise a ValueError."""
    if value < 0:
        raise ValueError(f"{name} must be nonnegative")
    if value > bound:
        raise ValueError(f"{name} must be at most {bound}")
    return value


def render_json(payload: object) -> str:
    """Canonical JSON rendering; re-rendering parsed output is byte-stable."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _exact_json(value: object) -> object:
    """None as null; a value with _fields (SeqParams, Quaternion, GaussScalar,
    Spinor) as an object of its fields, recursively; anything else as its str."""
    if value is None:
        return None
    if not hasattr(value, "_fields"):
        return str(value)
    return {name: _exact_json(getattr(value, name)) for name in value._fields}


def report_to_dict(r: VerificationReport) -> dict:
    out = {
        "identity": r.identity.value,
        "params": _exact_json(r.params),
        "range": list(r.span),
        "status": r.status.value,
        "note": r.note,
    }
    if r.witness is not None:
        out["witness"] = r.witness._asdict()
    return out


def format_report(r: VerificationReport) -> str:
    line = f"{r.identity.value:<16} {r.status.value:<12} n=[{r.span[0]}..{r.span[1]}]"
    if r.note:
        line += f"  {r.note}"
    if r.witness is not None:
        line += f"\n  witness: n={r.witness.n} lhs={r.witness.lhs} rhs={r.witness.rhs}"
    return line


def _parse_params_csv(text: str) -> SeqParams:
    parts = [piece.strip() for piece in text.split(",")]
    if len(parts) != 6:
        raise ValueError("--params expects six comma-separated values: r,s,t,V0,V1,V2")
    limit = sys.get_int_max_str_digits()
    values = []
    for piece in parts:
        # Fraction builds 10**exponent, which no digit limit stops: bound it first.
        exponent = piece.lower().partition("e")[2].lstrip("+-").replace("_", "")
        if limit and (sum(c.isdigit() for c in piece) > limit
                      or exponent.isdecimal() and int(exponent) > limit):
            raise ValueError(f"--params values are limited to {limit} digits "
                             f"and exponents of at most {limit}")
        try:
            values.append(Fraction(piece))
        except (ValueError, ZeroDivisionError):
            # The longest prefix of at most 40 characters whose repr is no
            # wider in bytes than that of 40 letters.
            cut = min(len(piece), 40)
            while len(repr(piece[:cut]).encode()) > 42:
                cut -= 1
            shown = (repr(piece) if cut == len(piece)
                     else f"{piece[:cut]!r}... ({len(piece)} characters)")
            raise ValueError(f"invalid rational value in --params: {shown}") from None
    return SeqParams(*values)


def _resolve_params(args: argparse.Namespace) -> SeqParams:
    if args.params:
        return _parse_params_csv(args.params)
    return preset(args.preset or "tribonacci")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trispinor",
        description="Exact third-order recurrences, their quaternions and "
        "spinors, and machine-checked identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, text: str) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=text)
        group = sp.add_mutually_exclusive_group()
        group.add_argument("--preset", metavar="NAME",
                           help="named parameter set (default: tribonacci)")
        group.add_argument("--params", metavar="CSV",
                           help="explicit r,s,t,V0,V1,V2 (integers or fractions like 3/2)")
        sp.add_argument("--json", action="store_true", help="emit JSON")
        return sp

    p_term = add("term", "sequence term V(n), or V(0..nmax)")
    which = p_term.add_mutually_exclusive_group(required=True)
    which.add_argument("-n", "--index", type=int)
    which.add_argument("--nmax", type=int)

    for name, text in (("quaternion", "window quaternion at index n"),
                       ("spinor", "window spinor at index n"),
                       ("binet", "root-based closed-form spinor at index n")):
        add(name, text).add_argument("-n", "--index", type=int, required=True)

    add("genfunc", "generating-function series coefficients").add_argument(
        "--order", type=int, default=8, metavar="N", help="number of coefficients (default 8)")

    p_verify = add("verify", "check one identity")
    p_verify.add_argument("--identity", required=True, choices=[i.value for i in IdentityId])
    for checks in (p_verify, add("suite", "check every identity")):
        checks.add_argument("--nmax", type=int, default=50)
        checks.add_argument("--seed", type=int, default=0)

    return parser


def _slice_from_0(p: SeqParams, count: int) -> list[Rational]:
    """V(0) to V(count - 1), all of which the caller prints: rendering the last
    first, in O(log count) products, meets the output limit before the slice."""
    str(seq_term(p, count - 1))
    return seq_slice(p, 0, count)


def _cmd_term(args: argparse.Namespace, p: SeqParams) -> tuple[str, int]:
    if args.index is not None:
        value = seq_term(p, _bounded(args.index, "index", MAX_TERMS))
        return (render_json({"value": str(value)}) if args.json else f"{value}\n"), 0
    values = _slice_from_0(p, _bounded(args.nmax, "nmax", MAX_TERMS) + 1)
    return (render_json({"values": [str(x) for x in values]}) if args.json
            else "".join(f"{x}\n" for x in values)), 0


def _cmd_window(args: argparse.Namespace, p: SeqParams) -> tuple[str, int]:
    """quaternion's Q(n) or spinor's A(n)."""
    window = {"quaternion": trib_quaternion, "spinor": trib_spinor}[args.command]
    x = window(p, _bounded(args.index, "index", MAX_TERMS))
    return (render_json(_exact_json(x)) if args.json else f"{x}\n"), 0


def _cmd_binet(args: argparse.Namespace, p: SeqParams) -> tuple[str, int]:
    n = _bounded(args.index, "index", MAX_TERMS)
    try:
        c1, c2 = binet_spinor(p, n)
    except (DegenerateRoots, OverflowError) as exc:
        raise ValueError(f"{type(exc).__name__}: {exc}") from None
    if args.json:
        return render_json({
            "c1": {"re": c1.real, "im": c1.imag},
            "c2": {"re": c2.real, "im": c2.imag},
        }), 0
    return f"[{c1:.12g}; {c2:.12g}]\n", 0


def _cmd_genfunc(args: argparse.Namespace, p: SeqParams) -> tuple[str, int]:
    order = _bounded(args.order, "order", MAX_TERMS)
    # Coefficient k is A(k), the genfunc check's rhs; --order 0 reads no term.
    v = _slice_from_0(p, order + 3) if order else []
    series = [spinor_window(v, k) for k in range(order)]
    if args.json:
        return render_json({
            "order": order,
            "coefficients": [_exact_json(s) for s in series],
        }), 0
    return "".join(f"{k}: {s}\n" for k, s in enumerate(series)), 0


def _reports(args: argparse.Namespace, reports: list[VerificationReport]) -> tuple[str, int]:
    """Render verify's one report or suite's list; exit 1 if any failed."""
    if args.json:
        dicts = [report_to_dict(r) for r in reports]
        text = render_json(dicts if args.command == "suite" else dicts[0])
    else:
        text = "".join(format_report(r) + "\n" for r in reports)
    return text, 1 if any(r.status is Status.FAIL for r in reports) else 0


def _check_nmax(args: argparse.Namespace, p: SeqParams, checks: list[IdentityId]) -> int:
    """--nmax, if it is in range and no term of V, then of its companion U, to the most
    read_terms of the checks has a numerator or denominator of more than MAX_OPERAND_BITS
    bits (every other sequence a check computes is U shifted and scaled); stops at the first."""
    nmax = _bounded(args.nmax, "nmax", MAX_CHECK_NMAX)
    count = max(read_terms(identity, nmax, p) for identity in checks)
    for name, seq in (("V", p), ("U", u_companion(p))):
        for n, v in enumerate(islice(_iter_terms(seq), count)):
            bits = max(v.numerator.bit_length(), v.denominator.bit_length())
            if bits > MAX_OPERAND_BITS:
                raise ValueError(f"operands are limited to {MAX_OPERAND_BITS} bits: "
                                 f"{name}({n}) has {bits}")
    return nmax


def _cmd_verify(args: argparse.Namespace, p: SeqParams) -> tuple[str, int]:
    nmax = _check_nmax(args, p, [identity := IdentityId(args.identity)])
    return _reports(args, [run_identity(identity, p, nmax=nmax, seed=args.seed)])


def _cmd_suite(args: argparse.Namespace, p: SeqParams) -> tuple[str, int]:
    nmax = _check_nmax(args, p, list(IdentityId))
    return _reports(args, run_suite(p, nmax=nmax, seed=args.seed))


_COMMANDS = {
    "term": _cmd_term,
    "quaternion": _cmd_window,
    "spinor": _cmd_window,
    "binet": _cmd_binet,
    "genfunc": _cmd_genfunc,
    "verify": _cmd_verify,
    "suite": _cmd_suite,
}


def main(argv: list[str] | None = None) -> int:
    # argparse takes -1,1,1,0,1,1 for an option unless joined: --params=-1,1,1,0,1,1
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in reversed(range(1, len(argv))):
        if argv[i - 1] == "--params" and argv[i].startswith("-"):
            argv[i - 1:i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        text, code = _COMMANDS[args.command](args, _resolve_params(args))
        sys.stdout.write(text)
        return code
    except ValueError as exc:
        # Bad input, the range preconditions of the library ops, and
        # Python's limit on the digits of a printed int, which bounds the
        # output size and stays.
        message = str(exc)
        if "integer string conversion" in message:
            message = (f"output limit exceeded: a value has more than "
                       f"{sys.get_int_max_str_digits()} digits")
        print(f"error: {message}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0
