"""The package's public API: the names `from trispinor import *` binds, the
exported operations a suite run never reaches, the functions and statements of
`src/` that no suite or CLI run reaches, and the module-level names of `src/`
that nothing reads."""

import ast
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

from conftest import RATIONAL, output_digest
import trispinor
from trispinor import THIRD_ORDER_JACOBSTHAL, TRIBONACCI, SeqParams, run_suite

# The 67 names the package exported when __all__ was still written out by hand,
# less the four wrappers no caller used (bilinear_form, binet_number,
# binet_quaternion and k_quaternion), the eleven verify_* wrappers of
# run_identity, the spinor long division that genfunc printed, binet's steps
# that only binet_setup called (CubicRoots, BinetConstants and
# binet_constants), and SummationCorrection, the record whose omega
# summation_correction now returns alone.
PUBLIC_NAMES = [
    "C", "DegenerateDelta", "DegenerateRoots", "GaussScalar", "IdentityId", "Quaternion",
    "SeqParams", "SpinMatrix2", "Spinor", "Status", "THIRD_ORDER_JACOBSTHAL", "TRIBONACCI",
    "UnknownPreset", "UnsupportedParams", "VerificationReport", "Witness", "binet_spinor",
    "breve", "cartan_conjugate", "companion_matrix", "companion_power", "complex_conjugate",
    "cubic_roots", "determinant_combination_values", "genfunc_numerator", "mate", "norm_forms",
    "preset", "qconj", "qmul", "qnorm", "quat_partial_sum", "quat_u_decomposition",
    "qv_matrix", "qv_right_multiply", "random_params", "run_identity", "run_suite",
    "seq_slice", "seq_term", "sigma", "sigma_inv", "spinor_dot", "spinor_norm",
    "summation_correction", "trib_quaternion", "trib_spinor",
]


def test_star_import_exports_the_public_names():
    namespace = {}
    exec("from trispinor import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC_NAMES
    assert trispinor.__all__ == PUBLIC_NAMES


# The exported operations that no suite run calls, which unit tests alone
# cover; README names them. Each stays for a caller outside the suite:
# seq_term, trib_quaternion and trib_spinor are what the CLI's term,
# quaternion and spinor commands print (genfunc prints the genfunc check's
# rhs, spinor_window over seq_slice); determinant_combination_values
# evaluates both sides of the Cassini-like combination for acceptance
# criterion c11; qconj, sigma_inv and quat_partial_sum are operations of the
# paper's algebra: the quaternion conjugate, the inverse of sigma and the
# closed-form partial sum, whose sum_window the summation check reads.
UNREACHED = [
    "determinant_combination_values", "qconj", "quat_partial_sum", "seq_term", "sigma_inv",
    "trib_quaternion", "trib_spinor",
]
# The verification API's own entry points, and the choice of a set, are not operations.
ENTRY_POINTS = {"preset", "random_params", "run_identity", "run_suite"}


def test_a_suite_run_reaches_every_exported_operation_but_the_listed_ones():
    operations = {f.__code__: name for name in trispinor.__all__
                  if inspect.isfunction(f := getattr(trispinor, name))
                  and name not in ENTRY_POINTS}
    reached = set()

    def trace(frame, event, arg):
        if event == "call" and frame.f_code in operations:
            reached.add(operations[frame.f_code])

    sets = [TRIBONACCI, THIRD_ORDER_JACOBSTHAL, SeqParams(3, -2, 5, 1, -4, 2), RATIONAL]
    sys.setprofile(trace)
    try:
        for p in sets:
            run_suite(p, nmax=40)
    finally:
        sys.setprofile(None)
    assert sorted(set(operations.values()) - reached) == UNREACHED


# A fresh interpreter traces every call, and every line of src/trispinor, from
# before `import trispinor` on, so what runs at import counts, through a fixed
# corpus: the suite at nmax 40 on the four sets above and on output_digest's
# BRANCH_SETS; every CLI subcommand, as text and as --json, on an integer set, a
# rational set and the set whose binet check FAILs by float noise (its verify
# and suite exit 1); then term -n 50 on ALL_ONES_SET, suite with the noisy set
# not joined to --params, and verify determinant below its order. It prints the
# exit codes, the number of functions defined, every module function,
# class-body function, staticmethod, classmethod and property getter defined in
# src/trispinor whose code never ran, and for each module the lines that ran.
REACH_SCRIPT = """
import sys
from importlib.util import find_spec
from types import FunctionType

root = find_spec("trispinor").submodule_search_locations[0]
called, ran = set(), set()


def lines(frame, event, arg):
    if event == "line":
        ran.add((frame.f_code.co_filename, frame.f_lineno))
    return lines


def calls(frame, event, arg):
    called.add(frame.f_code)
    return lines if frame.f_code.co_filename.startswith(root) else None


sys.settrace(calls)
import contextlib, importlib, io, json, pkgutil
from fractions import Fraction
from pathlib import Path

import trispinor
for info in pkgutil.iter_modules(trispinor.__path__):
    importlib.import_module(f"trispinor.{info.name}")
from trispinor import THIRD_ORDER_JACOBSTHAL, TRIBONACCI, SeqParams, run_suite
from trispinor.cli import main

branch_sets, all_ones = json.loads(sys.argv[1])
for p in [TRIBONACCI, THIRD_ORDER_JACOBSTHAL, SeqParams(3, -2, 5, 1, -4, 2),
          SeqParams(Fraction(1, 2), Fraction(-2, 3), Fraction(3, 4), 1, Fraction(-1, 2),
                    Fraction(2, 5)),
          *(SeqParams(*map(Fraction, values.split(","))) for values in branch_sets)]:
    run_suite(p, nmax=40)
noisy = "-1,-2,4,3,2,5"
runs = [[*command, params, *form]
        for params in ["--preset=tribonacci", "--params=1/2,-2/3,3/4,1,-1/2,2/5",
                       f"--params={noisy}"]
        for command in [["term", "-n", "8"], ["term", "--nmax", "8"], ["quaternion", "-n", "8"],
                        ["spinor", "-n", "8"], ["binet", "-n", "8"], ["genfunc"],
                        ["verify", "--identity", "binet"], ["suite"]]
        for form in [[], ["--json"]]]
runs += [["term", "-n", "50", f"--params={all_ones}"], ["suite", "--params", noisy],
         ["verify", "--identity", "determinant", "--nmax", "5"]]
codes = []
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
sys.settrace(None)

defined = {}
for name, module in sys.modules.items():
    if name.partition(".")[0] != "trispinor":
        continue
    for value in vars(module).values():
        members = vars(value).values() if isinstance(value, type) else [value]
        for f in members:
            f = getattr(f, "__func__", getattr(f, "fget", f))
            if isinstance(f, FunctionType) and f.__code__.co_filename.startswith(root):
                defined[f.__code__] = f"{f.__module__.rpartition('.')[2]}.{f.__qualname__}"
lines_ran = {}
for filename, line in ran:
    lines_ran.setdefault(Path(filename).stem, []).append(line)
print(json.dumps([codes, len(defined), sorted(defined[c] for c in set(defined) - called),
                  {module: sorted(lines) for module, lines in lines_ran.items()}]))
"""

# The functions no run of the corpus calls, each with the reason it stays.
NAMED = {
    # The value protocol: hash, repr, pickle and copy, the refusals of ordering
    # and of tuple concatenation, and coercion on _replace.
    "gauss._Exact.__hash__": "a value hashes like the rational it equals",
    "gauss._Exact.__radd__": "refuses tuple concatenation; a rational plus a value lifts",
    "gauss._Exact.__rsub__": "a rational minus a value lifts the rational",
    "gauss._Exact.__reduce__": "pickle and copy rebuild a value through its constructor",
    "gauss._Exact.__repr__": "repr shows the constructor call",
    "gauss._Exact._unordered": "refuses <, <=, > and >=",
    "gauss._GaussEntries.__reduce__": "pickle shows GaussScalar entries",
    "sequences.SeqParams._make": "_replace coerces by rat, as the constructor does",
    # The paper's algebra, exported.
    "quaternions.qconj": "the quaternion conjugate",
    "spinors.sigma_inv": "the inverse of sigma",
    "quaternions.quat_partial_sum": "the closed-form partial sum",
    "identities.determinant_combination_values":
        "both sides of the Cassini-like combination, for acceptance criterion c11",
    "identities.random_params": "the sweep distribution that tools/ and the tests draw from",
    "spinors.SpinMatrix2.__str__": "renders a failing spinor_matrix witness",
    "gauss.GaussScalar.conjugate":
        "the oracle that complex_conjugate and the conjugates faults are tested against",
}


# The statements no run of the corpus reaches, outside the NAMED functions and
# error handling, each keyed by its function's qualname and its first source
# line, with the reason it stays.
_MATRIX_OPERAND = ("breve(p*q) = -i*breve(p)@breve(q), acceptance criterion c04; "
                   "every side applies its matrices to a spinor, right to left")
_VALUE_PROTOCOL = "the value protocol, for a plain tuple or an operand that is not a value"
NAMED_STATEMENTS = {
    "spinors.SpinMatrix2.__matmul__: if type(other) is not SpinMatrix2:": _MATRIX_OPERAND,
    "spinors.SpinMatrix2.__matmul__: return NotImplemented": _MATRIX_OPERAND,
    "spinors.SpinMatrix2.__matmul__: p, q, r, s, t, u, v, w = other": _MATRIX_OPERAND,
    "spinors.SpinMatrix2.__matmul__: left, right = self @ Spinor._make((p, q, t, u)), "
    "self @ Spinor._make((r, s, v, w))": _MATRIX_OPERAND,
    "spinors.SpinMatrix2.__matmul__: "
    "return SpinMatrix2._make(left[:2] + right[:2] + left[2:] + right[2:])": _MATRIX_OPERAND,
    "identities.run_identity: (label, rhs_label), lhs, rhs = next(":
        "the entry a failing labelled check names: conjugates, norm or matrix_power",
    "gauss._Exact.__eq__: return False if isinstance(other, tuple) else NotImplemented":
        _VALUE_PROTOCOL,
    "gauss._coerce: return None": _VALUE_PROTOCOL,
    "gauss.rat: x = Fraction(x)": "a float factor, as in Quaternion * 0.5",
    "__main__: sys.exit(main())": "python -m trispinor runs it, as test_golden's processes do",
}


def _unreached_statements(module: str, source: str, ran: set[int]) -> list[str]:
    """The statements of a module on none of whose own lines a line event fell,
    as 'module.qualname: first source line'. A simple statement's own lines are
    all its lines; a compound statement's are its header, up to its first body
    statement. Docstrings, def and class are left out (their bodies are not),
    and raise, every statement of an except body and every statement of a
    NAMED function are exempt."""
    text = source.splitlines()
    unreached = []

    def visit(body: list[ast.stmt], qualname: str, exempt: bool) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                name = f"{qualname}.{stmt.name}"
                visit(stmt.body, name, exempt or name in NAMED)
                continue
            if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant) \
                    and isinstance(stmt.value.value, str):
                continue  # a docstring
            inner = getattr(stmt, "body", None)
            own = range(stmt.lineno, max(inner[0].lineno, stmt.lineno + 1) if inner
                        else stmt.end_lineno + 1)
            if not (exempt or isinstance(stmt, ast.Raise) or ran.intersection(own)):
                unreached.append(f"{qualname}: {text[stmt.lineno - 1].strip()}")
            for field in ("body", "orelse", "finalbody"):
                visit(getattr(stmt, field, []), qualname, exempt)
            for handler in getattr(stmt, "handlers", []):
                visit(handler.body, qualname, True)

    visit(ast.parse(source).body, module, False)
    return unreached


def test_every_function_is_reached_or_named():
    """Every function of src/trispinor is called by the corpus or NAMED, and
    every statement runs in it, is error handling or is named."""
    env = {**os.environ, "PYTHONPATH": str(Path(trispinor.__file__).parents[1])}
    sets = json.dumps([output_digest.BRANCH_SETS, output_digest.ALL_ONES_SET])
    out = subprocess.run([sys.executable, "-c", REACH_SCRIPT, sets], stdout=subprocess.PIPE,
                         text=True, check=True, env=env, timeout=60).stdout
    codes, defined, unreached, ran = json.loads(out)
    # Every command exits 0 but the noisy set's verify and suite, which FAIL.
    assert codes == [0] * 44 + [1] * 4 + [0, 1, 0]
    assert defined > 100
    assert unreached == sorted(NAMED)
    assert all(NAMED.values())
    left = [stmt for path in sorted(Path(trispinor.__file__).parent.glob("*.py"))
            for stmt in _unreached_statements(path.stem, path.read_text(),
                                              set(ran.get(path.stem, [])))]
    assert len(set(left)) == len(left)
    assert sorted(set(left) - set(NAMED_STATEMENTS)) == []  # unreached, not named
    assert sorted(set(NAMED_STATEMENTS) - set(left)) == []  # named, yet it ran
    assert all(NAMED_STATEMENTS.values())


def test_every_module_name_is_read_or_exported():
    """Every def, class and assignment at the top of a module of src/trispinor
    (dunder names aside) is loaded somewhere in src/, by name, as an attribute
    or by an import, or is exported."""
    bound, read = [], set()
    for path in sorted(Path(trispinor.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            bound += [f"{path.stem}.{name}" for name in names
                      if not (name.startswith("__") and name.endswith("__"))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    kept = read | set(trispinor.__all__)
    assert len(bound) > 100
    assert [name for name in bound if name.partition(".")[2] not in kept] == []
