"""The package's public API: the names `from trispinor import *` binds, and
the exported operations a suite run never reaches."""

import inspect
import sys
from fractions import Fraction

import trispinor
from trispinor import THIRD_ORDER_JACOBSTHAL, TRIBONACCI, SeqParams, run_suite

# The 67 names the package exported when __all__ was still written out by hand,
# less the four wrappers no caller used (bilinear_form, binet_number,
# binet_quaternion and k_quaternion) and the eleven verify_* wrappers of
# run_identity.
PUBLIC_NAMES = [
    "BinetConstants", "C", "CubicRoots", "DegenerateDelta", "DegenerateRoots",
    "GaussScalar", "IdentityId", "Quaternion", "SeqParams", "SpinMatrix2", "Spinor",
    "Status", "SummationCorrection", "THIRD_ORDER_JACOBSTHAL", "TRIBONACCI",
    "UnknownPreset", "UnsupportedParams", "VerificationReport", "Witness",
    "binet_constants", "binet_spinor", "breve", "cartan_conjugate", "companion_matrix",
    "companion_power", "complex_conjugate", "cubic_roots", "determinant_combination_values",
    "genfunc_numerator", "genfunc_spinor_series", "mate", "norm_forms", "preset", "qconj",
    "qmul", "qnorm", "quat_partial_sum", "quat_u_decomposition", "qv_matrix",
    "qv_right_multiply", "random_params", "run_identity", "run_suite",
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
# seq_term, trib_quaternion, trib_spinor and genfunc_spinor_series are what the
# CLI's term, quaternion, spinor and genfunc commands print;
# determinant_combination_values evaluates both sides of the Cassini-like
# combination for acceptance criterion c11; qconj, sigma_inv and
# quat_partial_sum are operations of the paper's algebra: the quaternion
# conjugate, the inverse of sigma and the closed-form partial sum, whose
# sum_window the summation check reads.
UNREACHED = [
    "determinant_combination_values", "genfunc_spinor_series", "qconj", "quat_partial_sum",
    "seq_term", "sigma_inv", "trib_quaternion", "trib_spinor",
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

    sets = [TRIBONACCI, THIRD_ORDER_JACOBSTHAL, SeqParams(3, -2, 5, 1, -4, 2),
            SeqParams(Fraction(1, 2), Fraction(-2, 3), Fraction(3, 4), 1, Fraction(-1, 2),
                      Fraction(2, 5))]
    sys.setprofile(trace)
    try:
        for p in sets:
            run_suite(p, nmax=40)
    finally:
        sys.setprofile(None)
    assert sorted(set(operations.values()) - reached) == UNREACHED
