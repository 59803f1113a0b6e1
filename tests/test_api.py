"""The package's public API: the names `from trispinor import *` binds, and
the exported operations a suite run never reaches."""

import inspect
import sys
from fractions import Fraction

import trispinor
from trispinor import THIRD_ORDER_JACOBSTHAL, TRIBONACCI, SeqParams, run_suite

# The 67 names the package exported when __all__ was still written out by hand.
PUBLIC_NAMES = [
    "BinetConstants", "C", "CubicRoots", "DegenerateDelta", "DegenerateRoots",
    "GaussScalar", "IdentityId", "Quaternion", "SeqParams", "SpinMatrix2", "Spinor",
    "Status", "SummationCorrection", "THIRD_ORDER_JACOBSTHAL", "TRIBONACCI",
    "UnknownPreset", "UnsupportedParams", "VerificationReport", "Witness",
    "bilinear_form", "binet_constants", "binet_number", "binet_quaternion",
    "binet_spinor", "breve", "cartan_conjugate", "companion_matrix", "companion_power",
    "complex_conjugate", "cubic_roots", "determinant_combination_values",
    "genfunc_numerator", "genfunc_spinor_series", "k_quaternion", "mate", "norm_forms",
    "preset", "qconj", "qmul", "qnorm", "quat_partial_sum", "quat_u_decomposition",
    "qv_matrix", "qv_right_multiply", "random_params", "run_identity", "run_suite",
    "seq_slice", "seq_term", "sigma", "sigma_inv", "spinor_dot", "spinor_norm",
    "summation_correction", "trib_quaternion", "trib_spinor", "verify_binet",
    "verify_conjugate_relations", "verify_determinant_combination",
    "verify_genfunc_agreement", "verify_matrix_power_shift", "verify_norm_equality",
    "verify_spinor_matrix_behavior", "verify_spinor_recurrence", "verify_summation",
    "verify_triple_product_map", "verify_u_decomposition",
]


def test_star_import_exports_the_public_names():
    namespace = {}
    exec("from trispinor import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC_NAMES
    assert trispinor.__all__ == PUBLIC_NAMES


# The exported operations that no suite run calls, which unit tests alone
# cover; README names them. binet_number and binet_quaternion share the power
# sum binet's check reaches through binet_spinor, and norm pairs through C @ a,
# which bilinear_form would compute once per pairing.
UNREACHED = [
    "bilinear_form", "binet_number", "binet_quaternion", "determinant_combination_values",
    "genfunc_spinor_series", "k_quaternion", "qconj", "quat_partial_sum", "qv_matrix",
    "seq_term", "sigma_inv", "trib_quaternion", "trib_spinor",
]
# The verification API's own entry points, and the choice of a set, are not operations.
ENTRY_POINTS = {"preset", "random_params", "run_identity", "run_suite"}


def test_a_suite_run_reaches_every_exported_operation_but_the_listed_ones():
    operations = {f.__code__: name for name in trispinor.__all__
                  if inspect.isfunction(f := getattr(trispinor, name))
                  and name not in ENTRY_POINTS and not name.startswith("verify_")}
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
