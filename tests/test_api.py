"""The package's public API: the names `from trispinor import *` binds."""

import trispinor

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
