"""Exact arithmetic for third-order linear recurrences (Tribonacci and
relatives), the quaternions built from consecutive terms, their spinor
images, and machine verification of the identities relating them."""

from .analytic import (
    BinetConstants,
    CubicRoots,
    DegenerateRoots,
    binet_constants,
    binet_spinor,
    cubic_roots,
    genfunc_numerator,
    genfunc_spinor_series,
)
from .gauss import GaussScalar
from .identities import (
    IdentityId,
    Status,
    UnsupportedParams,
    VerificationReport,
    Witness,
    determinant_combination_values,
    norm_forms,
    random_params,
    run_identity,
    run_suite,
)
from .quaternions import (
    DegenerateDelta,
    Quaternion,
    SummationCorrection,
    qconj,
    qmul,
    qnorm,
    quat_partial_sum,
    quat_u_decomposition,
    qv_matrix,
    qv_right_multiply,
    summation_correction,
    trib_quaternion,
)
from .sequences import (
    THIRD_ORDER_JACOBSTHAL,
    TRIBONACCI,
    SeqParams,
    UnknownPreset,
    companion_matrix,
    companion_power,
    preset,
    seq_slice,
    seq_term,
)
from .spinors import (
    C,
    SpinMatrix2,
    Spinor,
    breve,
    cartan_conjugate,
    complex_conjugate,
    mate,
    sigma,
    sigma_inv,
    spinor_dot,
    spinor_norm,
    trib_spinor,
)

__version__ = "0.1.0"

# The public API is every name imported above; the submodules that those
# imports bind here, such as analytic, are left out.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, type(analytic)))
