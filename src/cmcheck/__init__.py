"""Verified numerics for the Laurent-tail remainder family.

The package evaluates H_k (the tail of the e^(1/z) Laurent series past
order k), the difference h(t) = e^(1/t) - psi'(t), and their derivative
structure; brackets completely monotonic degrees by bisection; verifies
four Laplace-type integral representations against quadrature with an
error bound; and scans the associated strict inequalities and exact
polynomial identities.  Everything runs in arbitrary precision with
explicit error control; `cmcheck.suite` bundles the headline checks, and
the `cmcheck` console script exposes it all.
"""

from .cmdeg import (
    BracketError,
    DegreeEstimate,
    LogGrid,
    SignPatternReport,
    Violation,
    check_sign_pattern,
    estimate_cm_degree,
    scaled_remainder_derivative,
)
from .inequalities import (
    DifferenceBoundCheck,
    InequalityScanReport,
    check_difference_bound,
    check_ineq_bessel,
    check_ineq_trigamma,
    f_poly,
    fpoly_validated,
)
from .laplace import (
    KernelSpec,
    QuadratureResult,
    RepresentationCheck,
    h_kernel,
    kernel_1f2,
    kernel_bessel,
    laplace_transform,
    u_ratio,
    verify_representation,
)
from .laurent import (
    h_derivative,
    h_function,
    h_table,
    hk_table,
    remainder_hk,
    remainder_hk_derivative,
)
from .specfun import (
    DEFAULT_PRECISION,
    NumericFailure,
    WorkingPrecision,
    a_coeff,
    bessel_i,
    exp_recip_derivative,
    hyp1f2,
    polygamma,
    polygamma_range,
    shifted_factorial,
    to_mpf,
)
from .suite import run_suite

__version__ = "0.1.0"

__all__ = [
    "BracketError",
    "DEFAULT_PRECISION",
    "DegreeEstimate",
    "DifferenceBoundCheck",
    "InequalityScanReport",
    "KernelSpec",
    "LogGrid",
    "NumericFailure",
    "QuadratureResult",
    "RepresentationCheck",
    "SignPatternReport",
    "Violation",
    "WorkingPrecision",
    "a_coeff",
    "bessel_i",
    "check_difference_bound",
    "check_ineq_bessel",
    "check_ineq_trigamma",
    "check_sign_pattern",
    "estimate_cm_degree",
    "exp_recip_derivative",
    "f_poly",
    "fpoly_validated",
    "h_derivative",
    "h_function",
    "h_kernel",
    "h_table",
    "hk_table",
    "hyp1f2",
    "kernel_1f2",
    "kernel_bessel",
    "laplace_transform",
    "polygamma",
    "polygamma_range",
    "remainder_hk",
    "remainder_hk_derivative",
    "run_suite",
    "scaled_remainder_derivative",
    "shifted_factorial",
    "to_mpf",
    "u_ratio",
    "verify_representation",
]
