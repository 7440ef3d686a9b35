"""Conjugate Fourier summability: kernels, matrix means, moduli, bound checks."""

from .functions import (
    DEFAULT_GRID,
    GridSpec,
    PeriodicFunction,
    QuadratureResult,
    SingularIntegrandError,
    DomainError,
    UnknownNameError,
    corpus,
    registry,
    by_name,
    eval_psi,
    eval_phi,
    integrate_graded,
)
from .kernels import (
    FourierCoefficients,
    conj_dirichlet_complement,
    fourier_coeffs,
    conj_partial_sum_integral,
)
from .moduli import (
    ModulusProfile,
    modulus,
    modulus_profile,
    classical_modulus,
    lp_norm,
    lemma2_check,
)
from .summability import (
    TriangularMatrix,
    MatrixValidationError,
    ConditionReport,
    cesaro,
    identity_matrix,
    delta_at_zero,
    nordlund,
    from_rows,
    ab_transform,
    check_condition_2_1,
    check_condition_2_2,
    check_condition_2_21,
    check_condition_3_2,
    check_remark1_condition,
    check_remark2_condition,
    check_condition_2_511,
)
from .conjugate import (
    ConvergenceError,
    conjugate_truncated,
    conjugate_truncated_batch,
    conjugate_at,
    deviation_kernel_form,
    default_x_grid,
)
from .verify import (
    BoundReport,
    rhs_theorem1,
    rhs_theorem2,
    lhs_theorem1,
)

__version__ = "0.1.0"
