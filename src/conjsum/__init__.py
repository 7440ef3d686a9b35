"""Conjugate Fourier summability: kernels, matrix means, moduli, bound checks.

Importing the package loads no submodule: each exported name is imported from
its module on first access (PEP 562), through the one table _EXPORTS.
"""

import importlib

# exported name -> the submodule that defines it
_EXPORTS = {name: module for module, names in (
    ("base", "DEFAULT_GRID GridSpec SingularIntegrandError DomainError UnknownNameError MatrixValidationError "
             "ConvergenceError"),
    ("functions", "PeriodicFunction corpus registry by_name eval_psi eval_phi"),
    ("kernels", "FourierCoefficients conj_dirichlet_complement fourier_coeffs conj_partial_sum_integral"),
    ("moduli", "ModulusProfile modulus modulus_profile classical_modulus lp_norm lemma2_check check_condition_2_511"),
    ("summability", "TriangularMatrix ConditionReport cesaro identity_matrix delta_at_zero nordlund "
                    "check_condition_2_1 check_condition_2_2 check_condition_2_21 check_condition_3_2 "
                    "check_remark1_condition check_remark2_condition"),
    ("conjugate", "conjugate_truncated conjugate_at deviation_kernel_form default_x_grid"),
    ("verify", "BoundReport rhs_theorem1 rhs_theorem2 lhs_theorem1"),
) for name in names.split()}

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
