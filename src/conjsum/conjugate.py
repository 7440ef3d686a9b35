"""Truncated and full conjugate function via singular quadrature.

Both are one graded principal-value quadrature of psi_x(t) (1/2) cot(t/2)
over (eps, pi]; the full conjugate is the eps = 0 case, whose integrand is
bounded at t -> 0 wherever f is Dini-continuous at x.  Its mesh-halving error
estimate is the divergence signal: above CONJUGATE_TOL it raises.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .functions import (
    DEFAULT_GRID,
    PI,
    DomainError,
    GridSpec,
    PeriodicFunction,
    SingularIntegrandError,
    eval_psi,
    integrate_graded,
    psi_breakpoints,
)
from .kernels import conj_dirichlet_matrix
from .summability import TriangularMatrix, ab_weights

CONJUGATE_TOL = 1e-8  # largest error estimate conjugate_at accepts


class ConvergenceError(RuntimeError):
    """The quadrature error estimate exceeded CONJUGATE_TOL; last_values is (value, est_error)."""

    def __init__(self, message, last_values):
        super().__init__(message)
        self.last_values = tuple(last_values)


def default_x_grid() -> list[float]:
    """Evaluation points {+-j*pi/16 : j=1..15}; avoids all corpus singularities."""
    pos = [j * PI / 16.0 for j in range(1, 16)]
    return sorted(-v for v in pos) + pos


@lru_cache(maxsize=100000)
def _truncated_cached(
    f: PeriodicFunction, x: float, eps: float, grid: GridSpec
) -> tuple[float, float]:
    """(-(1/pi) int_eps^pi psi_x(t) (1/2) cot(t/2) dt, its error estimate)."""
    cuts = [b for b in psi_breakpoints(f, x) if b > eps]

    def integrand(t):
        return eval_psi(f, x, t) * 0.5 / np.tan(0.5 * t)

    q = integrate_graded(integrand, eps, PI, grid, breakpoints=cuts)
    return -q.value / PI, q.est_error / PI


def conjugate_truncated(
    f: PeriodicFunction, x: float, eps: float, grid: GridSpec = DEFAULT_GRID
) -> float:
    """-(1/pi) int_eps^pi psi_x(t) (1/2) cot(t/2) dt."""
    if not (0.0 < eps <= PI):
        raise DomainError(f"eps must lie in (0, pi], got {eps}")
    if eps == PI:
        return 0.0
    return _truncated_cached(f, x, float(eps), grid)[0]


def conjugate_at(f: PeriodicFunction, x: float, grid: GridSpec = DEFAULT_GRID) -> float:
    """The conjugate function at x: the principal-value integral from eps = 0."""
    if f.is_singular_at(x):
        raise DomainError(f"x={x} is a known singular point of {f.name}")
    value, est_error = _truncated_cached(f, float(x), 0.0, grid)
    if not est_error <= CONJUGATE_TOL:
        raise ConvergenceError(
            f"conjugate at x={x}: error estimate {est_error:.3g} exceeds {CONJUGATE_TOL}",
            (value, est_error),
        )
    return value


def deviation_kernel_form(
    f: PeriodicFunction,
    A: TriangularMatrix,
    B: TriangularMatrix,
    n: int,
    x: float,
    grid: GridSpec = DEFAULT_GRID,
) -> tuple[float, float]:
    """Both transform deviations straight from their kernel-integral forms.

    Returns (T - truncated conjugate, T - full conjugate), each computed as
    integrals of psi_x against the matrix means of D~_k and its complement,
    never as the operator value minus a conjugate value.
    """
    weights = ab_weights(A, B, n)
    h = PI / (n + 1)
    cuts = psi_breakpoints(f, x)

    def mean_kernel(t):
        return weights @ conj_dirichlet_matrix(n, np.asarray(t, dtype=float))

    def inner_part(t):
        return eval_psi(f, x, t) * mean_kernel(t)

    def outer_part(t):
        t = np.asarray(t, dtype=float)
        complement = 0.5 / np.tan(0.5 * t) - mean_kernel(t)
        return eval_psi(f, x, t) * complement

    inner = integrate_graded(inner_part, 0.0, h, grid, breakpoints=[c for c in cuts if c < h])
    outer = integrate_graded(outer_part, h, PI, grid, breakpoints=[c for c in cuts if c > h])
    full = integrate_graded(outer_part, 0.0, PI, grid, breakpoints=cuts)
    for q in (inner, outer, full):
        if not math.isfinite(q.value):
            raise SingularIntegrandError("kernel-form deviation integral is not finite")
    dev_truncated = (-inner.value + outer.value) / PI
    dev_full = full.value / PI
    return dev_truncated, dev_full


__all__ = [
    "CONJUGATE_TOL",
    "ConvergenceError",
    "conjugate_truncated",
    "conjugate_at",
    "deviation_kernel_form",
    "default_x_grid",
]
