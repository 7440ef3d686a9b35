"""Conjugate Dirichlet kernels, Fourier coefficients and (conjugate) partial sums.

The kernel rows k = k_min..k_max (``conj_dirichlet_matrix``) and the partial sums
k = 0..n (``partial_sum_table``) each come from one evaluator; order k is row k.
``fourier_coeffs`` sums its quadrature with one inverse FFT per Gauss node.
numpy.fft is reached on the first build, so importing the package does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .functions import (
    DEFAULT_GRID,
    PI,
    TWO_PI,
    GridSpec,
    PeriodicFunction,
    _gl_nodes,
    _gl_weights,
    _insert_points,
    gl_panels,
    gl_rule,
)

# Below this the closed forms are 0/0; the direct sum is finite everywhere.
DIRECT_SUM_CUTOFF = 1e-8
SINGULAR_CUTOFF = 1e-12

DEFAULT_COEFF_CUTOFF = 512

class SingularKernelError(ValueError):
    """The complementary kernel was evaluated at a multiple of 2*pi."""


class CutoffError(ValueError):
    """Requested partial-sum order exceeds the coefficient cutoff."""


@dataclass(frozen=True)
class FourierCoefficients:
    """a0 and (a_nu, b_nu) for nu = 1..N."""

    a0: float
    a: np.ndarray
    b: np.ndarray
    N: int

    def __post_init__(self):
        if len(self.a) != self.N or len(self.b) != self.N:
            raise ValueError("coefficient arrays must have length N")
        if not (np.all(np.isfinite(self.a)) and np.all(np.isfinite(self.b))):
            raise ValueError("coefficients must be finite")


def conj_dirichlet_complement(k: int, t):
    """Kernel (1/2)cot(t/2) - sum sin(nu t) = cos((2k+1)t/2) / (2 sin(t/2))."""
    if k < 0:
        raise ValueError("kernel order must be nonnegative")
    t_arr = np.asarray(t, dtype=float)
    s = np.sin(0.5 * t_arr)
    if np.any(np.abs(s) < SINGULAR_CUTOFF):
        raise SingularKernelError(
            "complementary conjugate Dirichlet kernel is singular at multiples of 2*pi"
        )
    out = np.cos((2 * k + 1) * 0.5 * t_arr) / (2.0 * s)
    return float(out) if out.ndim == 0 else out


def conj_dirichlet_matrix(k_max: int, t: np.ndarray, k_min: int = 0) -> np.ndarray:
    """Rows k = k_min..k_max of sum_{nu=0}^{k} sin(nu t) at the given t: the closed form, or the direct sum."""
    if not 0 <= k_min <= k_max:
        raise ValueError("kernel orders must satisfy 0 <= k_min <= k_max")
    t = np.asarray(t, dtype=float)
    s = np.sin(0.5 * t)
    near = np.abs(s) < DIRECT_SUM_CUTOFF
    denom = np.where(near, 1.0, 2.0 * s)
    ks = np.arange(k_min, k_max + 1)
    out = (np.cos(0.5 * t) - np.cos(np.multiply.outer(2 * ks + 1, 0.5 * t))) / denom
    if np.any(near):
        nu = np.arange(k_max + 1, dtype=float)
        direct = np.cumsum(np.sin(np.multiply.outer(nu, t[near])), axis=0)
        out[:, near] = direct[k_min:]
    return out


def fourier_coeffs(
    f: PeriodicFunction, N: int, grid: GridSpec = DEFAULT_GRID
) -> FourierCoefficients:
    """Quadrature coefficients a_nu = (1/pi) int f cos(nu t), b_nu likewise with sin.

    8-node Gauss-Legendre on P uniform panels of [-pi, pi], with P > N so that
    e^{i N t} is resolved.  The nodes are c_p + (h/2) s_j with centres
    c_p = -pi + h (p + 1/2), so for each Gauss node s_j the sum over p is one
    inverse FFT (Numerical Recipes 13.9); nu <= N < P do not alias.  A panel that
    a breakpoint of f cuts is left out of the FFT and its sub-panels are summed
    directly.  Never consults ``f.known_coeffs``; closed forms are for tests only.
    """
    if N < 0:
        raise ValueError("coefficient cutoff must be nonnegative")
    panels = max(grid.m // 8, int(math.ceil(1.3 * max(N, 1))), 16)
    assert panels > N, "nu = 1..N would alias on the panel grid"
    h = TWO_PI / panels
    nodes = (-PI + h * (np.arange(panels) + 0.5))[:, None] + 0.5 * h * _gl_nodes
    values = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape) * (0.5 * h * _gl_weights)
    # sub-panel boundaries of each panel a breakpoint cuts; a breakpoint within
    # _insert_points' tolerance of a panel boundary lies on it and cuts nothing
    tol = 1e-15 * TWO_PI
    cut = {}
    for t in f.breakpoints:
        if -PI < t < PI:
            p = min(int((t + PI) / h), panels - 1)
            lo = -PI + p * h
            if t - lo > tol and lo + h - t > tol:
                cut[p] = _insert_points(np.array([lo, lo + h]), f.breakpoints)
    values[list(cut)] = 0.0
    nu = np.arange(N + 1)
    # e^{i nu c_p} = (-1)^nu e^{2 pi i nu p / P} e^{i nu h / 2}: every phase below is under 2 pi
    sums = np.fft.ifft(values, axis=0)[: N + 1] * panels
    shift = np.exp(0.5j * h * np.multiply.outer(nu, 1.0 + _gl_nodes))
    z = np.where(nu % 2, -1.0, 1.0) * (sums * shift).sum(axis=1)
    if cut:
        sub_nodes, sub_weights = gl_panels(
            np.concatenate([b[:-1] for b in cut.values()]), np.concatenate([b[1:] for b in cut.values()])
        )
        sub_nodes = sub_nodes.ravel()
        sub_values = (np.asarray(f(sub_nodes), dtype=float) * sub_weights.ravel())[:, None]
        phases = np.multiply.outer(sub_nodes, nu)
        # an elementwise product and sum, not a gemv: no bit depends on the BLAS thread count
        z += (np.cos(phases) * sub_values).sum(axis=0) + 1j * (np.sin(phases) * sub_values).sum(axis=0)
    z /= PI
    return FourierCoefficients(a0=float(z[0].real), a=z[1:].real.copy(), b=z[1:].imag.copy(), N=N)


def _check_order(c: FourierCoefficients, k: int):
    if k < 0:
        raise ValueError("partial-sum order must be nonnegative")
    if k > c.N:
        raise CutoffError(f"order {k} exceeds coefficient cutoff N={c.N}")


def partial_sum_table(c: FourierCoefficients, n: int, x: float, conjugate: bool) -> np.ndarray:
    """S~_k f(x) (or S_k f(x)) for k = 0..n in one pass."""
    _check_order(c, n)
    nu = np.arange(1, n + 1, dtype=float)
    if conjugate:
        terms = c.a[:n] * np.sin(nu * x) - c.b[:n] * np.cos(nu * x)
        first = 0.0
    else:
        terms = c.a[:n] * np.cos(nu * x) + c.b[:n] * np.sin(nu * x)
        first = 0.5 * c.a0
    out = np.empty(n + 1)
    out[0] = first
    out[1:] = first + np.cumsum(terms)
    return out


def conj_partial_sum_integral(
    f: PeriodicFunction, k: int, x: float, grid: GridSpec = DEFAULT_GRID
) -> float:
    """S~_k f(x) through its kernel form -(1/pi) int f(x+t) D~_k(t) dt."""
    if k < 0:
        raise ValueError("partial-sum order must be nonnegative")
    panels = max(grid.m // 8, 4 * (k + 1), 16)
    base = np.linspace(-PI, PI, panels + 1)
    # t where f(x + t) reaches a breakpoint; _insert_points keeps those inside (-pi, pi)
    shifted = [(t0 - x) % TWO_PI for t0 in f.breakpoints]
    nodes, weights = gl_rule(_insert_points(base, shifted + [t - TWO_PI for t in shifted]))
    kernel = conj_dirichlet_matrix(k, nodes, k_min=k)[0]
    values = np.asarray(f(x + nodes), dtype=float)
    return float(-np.dot(weights, values * kernel) / PI)


__all__ = [
    "FourierCoefficients",
    "SingularKernelError",
    "CutoffError",
    "conj_dirichlet_complement",
    "conj_dirichlet_matrix",
    "fourier_coeffs",
    "partial_sum_table",
    "conj_partial_sum_integral",
    "DEFAULT_COEFF_CUTOFF",
]
