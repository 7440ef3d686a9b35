"""Conjugate Dirichlet kernels, Fourier coefficients and (conjugate) partial sums.

One evaluator gives every conjugate kernel: ``conj_kernel_mean_z`` sums
sum_k c_k D~_k(t) = sum_{nu<=n} C_nu sin(nu t), C_nu = sum_{k>=nu} c_k, by n
Horner steps in z = e^{it} on O(len(t)) memory, within n eps sum |C_nu|
(tested, n <= 1024).  It takes the tails C_nu, not the weights.  The
kernel-form deviations pass those that summability.ab_tails keeps on A beside
the AB weights, summed once per (A, B, n) and dropped with B, and the z of
their cached node table per (f, x), about 120 kB at the default grid.
``conj_partial_sum_integral`` passes C_nu = 1, the tails of D~_k (the mean of
e_k), and e^{it}.  The partial sums k = 0..n (``partial_sum_table``) come from
one pass; order k is row k.
``fourier_coeffs`` sums its Kronrod quadrature with one inverse FFT per node offset.
numpy.fft is reached on the first build, so importing the package does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .base import DEFAULT_GRID, DomainError, GridSpec
from .functions import (
    PI,
    TWO_PI,
    PeriodicFunction,
    _insert_points,
    _k15_nodes,
    _k15_weights,
    check_x,
    kronrod_panels,
)

SINGULAR_CUTOFF = 1e-12

DEFAULT_COEFF_CUTOFF = 512


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
        raise DomainError("complementary conjugate Dirichlet kernel is singular at multiples of 2*pi")
    out = np.cos((2 * k + 1) * 0.5 * t_arr) / (2.0 * s)
    return float(out) if out.ndim == 0 else out


def conj_kernel_mean_z(tails: np.ndarray, z: np.ndarray) -> np.ndarray:
    """sum_k c_k D~_k(t) = Im(z P(z)), P(z) = sum_{nu=1}^{n} C_nu z^(nu-1) by Horner's rule, given z = e^{it}.

    tails holds C_1, ..., C_n, the tails C_nu = sum_{k>=nu} c_k of the weights.
    """
    acc = np.full_like(z, tails[-1]) if len(tails) else np.zeros_like(z)  # the bits of C_n + 0 z
    for tail in tails[-2::-1].tolist():
        acc *= z
        acc += tail
    return np.multiply(z, acc, out=acc).imag  # z times acc: acc * z may round the imaginary part differently


def fourier_coeffs(
    f: PeriodicFunction, N: int, grid: GridSpec = DEFAULT_GRID
) -> FourierCoefficients:
    """Quadrature coefficients a_nu = (1/pi) int f cos(nu t), b_nu likewise with sin.

    The Kronrod row of the Gauss-Kronrod 7/15 pair on P uniform panels of
    [-pi, pi], with P > N so that e^{i N t} is resolved.  The nodes are
    c_p + (h/2) s_j with centres c_p = -pi + h (p + 1/2), so for each of the 15
    node offsets s_j the sum over p is one inverse FFT (Numerical Recipes 13.9);
    nu <= N < P do not alias.  A panel that a breakpoint of f cuts is left out
    of the FFT and its sub-panels are summed directly.  Never consults
    ``f.known_coeffs``; closed forms are for tests only.
    """
    if N < 0:
        raise ValueError("coefficient cutoff must be nonnegative")
    panels = max(grid.m // 8, int(math.ceil(1.3 * max(N, 1))), 16)
    assert panels > N, "nu = 1..N would alias on the panel grid"
    h = TWO_PI / panels
    nodes = (-PI + h * (np.arange(panels) + 0.5))[:, None] + 0.5 * h * _k15_nodes
    values = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape) * (0.5 * h * _k15_weights[0])
    # sub-panel boundaries of each panel a breakpoint cuts
    cut = {}
    for t in f.breakpoints:
        if -PI < t < PI:
            p = min(int((t + PI) / h), panels - 1)
            lo = -PI + p * h
            bounds = _insert_points(np.array([lo, lo + h]), f.breakpoints)
            if len(bounds) > 2:
                cut[p] = bounds
    values[list(cut)] = 0.0
    nu = np.arange(N + 1)
    # e^{i nu c_p} = (-1)^nu e^{2 pi i nu p / P} e^{i nu h / 2}: every phase below is under 2 pi
    sums = np.fft.ifft(values, axis=0)[: N + 1] * panels
    shift = np.exp(0.5j * h * np.multiply.outer(nu, 1.0 + _k15_nodes))
    z = np.where(nu % 2, -1.0, 1.0) * (sums * shift).sum(axis=1)
    if cut:
        sub_nodes, sub_weights = kronrod_panels(
            np.concatenate([b[:-1] for b in cut.values()]), np.concatenate([b[1:] for b in cut.values()])
        )
        sub_nodes = sub_nodes.ravel()
        sub_values = (np.asarray(f(sub_nodes), dtype=float) * sub_weights[0].ravel())[:, None]
        phases = np.multiply.outer(sub_nodes, nu)
        # an elementwise product and sum, not a gemv: no bit depends on the BLAS thread count
        z += (np.cos(phases) * sub_values).sum(axis=0) + 1j * (np.sin(phases) * sub_values).sum(axis=0)
    z /= PI
    return FourierCoefficients(a0=float(z[0].real), a=z[1:].real.copy(), b=z[1:].imag.copy(), N=N)


def partial_sum_table(c: FourierCoefficients, n: int, x: float, conjugate: bool) -> np.ndarray:
    """S~_k f(x) (or S_k f(x)) for k = 0..n in one pass."""
    if not 0 <= n <= c.N:
        raise ValueError(
            f"order {n} exceeds coefficient cutoff N={c.N}" if n > 0 else "partial-sum order must be nonnegative"
        )
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
    x = check_x("x", x)
    panels = max(grid.m // 8, 4 * (k + 1), 16)
    base = np.linspace(-PI, PI, panels + 1)
    # t where f(x + t) reaches a breakpoint; _insert_points keeps those inside (-pi, pi)
    shifted = [(t0 - x) % TWO_PI for t0 in f.breakpoints]
    bounds = _insert_points(base, shifted + [t - TWO_PI for t in shifted])
    nodes, weights = kronrod_panels(bounds[:-1], bounds[1:])
    nodes, weights = nodes.ravel(), weights[0].ravel()  # the Kronrod row
    kernel = conj_kernel_mean_z(np.ones(k), np.exp(1j * nodes))  # D~_k: C_1 = ... = C_k = 1
    values = np.asarray(f(x + nodes), dtype=float)
    return float(-np.dot(weights, values * kernel) / PI)
