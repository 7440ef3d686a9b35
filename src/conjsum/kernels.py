"""Conjugate Dirichlet kernels, Fourier coefficients and (conjugate) partial sums."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .functions import (
    DEFAULT_GRID,
    PI,
    GridSpec,
    PeriodicFunction,
    _insert_points,
    gl_rule,
)

# Below this the closed forms are 0/0; the direct sum is finite everywhere.
DIRECT_SUM_CUTOFF = 1e-8
SINGULAR_CUTOFF = 1e-12

DEFAULT_COEFF_CUTOFF = 512

# nu values per cos/sin block in fourier_coeffs.  One gemv over every nu rounds
# differently under 1 and 2 BLAS threads; blocks of 32 give the one-thread bits
# under both (checked for N <= 2000), and hold 32 rows of phases instead of N.
_COEFF_ROWS = 32


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


def _direct_conj_dirichlet(k: int, t: np.ndarray) -> np.ndarray:
    nu = np.arange(k + 1, dtype=float)
    return np.sin(np.multiply.outer(t, nu)).sum(axis=-1)


def conj_dirichlet(k: int, t):
    """Kernel sum_{nu=0}^{k} sin(nu t), via the closed cosine-difference form.

    Falls back to direct summation where |sin(t/2)| < 1e-8 (the closed form
    is 0/0 at multiples of 2*pi while the sum is finite, and 0 there).
    """
    if k < 0:
        raise ValueError("kernel order must be nonnegative")
    t_arr = np.asarray(t, dtype=float)
    s = np.sin(0.5 * t_arr)
    near = np.abs(s) < DIRECT_SUM_CUTOFF
    denom = np.where(near, 1.0, 2.0 * s)
    out = (np.cos(0.5 * t_arr) - np.cos((2 * k + 1) * 0.5 * t_arr)) / denom
    if np.any(near):
        direct = _direct_conj_dirichlet(k, np.atleast_1d(t_arr)[np.atleast_1d(near)])
        if out.ndim == 0:
            out = np.asarray(direct[0])
        else:
            out[near] = direct
    return float(out) if out.ndim == 0 else out


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


def conj_dirichlet_matrix(k_max: int, t: np.ndarray) -> np.ndarray:
    """Rows k = 0..k_max of the conjugate Dirichlet kernel at the given t."""
    t = np.asarray(t, dtype=float)
    s = np.sin(0.5 * t)
    near = np.abs(s) < DIRECT_SUM_CUTOFF
    denom = np.where(near, 1.0, 2.0 * s)
    ks = np.arange(k_max + 1)
    out = (np.cos(0.5 * t) - np.cos(np.multiply.outer(2 * ks + 1, 0.5 * t))) / denom
    if np.any(near):
        nu = np.arange(k_max + 1, dtype=float)
        direct = np.cumsum(np.sin(np.multiply.outer(nu, t[near])), axis=0)
        out[:, near] = direct
    return out


def _coefficient_boundaries(f: PeriodicFunction, N: int, grid: GridSpec) -> np.ndarray:
    # enough panels that GL resolves e^{i N t}; breakpoints split exactly
    panels = max(grid.m // 8, int(math.ceil(N * 1.3)), 16)
    base = np.linspace(-PI, PI, panels + 1)
    return _insert_points(base, f.breakpoints)


def fourier_coeffs(
    f: PeriodicFunction, N: int, grid: GridSpec = DEFAULT_GRID
) -> FourierCoefficients:
    """Quadrature coefficients a_nu = (1/pi) int f cos(nu t), b_nu likewise with sin.

    Never consults ``f.known_coeffs``; closed forms are for tests only.
    """
    if N < 0:
        raise ValueError("coefficient cutoff must be nonnegative")
    nodes, weights = gl_rule(_coefficient_boundaries(f, max(N, 1), grid))
    values = np.asarray(f(nodes), dtype=float) * weights
    a0 = float(values.sum()) / PI
    if N == 0:
        empty = np.zeros(0)
        return FourierCoefficients(a0=a0, a=empty, b=empty, N=0)
    nu = np.arange(1, N + 1, dtype=float)
    a, b = np.empty(N), np.empty(N)
    start = 0
    while start < N:
        # the last block takes 33 rows rather than leave one: np.dot adds in another order than gemv
        stop = N if N - start <= _COEFF_ROWS + 1 else start + _COEFF_ROWS
        phases = np.multiply.outer(nu[start:stop], nodes)
        a[start:stop] = np.cos(phases) @ values
        b[start:stop] = np.sin(phases) @ values
        start = stop
    return FourierCoefficients(a0=a0, a=a / PI, b=b / PI, N=N)


def _check_order(c: FourierCoefficients, k: int):
    if k < 0:
        raise ValueError("partial-sum order must be nonnegative")
    if k > c.N:
        raise CutoffError(f"order {k} exceeds coefficient cutoff N={c.N}")


def partial_sum(c: FourierCoefficients, k: int, x: float) -> float:
    """S_k f(x) = a0/2 + sum_{nu<=k} (a_nu cos nu x + b_nu sin nu x)."""
    _check_order(c, k)
    nu = np.arange(1, k + 1, dtype=float)
    terms = c.a[:k] * np.cos(nu * x) + c.b[:k] * np.sin(nu * x)
    return 0.5 * c.a0 + math.fsum(terms.tolist())


def conj_partial_sum(c: FourierCoefficients, k: int, x: float) -> float:
    """Conjugate partial sum sum_{nu<=k} (a_nu sin nu x - b_nu cos nu x); 0 for k=0."""
    _check_order(c, k)
    nu = np.arange(1, k + 1, dtype=float)
    terms = c.a[:k] * np.sin(nu * x) - c.b[:k] * np.cos(nu * x)
    return math.fsum(terms.tolist())


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
    shifted = sorted({b for t0 in f.breakpoints for b in ((t0 - x) % (2 * PI),)})
    cuts = []
    for t0 in shifted:
        for cand in (t0, t0 - 2 * PI):
            if -PI < cand < PI:
                cuts.append(cand)
    nodes, weights = gl_rule(_insert_points(base, cuts))
    kernel = conj_dirichlet(k, nodes)
    values = np.asarray(f(x + nodes), dtype=float)
    return float(-np.dot(weights, values * kernel) / PI)


__all__ = [
    "FourierCoefficients",
    "SingularKernelError",
    "CutoffError",
    "conj_dirichlet",
    "conj_dirichlet_complement",
    "conj_dirichlet_matrix",
    "fourier_coeffs",
    "partial_sum",
    "conj_partial_sum",
    "partial_sum_table",
    "conj_partial_sum_integral",
    "DEFAULT_COEFF_CUTOFF",
]
