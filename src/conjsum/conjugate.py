"""Truncated and full conjugate function from one suffix-sum table per x.

Both integrate psi_x(t) (1/2) cot(t/2) over (eps, pi]; the full conjugate is
the eps = 0 case, whose integrand is bounded at t -> 0 wherever f is
Dini-continuous at x.  One mesh per (f, x, grid), graded_boundaries(0, pi)
with psi's breakpoints inserted, holds the suffix sums of its panel integrals
twice: with the 8-node Gauss-Legendre rule on each panel (coarse) and on both
halves of it (fine).  The full conjugate is the fine total; a truncated one is
the suffix from the first boundary above eps plus the partial panel [eps, b],
so every eps of an x shares one mesh.  |fine - coarse| is each value's error
estimate; for the full conjugate it is the divergence signal, and above
CONJUGATE_TOL conjugate_at raises.

deviation_kernel_form reads its three integrals from one fine pass on the
same kind of mesh, with h = pi/(n+1) inserted as a boundary.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .functions import (
    DEFAULT_GRID,
    PI,
    DomainError,
    GridSpec,
    PeriodicFunction,
    SingularIntegrandError,
    _check_finite,
    _insert_points,
    eval_psi,
    gl_panels,
    graded_boundaries,
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


def _mesh(f: PeriodicFunction, x: float, grid: GridSpec, cuts=()) -> np.ndarray:
    """graded_boundaries(0, pi) with psi's breakpoints and the given cuts inserted."""
    return _insert_points(graded_boundaries(0.0, PI, grid), list(cuts) + psi_breakpoints(f, x))


def _fine_rule(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 8-node rule on both halves of each panel [lo[k], hi[k]], one row of 16 per panel."""
    mid = lo + 0.5 * (hi - lo)
    (n1, w1), (n2, w2) = gl_panels(lo, mid), gl_panels(mid, hi)
    return np.hstack((n1, n2)), np.hstack((w1, w2))


def _panel_integrals(g, nodes: np.ndarray, weights: np.ndarray) -> np.ndarray:
    values = g(nodes)
    _check_finite(values)
    # vecdot adds each panel in np.dot's order, so a panel gives the same bits in any batch
    return np.vecdot(weights, values)


def _suffix_sums(panels: np.ndarray) -> np.ndarray:
    """s[i] = the sum of panels[i:], added from pi downward; s[-1] = 0."""
    return np.concatenate((np.cumsum(panels[::-1])[::-1], [0.0]))


class _SuffixTable:
    """Integrals of g over [bounds[i], pi] at every boundary, and over [eps, pi] for any eps.

    g maps a (k, nodes) array of t in (0, pi] to the integrand's values.
    """

    def __init__(self, g, bounds: np.ndarray):
        self._g = g
        self.bounds = bounds
        lo, hi = bounds[:-1], bounds[1:]
        self.fine = _suffix_sums(_panel_integrals(g, *_fine_rule(lo, hi)))
        self.coarse = _suffix_sums(_panel_integrals(g, *gl_panels(lo, hi)))

    def integrals(self, eps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(fine integral over [eps, pi], |fine - coarse|) for each eps in [0, pi]."""
        i = np.searchsorted(self.bounds, eps, side="right") - 1
        fine, coarse = self.fine[i], self.coarse[i]
        off = np.flatnonzero(self.bounds[i] != eps)
        if len(off):
            above = i[off] + 1
            lo, hi = eps[off], self.bounds[above]
            fine[off] = self.fine[above] + _panel_integrals(self._g, *_fine_rule(lo, hi))
            coarse[off] = self.coarse[above] + _panel_integrals(self._g, *gl_panels(lo, hi))
        return fine, np.abs(fine - coarse)


@lru_cache(maxsize=4096)
def _table(f: PeriodicFunction, x: float, grid: GridSpec) -> _SuffixTable:
    """The conjugate integrand psi_x(t) (1/2) cot(t/2) on the mesh for (f, x, grid)."""

    def integrand(t):
        return eval_psi(f, x, t) * 0.5 / np.tan(0.5 * t)

    return _SuffixTable(integrand, _mesh(f, x, grid))


def _truncated(f: PeriodicFunction, x: float, eps: np.ndarray, grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """(-(1/pi) int_eps^pi psi_x(t) (1/2) cot(t/2) dt, its error estimate) at each eps; 0 at eps = pi."""
    fine, est_error = _table(f, x, grid).integrals(eps)
    return np.where(eps == PI, 0.0, -fine / PI), est_error / PI


@lru_cache(maxsize=100000)
def _truncated_cached(
    f: PeriodicFunction, x: float, eps: float, grid: GridSpec
) -> tuple[float, float]:
    """(f~(x, eps), its error estimate) for one eps; eps = 0 gives the full conjugate."""
    values, est_errors = _truncated(f, x, np.array([eps]), grid)
    return float(values[0]), float(est_errors[0])


def _check_eps(eps: float):
    if not 0.0 < eps <= PI:
        raise DomainError(f"eps must lie in (0, pi], got {eps}")


def conjugate_truncated(
    f: PeriodicFunction, x: float, eps: float, grid: GridSpec = DEFAULT_GRID
) -> float:
    """-(1/pi) int_eps^pi psi_x(t) (1/2) cot(t/2) dt."""
    _check_eps(eps)
    return _truncated_cached(f, float(x), float(eps), grid)[0]


def conjugate_truncated_batch(
    f: PeriodicFunction, x: float, eps, grid: GridSpec = DEFAULT_GRID
) -> np.ndarray:
    """conjugate_truncated at every eps of a sequence; each value has the bits of the single call."""
    eps = np.asarray(eps, dtype=float)
    for value in eps.tolist():
        _check_eps(value)
    return _truncated(f, float(x), eps, grid)[0]


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
    integrals of psi_x against the matrix mean K of D~_k and its complement
    (1/2) cot(t/2) - K, never as the operator value minus a conjugate value:
    the first is (-int_0^h psi K + int_h^pi psi (cot/2 - K)) / pi with
    h = pi/(n+1), the second int_0^pi psi (cot/2 - K) / pi.
    """
    weights = ab_weights(A, B, n)
    h = PI / (n + 1)
    bounds = _mesh(f, x, grid, cuts=[h])
    nodes, node_weights = _fine_rule(bounds[:-1], bounds[1:])
    psi = eval_psi(f, x, nodes)
    kernel = (weights @ conj_dirichlet_matrix(n, nodes.ravel())).reshape(nodes.shape)
    inner = np.vecdot(node_weights, psi * kernel)
    outer = _suffix_sums(np.vecdot(node_weights, psi * (0.5 / np.tan(0.5 * nodes) - kernel)))
    below = int(np.argmin(np.abs(bounds - h)))  # h itself, or the boundary that stood in for it
    dev_truncated = (-inner[:below].sum() + outer[below]) / PI
    dev_full = outer[0] / PI
    if not (np.isfinite(dev_truncated) and np.isfinite(dev_full)):
        raise SingularIntegrandError("kernel-form deviation integral is not finite")
    return float(dev_truncated), float(dev_full)


__all__ = [
    "CONJUGATE_TOL",
    "ConvergenceError",
    "conjugate_truncated",
    "conjugate_truncated_batch",
    "conjugate_at",
    "deviation_kernel_form",
    "default_x_grid",
]
