"""Truncated and full conjugate function from one pair of panel-sum tables per x.

Both integrate psi_x(t) (1/2) cot(t/2) over (eps, pi]; the full conjugate is
the eps = 0 case, whose integrand is bounded at t -> 0 wherever f is
Dini-continuous at x.  One mesh per (f, x, grid), graded_boundaries(0, pi)
with psi's breakpoints inserted, holds two ``PanelSums`` anchored at pi: one
with the 8-node Gauss-Legendre rule on each panel (coarse) and one on both
halves of it (fine).  The full conjugate is the fine total; a truncated one is
the sum from the first boundary above eps plus the partial panel [eps, b], so
every eps of an x shares one mesh, and conjugate_truncated reads an array of
eps in one pass.  |fine - coarse| is each value's error estimate; for the
full conjugate it is the divergence signal, and above CONJUGATE_TOL
conjugate_at raises.

deviation_kernel_form integrates both of its kernel integrands with the fine
rule on the same kind of mesh, cut at h = pi/(n+1), and sums them from pi as
a fine ``PanelSums`` would.  One cached table per (f, x, grid),
_kernel_nodes, holds the uncut mesh and, at its fine nodes, the weights,
psi_x, e^{it} and (1/2) cot(t/2): 48 bytes a node, about 129 kB at the default
grid.  A call gathers the rows of every panel the cut leaves whole and
evaluates only the two halves of the panel h splits (none when h is already
a boundary, as at n = 2^j - 1).  Every value is elementwise per node and
every panel sum a vecdot of its own row, so the bits are those of evaluating
every node afresh.  The kernel mean sum_k c_k D~_k(t) comes from the one
kernel evaluator, kernels.conj_kernel_mean_z at the cached e^{it}, within
n eps sum |C_nu| of the exact series.

Every x passes functions.check_x first, which reduces an x outside [-pi, pi] by
the period and refuses one beyond 2^20.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .base import DEFAULT_GRID, ConvergenceError, DomainError, GridSpec, SingularIntegrandError
from .functions import (
    PI,
    PanelSums,
    PeriodicFunction,
    _insert_points,
    check_half_period,
    check_x,
    eval_psi,
    fine_rule,
    graded_boundaries,
    panel_integrals,
    psi_breakpoints,
    running_sums,
)
from .kernels import conj_kernel_mean_z
from .summability import TriangularMatrix, ab_weights

CONJUGATE_TOL = 1e-8  # largest error estimate conjugate_at accepts


def default_x_grid() -> list[float]:
    """Evaluation points {+-j*pi/16 : j=1..15}; avoids all corpus singularities."""
    pos = [j * PI / 16.0 for j in range(1, 16)]
    return sorted(-v for v in pos) + pos


def _mesh(f: PeriodicFunction, x: float, grid: GridSpec, cuts=()) -> np.ndarray:
    """graded_boundaries(0, pi) with psi's breakpoints and the given cuts inserted."""
    return _insert_points(graded_boundaries(0.0, PI, grid), list(cuts) + psi_breakpoints(f, x))


@lru_cache(maxsize=4096)
def _table(f: PeriodicFunction, x: float, grid: GridSpec) -> tuple[PanelSums, PanelSums]:
    """Fine and coarse sums from pi of psi_x(t) (1/2) cot(t/2) on the mesh for (f, x, grid)."""

    def integrand(t):
        return eval_psi(f, x, t) * 0.5 / np.tan(0.5 * t)

    bounds = _mesh(f, x, grid)
    return PanelSums(integrand, bounds, fine_rule, from_top=True), PanelSums(integrand, bounds, from_top=True)


def _truncated(f: PeriodicFunction, x: float, eps: np.ndarray, grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """(-(1/pi) int_eps^pi psi_x(t) (1/2) cot(t/2) dt, its error estimate) at each eps; 0 at eps = pi."""
    fine, coarse = (table.at(eps) for table in _table(f, x, grid))
    return np.where(eps == PI, 0.0, -fine / PI), np.abs(fine - coarse) / PI


@lru_cache(maxsize=100000)
def _truncated_cached(f: PeriodicFunction, x: float, eps: float, grid: GridSpec) -> tuple[float, float]:
    """(f~(x, eps), its error estimate) for one eps; eps = 0 gives the full conjugate."""
    values, est_errors = _truncated(f, x, np.array([eps]), grid)
    return float(values[0]), float(est_errors[0])


def conjugate_truncated(f: PeriodicFunction, x: float, eps, grid: GridSpec = DEFAULT_GRID):
    """-(1/pi) int_eps^pi psi_x(t) (1/2) cot(t/2) dt: a cached float for a float eps, one value per eps for an array.

    Each value of an array has the bits of the float call at its eps.
    """
    eps = check_half_period("eps", eps)
    x = check_x("x", x)
    if isinstance(eps, float):
        return _truncated_cached(f, x, eps, grid)[0]
    return _truncated(f, x, eps, grid)[0]


def _check_regular(f: PeriodicFunction, x: float) -> float:
    """x as check_x gives it, unless it is not finite or is a known singular point of f (named as given)."""
    reduced = check_x("x", x)
    if f.is_singular_at(reduced):
        raise DomainError(f"x={float(x)} is a known singular point of {f.name}")
    return reduced


def conjugate_at(f: PeriodicFunction, x: float, grid: GridSpec = DEFAULT_GRID) -> float:
    """The conjugate function at x: the principal-value integral from eps = 0."""
    x = _check_regular(f, x)
    value, est_error = _truncated_cached(f, x, 0.0, grid)
    if not est_error <= CONJUGATE_TOL:
        raise ConvergenceError(
            f"conjugate at x={x}: error estimate {est_error:.3g} exceeds {CONJUGATE_TOL}",
            (value, est_error),
        )
    return value


def _kernel_rows(f: PeriodicFunction, x: float, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, ...]:
    """fine_rule nodes and weights on the panels [lo, hi], and psi_x, e^{it} and (1/2) cot(t/2) there, by panel."""
    nodes, weights = fine_rule(lo, hi)
    return nodes, weights, eval_psi(f, x, nodes), np.exp(1j * nodes), 0.5 / np.tan(0.5 * nodes)


@lru_cache(maxsize=16)
def _kernel_nodes(f: PeriodicFunction, x: float, grid: GridSpec) -> tuple[np.ndarray, ...]:
    """The mesh for (f, x, grid) and its _kernel_rows, read-only.

    48 bytes a node: about 129 kB at the default grid, 1.7 MB at the largest (m = 16384, refinement 64).
    """
    bounds = _mesh(f, x, grid)
    table = (bounds, *_kernel_rows(f, x, bounds[:-1], bounds[1:]))
    for array in table:
        array.flags.writeable = False
    return table


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
    h = pi/(n+1), the second int_0^pi psi (cot/2 - K) / pi.  At a known
    singular point of f the full conjugate diverges, so it raises there.
    Each panel of the mesh cut at h that is a panel of the uncut mesh reads
    its rows from _kernel_nodes; only the others are evaluated here.
    """
    x = _check_regular(f, x)
    weights = ab_weights(A, B, n)
    h = PI / (n + 1)
    bounds = _mesh(f, x, grid, cuts=[h])
    below = int(np.argmin(np.abs(bounds - h)))  # h itself, or the boundary that stood in for it
    base, *table = _kernel_nodes(f, x, grid)
    lo, hi = bounds[:-1], bounds[1:]
    row = np.minimum(np.searchsorted(base, lo), len(base) - 2)
    fresh = np.flatnonzero((base[row] != lo) | (base[row + 1] != hi))
    nodes, rule_weights, psi, z, half_cot = rows = [column[row] for column in table]
    if len(fresh):
        for column, values in zip(rows, _kernel_rows(f, x, lo[fresh], hi[fresh])):
            column[fresh] = values
    kernel = conj_kernel_mean_z(weights, z)
    # psi K is kept below h only, so its total is its integral over (0, h]
    inner = np.where(nodes < bounds[below], psi * kernel, 0.0)
    values = np.stack((inner, psi * (half_cot - kernel)))
    inner, outer = running_sums(panel_integrals(rule_weights, values), from_top=True)
    dev_truncated = (-inner[0] + outer[below]) / PI
    dev_full = outer[0] / PI
    if not (np.isfinite(dev_truncated) and np.isfinite(dev_full)):
        raise SingularIntegrandError("kernel-form deviation integral is not finite")
    return float(dev_truncated), float(dev_full)
