"""Truncated and full conjugate function from one panel-sum table per x.

Both integrate psi_x(t) (1/2) cot(t/2) over (eps, pi]; the full conjugate is
the eps = 0 case, whose integrand is bounded at t -> 0 wherever f is
Dini-continuous at x.  One mesh per (f, x, grid), graded_boundaries(0, pi)
with psi's breakpoints inserted, holds one ``PanelSums`` anchored at pi with
the Gauss-Kronrod 7/15 pair: its 15 nodes per panel give the Kronrod sum and
the embedded Gauss sum at once.  The full conjugate is the Kronrod total; a
truncated one is the sum from the first boundary above eps plus the partial
panel [eps, b], so every eps of an x shares one mesh, and conjugate_truncated
reads an array of eps in one pass.  |Kronrod - Gauss| is each value's error
estimate, which bounds the Gauss sum's error and overstates the Kronrod sum's;
for the full conjugate it is the divergence signal, and above CONJUGATE_TOL
conjugate_at raises.  The table is the data of a base._Kept record, _table,
an lru of up to 4096 per (f, x, grid).  The record keeps the (value,
estimate) pair of each float eps read from it, by eps, with eps = 0 the full
conjugate: a pair is computed once and lives as long as its table, and an
array of eps is read afresh, with the bits of the float calls.

deviation_kernel_form integrates both of its kernel integrands with the
Kronrod row on the same kind of mesh, cut at h = pi/(n+1), and sums them from
pi as a ``PanelSums`` would.  One cached table per (f, x, grid),
_kernel_nodes, holds the uncut mesh and, at its 15 nodes a panel, the
weights, psi_x, e^{it} and (1/2) cot(t/2): 48 bytes a node, about 120 kB at
the default grid, at most 16 tables.  One cached cut record per
(f, x, n, grid), _kernel_cut, a base._Kept shared by every matrix pair, holds
in its data what the cut changes: the uncut panel each cut panel starts in,
and the rows of the panels that are not uncut ones (the two into which h
splits one; none when h is already a boundary, as at n = 2^j - 1): about 4 kB
an entry at the default grid, at most 256 entries.  The first call for an
(A, B) joins the table's columns and the fresh rows, makes one Horner pass
over those nodes, evaluates both integrands into one array, takes one panel
sum per panel and gathers the sums to the cut panels.  Every value is
elementwise per node and every panel sum a vecdot of its own row, so the bits
are those of evaluating every node of the cut mesh afresh.  The record keeps
the pair that call returns under weak keys A and B, by n, once the call has
passed every check, so a repeated call returns that tuple and a refused one
keeps nothing; a pair goes with A, with B or with its record (about 2.9 kB
for a record's first pair, with its dictionaries, and 0.55 kB for one under
a new B).  The kernel mean sum_k c_k D~_k(t) comes from
the one kernel evaluator, kernels.conj_kernel_mean_z, with the tails kept on
A beside the AB weights (summability.ab_tails), within n eps sum |C_nu| of
the exact series.

Every x passes functions.check_x first, which reduces an x outside [-pi, pi] by
the period and refuses one beyond 2^20.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .base import DEFAULT_GRID, ConvergenceError, DomainError, GridSpec, SingularIntegrandError, _Kept
from .functions import (
    PI,
    PanelSums,
    PeriodicFunction,
    _insert_points,
    check_half_period,
    check_x,
    eval_psi,
    graded_boundaries,
    kronrod_panels,
    panel_integrals,
    psi_breakpoints,
    running_sums,
)
from .kernels import conj_kernel_mean_z
from .summability import TriangularMatrix, ab_tails

CONJUGATE_TOL = 1e-8  # largest error estimate conjugate_at accepts
X_GRID_WEIGHT = PI / 16.0  # spacing of default_x_grid, the weight of each point in its L^p norms


def default_x_grid() -> list[float]:
    """Evaluation points {+-j*pi/16 : j=1..15}; avoids all corpus singularities."""
    pos = [j * X_GRID_WEIGHT for j in range(1, 16)]
    return sorted(-v for v in pos) + pos


def _mesh(f: PeriodicFunction, x: float, grid: GridSpec, cuts=()) -> np.ndarray:
    """graded_boundaries(0, pi) with psi's breakpoints and the given cuts inserted."""
    return _insert_points(graded_boundaries(0.0, PI, grid), list(cuts) + psi_breakpoints(f, x))


@lru_cache(maxsize=4096)
def _table(f: PeriodicFunction, x: float, grid: GridSpec) -> _Kept:
    """Kronrod and Gauss sums from pi of psi_x(t) (1/2) cot(t/2) on the mesh for (f, x, grid), in data.

    summed keeps (f~(x, eps), its error estimate) by float eps, as _kept_pair reads it; eps = 0 is the full conjugate.
    """

    def integrand(t):
        return eval_psi(f, x, t) * 0.5 / np.tan(0.5 * t)

    return _Kept(PanelSums(integrand, _mesh(f, x, grid), from_top=True))


def _truncated(f: PeriodicFunction, x: float, eps: np.ndarray, grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """(-(1/pi) int_eps^pi psi_x(t) (1/2) cot(t/2) dt, its error estimate) at each eps; 0 at eps = pi."""
    kronrod, gauss = _table(f, x, grid).data.at(eps)
    return np.where(eps == PI, 0.0, -kronrod / PI), np.abs(kronrod - gauss) / PI


def _kept_pair(f: PeriodicFunction, x: float, eps: float, grid: GridSpec) -> tuple[float, float]:
    """(f~(x, eps), its error estimate) for one float eps, as floats, kept on the table of x by eps."""
    values, est_errors = _truncated(f, x, np.array([eps]), grid)
    pair = _table(f, x, grid).summed[eps] = float(values[0]), float(est_errors[0])
    return pair


def conjugate_truncated(f: PeriodicFunction, x: float, eps, grid: GridSpec = DEFAULT_GRID):
    """-(1/pi) int_eps^pi psi_x(t) (1/2) cot(t/2) dt: a cached float for a float eps, one value per eps for an array.

    Each value of an array has the bits of the float call at its eps.
    """
    eps = check_half_period("eps", eps)
    x = check_x("x", x)
    if isinstance(eps, float):
        return (_table(f, x, grid).summed.get(eps) or _kept_pair(f, x, eps, grid))[0]
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
    value, est_error = _table(f, x, grid).summed.get(0.0) or _kept_pair(f, x, 0.0, grid)
    if not est_error <= CONJUGATE_TOL:
        raise ConvergenceError(
            f"conjugate at x={x}: error estimate {est_error:.3g} exceeds {CONJUGATE_TOL}",
            (value, est_error),
        )
    return value


def _kernel_rows(f: PeriodicFunction, x: float, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, ...]:
    """Kronrod nodes and weights on the panels [lo, hi], and psi_x, e^{it} and (1/2) cot(t/2) there, by panel."""
    nodes, weights = kronrod_panels(lo, hi)
    return nodes, weights[0], eval_psi(f, x, nodes), np.exp(1j * nodes), 0.5 / np.tan(0.5 * nodes)


@lru_cache(maxsize=16)
def _kernel_nodes(f: PeriodicFunction, x: float, grid: GridSpec) -> tuple[np.ndarray, ...]:
    """The mesh for (f, x, grid) and its _kernel_rows, read-only.

    48 bytes a node: about 120 kB at the default grid, 1.5 MB at the largest (m = 16384, refinement 64).
    """
    bounds = _mesh(f, x, grid)
    table = (bounds, *_kernel_rows(f, x, bounds[:-1], bounds[1:]))
    for array in table:
        array.flags.writeable = False
    return table


@lru_cache(maxsize=256)
def _kernel_cut(f: PeriodicFunction, x: float, n: int, grid: GridSpec) -> _Kept:
    """The mesh for (f, x, grid) cut at h = pi/(n+1), read from the uncut one of _kernel_nodes; arrays read-only.

    A record whose under(A).under(B).summed keeps deviation_kernel_form's pairs by n, and whose data is
    (below, edge, row, unread, fresh_rows): the cut mesh's index of h, or of the boundary that stood in for it,
    and that boundary; each cut panel's row among the uncut panels followed by the fresh ones (the cut panels
    that are not uncut ones); the uncut panels that no cut panel is; and the fresh panels' _kernel_rows.  8 bytes
    a cut panel and 720 a fresh one: about 4 kB an entry at the default grid, 20 kB at the largest.
    """
    h = PI / (n + 1)
    bounds = _mesh(f, x, grid, cuts=[h])
    below = int(np.argmin(np.abs(bounds - h)))  # h itself, or the boundary that stood in for it
    base = _kernel_nodes(f, x, grid)[0]
    lo, hi = bounds[:-1], bounds[1:]
    row = np.minimum(np.searchsorted(base, lo), len(base) - 2)
    fresh = (base[row] != lo) | (base[row + 1] != hi)
    read = np.zeros(len(base) - 1, dtype=bool)
    read[row[~fresh]] = True
    unread = np.flatnonzero(~read)  # np.setdiff1d would import numpy.ma, about 1.5 MB
    row[fresh] = len(base) - 1 + np.arange(np.count_nonzero(fresh))
    fresh_rows = _kernel_rows(f, x, lo[fresh], hi[fresh])
    for array in (row, unread, *fresh_rows):
        array.flags.writeable = False
    return _Kept((below, float(bounds[below]), row, unread, fresh_rows))


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
    h = pi/(n+1), the second int_0^pi psi (cot/2 - K) / pi.  It raises at a
    known singular point of f, and wherever conjugate_at refuses (next to
    sawtooth's jump, say), with that error.
    Each panel of the mesh cut at h that is a panel of the uncut mesh takes
    its sum from the rows of _kernel_nodes; the others, from the rows that
    _kernel_cut keeps.  The cut record keeps the returned tuple by (A, B, n)
    once both checks have passed: a repeated call returns that same tuple, and
    a refused call keeps nothing and refuses again.

    Tested orders: up to n = 16 within 1e-13 of value minus conjugate, and at
    n = 1024 against the same integral on a mesh eight times finer, within
    2e-11 for Cesaro means, 3e-9 for Cesaro/identity and 1e-6 for identity
    rows.  The default mesh does not resolve n = 4096: there the errors reach
    6.8e-7 (Cesaro) and 0.35 (identity), and no estimate reports them.
    """
    x = _check_regular(f, x)
    tails = ab_tails(A, B, n)  # an order outside A or B fails here, before any cache keyed by x fills
    record = _kernel_cut(f, x, n, grid)
    kept = record.under(A).under(B).summed
    if n in kept:
        return kept[n]
    below, edge, row, unread, fresh_rows = record.data
    # the uncut panels, then the fresh ones
    nodes, rule_weights, psi, z, half_cot = map(np.concatenate, zip(_kernel_nodes(f, x, grid)[1:], fresh_rows))
    kernel = conj_kernel_mean_z(tails, z)
    values = np.zeros((2,) + z.shape)
    # psi K is kept below h only, so its total is its integral over (0, h]
    np.multiply(psi, kernel, out=values[0], where=nodes < edge)
    np.subtract(half_cot, kernel, out=values[1])
    values[1] *= psi
    values[:, unread] = 0.0  # not nodes of the cut mesh: a value there that is not finite must refuse nothing
    inner, outer = running_sums(panel_integrals(rule_weights, values)[:, row], from_top=True)
    dev_truncated = (-inner[0] + outer[below]) / PI
    dev_full = outer[0] / PI
    if not (np.isfinite(dev_truncated) and np.isfinite(dev_full)):
        raise SingularIntegrandError("kernel-form deviation integral is not finite")
    conjugate_at(f, x, grid)  # refuse where the conjugate does: the integrands share its singularity at t -> 0
    kept[n] = float(dev_truncated), float(dev_full)  # only a pair that passed both checks is kept
    return kept[n]
