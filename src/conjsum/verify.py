"""Deviation/bound assembly for the pointwise and norm estimates.

A BoundReport pairs the measured deviation (lhs) with the modulus expression
bounding it (rhs); the "up to an absolute constant" statements are checked
empirically as lhs/rhs ratios whose running max stays stable across n.
Both sides below RATIO_ZERO_TOL count as a vacuous 0/0 and report ratio 0.

The report grids are loops over the one-point functions transform_value,
lhs_theorem1, rhs_theorem1 and rhs_theorem2 (R1.6 builds its weights once per
n).  transform_value weights a prefix of one cached partial-sum table per
(f, x) that runs to max(n, 512), and the right-hand sides read prefixes of
the running averages that modulus_profile caches beside its profile per
(f, x, kind), sized the same way: every n <= 512 shares one coefficient set
and table, and an order above 512 gets its own.  np.cumsum adds in index
order and each modulus value depends on its own delta alone, so a prefix has
the bits of an array built for that n alone.
The one batched piece: a grid reads the truncated conjugates of an x in one
conjugate_truncated array call, with the bits of the float-eps calls, at the
first (n, x) of that x and after its transform, so the first failing (n, x)
keeps the loop order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from . import kernels, summability
from .base import DEFAULT_GRID, THEOREM_IDS, GridSpec
from .conjugate import conjugate_at, conjugate_truncated, default_x_grid
from .functions import PI, PeriodicFunction, check_exponent, check_x, lp_norms
from .kernels import DEFAULT_COEFF_CUTOFF, FourierCoefficients, fourier_coeffs
from .moduli import _averaged_modulus, classical_modulus, modulus_profile
from .summability import TriangularMatrix, exact_cumsum

RATIO_ZERO_TOL = 1e-11

X_GRID_WEIGHT = PI / 16.0  # spacing of the default evaluation grid


@dataclass(frozen=True)
class BoundReport:
    theorem_id: str
    n: int
    x: Optional[float]
    lhs: float
    rhs: float
    ratio: float
    metadata: dict = field(default_factory=dict)


def ratio_of(lhs: float, rhs: float) -> float:
    if lhs < RATIO_ZERO_TOL and rhs < RATIO_ZERO_TOL:
        return 0.0
    if rhs < RATIO_ZERO_TOL:
        return math.inf
    return lhs / rhs


@lru_cache(maxsize=64)
def coefficients(f: PeriodicFunction, grid: GridSpec, top: int) -> FourierCoefficients:
    """fourier_coeffs up to N = top, shared through the cache, so a and b are read-only."""
    coeffs = fourier_coeffs(f, top, grid)
    coeffs.a.flags.writeable = coeffs.b.flags.writeable = False
    return coeffs


@lru_cache(maxsize=1024)
def _partial_sums(f: PeriodicFunction, x: float, grid: GridSpec, conjugate: bool, top: int) -> np.ndarray:
    """S~_k f(x) (or S_k f(x)) for k = 0..top, read-only: 8*(top+1) bytes."""
    sums = kernels.partial_sum_table(coefficients(f, grid, top), top, x, conjugate)
    sums.flags.writeable = False
    return sums


def _row_mean(A: TriangularMatrix, n: int, inner: np.ndarray) -> float:
    """sum_r a_{n,r} inner_r: the Theorem 1 and the norm right-hand sides."""
    return float(np.dot(A.row(n), inner[: n + 1]))


def _remark1_weights(A: TriangularMatrix, n: int) -> np.ndarray:
    row = A.row(n)
    tails = np.concatenate(([0.0], exact_cumsum(row[1:])))
    return row + tails / np.arange(1.0, n + 2.0)


def _remark1_sum(weights: np.ndarray, n: int, inner: np.ndarray) -> float:
    # np.cumsum adds in index order, so the total rounds like a running sum
    return float(np.cumsum(weights * inner[: n + 1])[-1] + inner[n])


def transform_value(f: PeriodicFunction, A: TriangularMatrix, B: TriangularMatrix, n: int, x: float,
                    grid: GridSpec = DEFAULT_GRID, conjugate: bool = True) -> float:
    """T~_{n,A,B} f(x), or the plain transform; an order outside A or B fails in ab_weights before any cache fills."""
    x = check_x("x", x)
    weights = summability.ab_weights(A, B, n)
    sums = _partial_sums(f, x, grid, conjugate, max(n, DEFAULT_COEFF_CUTOFF))[: n + 1]
    return math.fsum((weights * sums).tolist())


def rhs_theorem1(
    f: PeriodicFunction, A: TriangularMatrix, x: float, n: int, grid: GridSpec = DEFAULT_GRID
) -> float:
    """sum_r a_{n,r} [ (1/(r+1)) sum_{k<=r} bar-w~_x(pi/(k+1)) ]."""
    return _row_mean(A, n, modulus_profile(f, x, n, "w_tilde_bar", grid).averaged)


def rhs_theorem2(
    f: PeriodicFunction, x: float, n: int, grid: GridSpec = DEFAULT_GRID
) -> float:
    """(1/(n+1)) sum_r [ (1/(r+1)) sum_{k<=r} w~_x(pi/(k+1)) ], plain modulus."""
    avg = modulus_profile(f, x, n, "w_tilde", grid).averaged
    return float(avg.sum() / len(avg))


def lhs_theorem1(f: PeriodicFunction, A: TriangularMatrix, B: TriangularMatrix, x: float, n: int, truncated: bool,
                 grid: GridSpec = DEFAULT_GRID) -> float:
    """|T~ f(x) - conjugate|, against the truncated or the full conjugate."""
    value = transform_value(f, A, B, n, x, grid)
    target = conjugate_truncated(f, x, PI / (n + 1), grid) if truncated else conjugate_at(f, x, grid)
    return abs(value - target)


def _deviations(f: PeriodicFunction, A: TriangularMatrix, B: TriangularMatrix, ns: Sequence[int], truncated: bool,
                grid: GridSpec):
    """lhs_theorem1 as a function of (n, x), for a grid whose orders are ns.

    Against the truncated conjugate, the targets of an x come from one
    conjugate_truncated array call over eps = pi/(n+1), for each n >= 0 of ns.
    It is made at the first (n, x) of that x, after its transform, so a
    failing (n, x) raises what lhs_theorem1 raises there.
    """
    if not truncated:
        return lambda n, x: lhs_theorem1(f, A, B, x, n, False, grid)
    orders = sorted({n for n in ns if n >= 0})
    targets: dict = {}

    def deviation(n: int, x: float) -> float:
        value = transform_value(f, A, B, n, x, grid)
        if x not in targets:
            values = conjugate_truncated(f, x, PI / (np.array(orders) + 1.0), grid)
            targets[x] = dict(zip(orders, values.tolist()))
        return abs(value - targets[x][n])

    return deviation


_POINTWISE_IDS = ("T1.51", "T1.5", "R1.6", "T2", "T2.trunc")


def pointwise_grid(
    theorem_id: str,
    f: PeriodicFunction,
    A: TriangularMatrix,
    B: TriangularMatrix,
    ns: Sequence[int],
    xs: Sequence[float],
    grid: GridSpec = DEFAULT_GRID,
) -> list[BoundReport]:
    """Pointwise BoundReports for T1.51, T1.5, R1.6, T2 or T2.trunc, n outer and x inner."""
    if theorem_id not in _POINTWISE_IDS:
        raise ValueError(f"unknown pointwise theorem id {theorem_id!r}")
    deviation = _deviations(f, A, B, ns, theorem_id in ("T1.51", "T2.trunc"), grid)
    reports = []
    for n in ns:
        weights = None  # R1.6's, built at the first x of n, after its transform
        for x in xs:
            lhs = deviation(n, x)
            if theorem_id in ("T1.51", "T1.5"):
                rhs = rhs_theorem1(f, A, x, n, grid)
            elif theorem_id == "R1.6":
                weights = _remark1_weights(A, n) if weights is None else weights
                rhs = _remark1_sum(weights, n, modulus_profile(f, x, n, "w_tilde", grid).averaged)
            else:
                rhs = rhs_theorem2(f, x, n, grid)
            metadata = {"function": f.name, "matrix_a": A.name, "matrix_b": B.name}
            reports.append(BoundReport(theorem_id, n, x, lhs, rhs, ratio_of(lhs, rhs), metadata))
    return reports


def norm_grid(
    f: PeriodicFunction,
    A: TriangularMatrix,
    B: TriangularMatrix,
    ns: Sequence[int],
    p: float,
    truncated: bool,
    grid: GridSpec = DEFAULT_GRID,
    theorem_id: str = "T3",
) -> list[BoundReport]:
    """L^p-level reports, one per n: deviation norm over the default x grid vs classical moduli.

    The lhs norm is discrete over the default evaluation grid (weight pi/16
    per point, max for p = inf); the rhs uses the classical L^p moduli.
    """
    check_exponent("p", p)
    deviation = _deviations(f, A, B, ns, truncated, grid)
    xs = default_x_grid()
    top = min(max(ns, default=0), A.n_max)  # an order past A fails in its transform
    inner = _averaged_modulus(classical_modulus(f, PI / (np.arange(top + 1) + 1.0), p, grid))
    reports = []
    for n in ns:
        lhs = float(lp_norms(np.array([deviation(n, x) for x in xs]), p, X_GRID_WEIGHT))
        rhs = _row_mean(A, n, inner)
        metadata = {
            "function": f.name,
            "matrix_a": A.name,
            "matrix_b": B.name,
            "p": p,
            "truncated": truncated,
        }
        reports.append(BoundReport(theorem_id, n, None, lhs, rhs, ratio_of(lhs, rhs), metadata))
    return reports


def corollary_grid(
    f: PeriodicFunction,
    A: TriangularMatrix,
    B: TriangularMatrix,
    n_list: Sequence[int],
    xs: Sequence[float],
    grid: GridSpec = DEFAULT_GRID,
) -> list[BoundReport]:
    """Full deviations |T~ f(x) - conjugate(x)| along increasing n, x outer and n inner.

    Each report's rhs is the previous deviation at the same x, so ratio tracks
    the decay dev(n_i)/dev(n_{i-1}); the first report at each x compares with
    itself (ratio 1).
    """
    ns = list(n_list)
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("n_list must be strictly increasing")
    reports = []
    for x in xs:
        devs = [lhs_theorem1(f, A, B, x, n, False, grid) for n in ns]
        for i, (n, dev) in enumerate(zip(ns, devs)):
            prev = devs[i - 1] if i else dev
            metadata = {"function": f.name, "matrix_a": A.name, "matrix_b": B.name}
            reports.append(BoundReport("COR", n, x, dev, prev, ratio_of(dev, prev), metadata))
    return reports
