"""Deviation/bound assembly for the pointwise and norm estimates.

A BoundReport pairs the measured deviation (lhs) with the modulus expression
bounding it (rhs); the "up to an absolute constant" statements are checked
empirically as lhs/rhs ratios whose running max stays stable across n.
Both sides below RATIO_ZERO_TOL count as a vacuous 0/0 and report ratio 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .conjugate import conjugate_at, conjugate_truncated, default_x_grid
from .functions import DEFAULT_GRID, PI, GridSpec, PeriodicFunction
from .kernels import DEFAULT_COEFF_CUTOFF, FourierCoefficients, fourier_coeffs
from .moduli import classical_modulus, modulus_profile
from .summability import TriangularMatrix, ab_transform, exact_cumsum

THEOREM_IDS = ("T1.51", "T1.5", "R1.6", "T2", "T2.trunc", "T3", "T4", "COR")

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
def coefficients(f: PeriodicFunction, grid: GridSpec, N: int = DEFAULT_COEFF_CUTOFF) -> FourierCoefficients:
    return fourier_coeffs(f, N, grid)


def transform_value(
    f: PeriodicFunction,
    A: TriangularMatrix,
    B: TriangularMatrix,
    n: int,
    x: float,
    grid: GridSpec = DEFAULT_GRID,
    conjugate: bool = True,
) -> float:
    return ab_transform(coefficients(f, grid), A, B, n, x, conjugate=conjugate)


def _averaged_modulus(values: np.ndarray) -> np.ndarray:
    """inner_r = (1/(r+1)) sum_{k<=r} values[k]."""
    return np.cumsum(values) / (np.arange(len(values)) + 1.0)


def rhs_theorem1(
    f: PeriodicFunction, A: TriangularMatrix, x: float, n: int, grid: GridSpec = DEFAULT_GRID
) -> float:
    """sum_r a_{n,r} [ (1/(r+1)) sum_{k<=r} bar-w~_x(pi/(k+1)) ]."""
    values = modulus_profile(f, x, n, "w_tilde_bar", grid).values
    return float(np.dot(A.row(n), _averaged_modulus(values)))


def rhs_remark1(
    f: PeriodicFunction, A: TriangularMatrix, x: float, n: int, grid: GridSpec = DEFAULT_GRID
) -> float:
    """The sharper plain-modulus expression, no prefix-dominance assumption."""
    values = modulus_profile(f, x, n, "w_tilde", grid).values
    return _remark1_expression(A, n, values)


def _remark1_expression(A: TriangularMatrix, n: int, values: np.ndarray) -> float:
    row = A.row(n)
    inner = _averaged_modulus(values)
    tails = np.concatenate(([0.0], exact_cumsum(row[1:])))
    weights = row + tails / np.arange(1.0, n + 2.0)
    # np.cumsum adds in index order, so the total rounds like a running sum
    return float(np.cumsum(weights * inner)[-1] + inner[n])


def rhs_theorem2(
    f: PeriodicFunction, x: float, n: int, grid: GridSpec = DEFAULT_GRID
) -> float:
    """(1/(n+1)) sum_r [ (1/(r+1)) sum_{k<=r} w~_x(pi/(k+1)) ], plain modulus."""
    values = modulus_profile(f, x, n, "w_tilde", grid).values
    return float(np.mean(_averaged_modulus(values)))


def lhs_theorem1(
    f: PeriodicFunction,
    A: TriangularMatrix,
    B: TriangularMatrix,
    x: float,
    n: int,
    truncated: bool,
    grid: GridSpec = DEFAULT_GRID,
) -> float:
    """|T~ f(x) - conjugate|, against the truncated or the full conjugate."""
    value = transform_value(f, A, B, n, x, grid, conjugate=True)
    if truncated:
        target = conjugate_truncated(f, x, PI / (n + 1), grid)
    else:
        target = conjugate_at(f, x, grid)
    return abs(value - target)


def pointwise_report(
    theorem_id: str,
    f: PeriodicFunction,
    A: TriangularMatrix,
    B: TriangularMatrix,
    x: float,
    n: int,
    grid: GridSpec = DEFAULT_GRID,
) -> BoundReport:
    """One pointwise BoundReport for T1.51, T1.5, R1.6, T2 or T2.trunc."""
    truncated = theorem_id in ("T1.51", "T2.trunc")
    lhs = lhs_theorem1(f, A, B, x, n, truncated, grid)
    if theorem_id in ("T1.51", "T1.5"):
        rhs = rhs_theorem1(f, A, x, n, grid)
    elif theorem_id == "R1.6":
        rhs = rhs_remark1(f, A, x, n, grid)
    elif theorem_id in ("T2", "T2.trunc"):
        rhs = rhs_theorem2(f, x, n, grid)
    else:
        raise ValueError(f"unknown pointwise theorem id {theorem_id!r}")
    return BoundReport(
        theorem_id=theorem_id,
        n=n,
        x=x,
        lhs=lhs,
        rhs=rhs,
        ratio=ratio_of(lhs, rhs),
        metadata={"function": f.name, "matrix_a": A.name, "matrix_b": B.name},
    )


def norm_report(
    f: PeriodicFunction,
    A: TriangularMatrix,
    B: TriangularMatrix,
    n: int,
    p: float,
    truncated: bool,
    grid: GridSpec = DEFAULT_GRID,
    theorem_id: str = "T3",
) -> BoundReport:
    """L^p-level report: deviation norm over the default x grid vs classical moduli.

    The lhs norm is discrete over the default evaluation grid (weight pi/16
    per point, max for p = inf); the rhs uses the classical L^p moduli.
    """
    if not p >= 1:
        raise ValueError(f"p must satisfy 1 <= p <= inf, got {p}")
    devs = np.array(
        [lhs_theorem1(f, A, B, x, n, truncated, grid) for x in default_x_grid()]
    )
    if math.isinf(p):
        lhs = float(devs.max())
    else:
        lhs = float((X_GRID_WEIGHT * np.sum(devs**p)) ** (1.0 / p))
    omegas = np.array(
        [classical_modulus(f, PI / (k + 1), p, grid) for k in range(n + 1)]
    )
    rhs = float(np.dot(A.row(n), _averaged_modulus(omegas)))
    return BoundReport(
        theorem_id=theorem_id,
        n=n,
        x=None,
        lhs=lhs,
        rhs=rhs,
        ratio=ratio_of(lhs, rhs),
        metadata={
            "function": f.name,
            "matrix_a": A.name,
            "matrix_b": B.name,
            "p": p,
            "truncated": truncated,
        },
    )


def corollary_decay(
    f: PeriodicFunction,
    A: TriangularMatrix,
    B: TriangularMatrix,
    n_list: Sequence[int],
    x: float,
    grid: GridSpec = DEFAULT_GRID,
) -> list[BoundReport]:
    """Full deviations |T~ f(x) - conjugate(x)| along increasing n.

    Each report's rhs is the previous deviation, so ratio tracks the decay
    dev(n_i)/dev(n_{i-1}); the first report compares with itself (ratio 1).
    """
    ns = list(n_list)
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("n_list must be strictly increasing")
    devs = [lhs_theorem1(f, A, B, x, n, truncated=False, grid=grid) for n in ns]
    reports = []
    for i, (n, dev) in enumerate(zip(ns, devs)):
        prev = devs[i - 1] if i else dev
        reports.append(
            BoundReport(
                theorem_id="COR",
                n=n,
                x=x,
                lhs=dev,
                rhs=prev,
                ratio=ratio_of(dev, prev),
                metadata={"function": f.name, "matrix_a": A.name, "matrix_b": B.name},
            )
        )
    return reports


__all__ = [
    "BoundReport",
    "THEOREM_IDS",
    "RATIO_ZERO_TOL",
    "X_GRID_WEIGHT",
    "ratio_of",
    "coefficients",
    "transform_value",
    "rhs_theorem1",
    "rhs_remark1",
    "rhs_theorem2",
    "lhs_theorem1",
    "pointwise_report",
    "norm_report",
    "corollary_decay",
]
