"""Deviation/bound assembly for the pointwise and norm estimates.

A BoundReport pairs the measured deviation (lhs) with the modulus expression
bounding it (rhs); the "up to an absolute constant" statements are checked
empirically as lhs/rhs ratios whose running max stays stable across n.
Both sides below RATIO_ZERO_TOL count as a vacuous 0/0 and report ratio 0.

A command is evaluated over its whole (n, x) grid at once: the coefficients
once, the AB weights once per n, and per x one partial-sum table and one
modulus profile up to the largest n; each (n, x) value reads a prefix.  The
conjugates come from one suffix-sum table per x (see conjugate): the truncated
ones at every eps = pi/(n+1) of the grid in one batch per x.  One n or x is a
grid of one.  For library callers, transform_value is summability.ab_transform,
whose bits the grid's prefix reads, and lhs_theorem1 compares it with the
cached scalar conjugate, which has the bits of the batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from . import kernels, summability
from .conjugate import conjugate_at, conjugate_truncated, conjugate_truncated_batch, default_x_grid
from .functions import DEFAULT_GRID, PI, GridSpec, PeriodicFunction
from .kernels import DEFAULT_COEFF_CUTOFF, FourierCoefficients, _check_order, fourier_coeffs
from .moduli import _check_p, classical_modulus, modulus_profile
from .summability import TriangularMatrix, exact_cumsum

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
def coefficients(f: PeriodicFunction, grid: GridSpec) -> FourierCoefficients:
    return fourier_coeffs(f, DEFAULT_COEFF_CUTOFF, grid)


def _averaged_modulus(values: np.ndarray) -> np.ndarray:
    """inner_r = (1/(r+1)) sum_{k<=r} values[k]."""
    return np.cumsum(values) / (np.arange(len(values)) + 1.0)


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


class _Grid:
    """The parts of an (n, x) evaluation that depend on n alone or x alone, each built once.

    Partial-sum tables, modulus profiles and classical moduli run up to the
    largest n at or below the coefficient cutoff, and each (n, x) value reads
    their prefix of length n + 1.  np.cumsum adds in index order and each
    modulus value depends on its own delta alone, so a prefix equals the array
    built for that n alone.  Everything is built on first use, so a failing
    (n, x) raises the error it raised when each point was computed by itself.
    """

    def __init__(
        self,
        f: PeriodicFunction,
        A: TriangularMatrix,
        B: TriangularMatrix,
        ns: Sequence[int],
        grid: GridSpec,
        conjugate: bool = True,
    ):
        self.f, self.A, self.B, self.grid, self.conjugate = f, A, B, grid, conjugate
        self.coeffs = coefficients(f, grid)
        self.top = min(max(ns, default=0), self.coeffs.N)
        self.ns = sorted({n for n in ns if 0 <= n <= self.top})
        self._built: dict = {}

    def _once(self, key, build):
        value = self._built.get(key)
        if value is None:
            value = self._built[key] = build()
        return value

    def transform(self, n: int, x: float) -> float:
        """T~_{n,A,B} f(x), or the plain transform."""
        weights = self._once(("weights", n), lambda: summability.ab_weights(self.A, self.B, n))
        _check_order(self.coeffs, n)
        table = self._once(
            ("sums", x), lambda: kernels.partial_sum_table(self.coeffs, self.top, x, self.conjugate)
        )
        return math.fsum((weights * table[: n + 1]).tolist())

    def deviation(self, n: int, x: float, truncated: bool) -> float:
        """|T~ f(x) - conjugate|, against the truncated or the full conjugate."""
        value = self.transform(n, x)
        if truncated:
            target = self._once(("truncated", x), lambda: self._truncated(x))[n]
        else:
            target = conjugate_at(self.f, x, self.grid)
        return abs(value - target)

    def _truncated(self, x: float) -> dict:
        """n -> f~(x, pi/(n+1)) for every n of the grid that has a transform."""
        values = conjugate_truncated_batch(self.f, x, PI / (np.array(self.ns) + 1.0), self.grid)
        return dict(zip(self.ns, values.tolist()))

    def pointwise_modulus(self, x: float, kind: str) -> np.ndarray:
        """Averaged modulus of the given kind at x, for r = 0..top."""
        return self._once(
            (kind, x),
            lambda: _averaged_modulus(modulus_profile(self.f, x, self.top, kind, self.grid).values),
        )

    def classical_modulus(self, p: float) -> np.ndarray:
        """Averaged classical L^p modulus, for r = 0..top."""
        deltas = PI / (np.arange(self.top + 1) + 1.0)
        return self._once(("classical", p), lambda: _averaged_modulus(classical_modulus(self.f, deltas, p, self.grid)))

    def remark1_weights(self, n: int) -> np.ndarray:
        return self._once(("remark1", n), lambda: _remark1_weights(self.A, n))


def transform_grid(
    f: PeriodicFunction,
    A: TriangularMatrix,
    B: TriangularMatrix,
    ns: Sequence[int],
    xs: Sequence[float],
    grid: GridSpec = DEFAULT_GRID,
    conjugate: bool = True,
) -> list[list[float]]:
    """T~_{n,A,B} f(x) (the plain transform if not conjugate), one row per n, one column per x."""
    g = _Grid(f, A, B, ns, grid, conjugate)
    return [[g.transform(n, x) for x in xs] for n in ns]


def transform_value(
    f: PeriodicFunction,
    A: TriangularMatrix,
    B: TriangularMatrix,
    n: int,
    x: float,
    grid: GridSpec = DEFAULT_GRID,
    conjugate: bool = True,
) -> float:
    """T~_{n,A,B} f(x) at one point; the grid's transform reads the same bits from its prefix."""
    return summability.ab_transform(coefficients(f, grid), A, B, n, x, conjugate)


def rhs_theorem1(
    f: PeriodicFunction, A: TriangularMatrix, x: float, n: int, grid: GridSpec = DEFAULT_GRID
) -> float:
    """sum_r a_{n,r} [ (1/(r+1)) sum_{k<=r} bar-w~_x(pi/(k+1)) ]."""
    values = modulus_profile(f, x, n, "w_tilde_bar", grid).values
    return _row_mean(A, n, _averaged_modulus(values))


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
    value = transform_value(f, A, B, n, x, grid)
    target = conjugate_truncated(f, x, PI / (n + 1), grid) if truncated else conjugate_at(f, x, grid)
    return abs(value - target)


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
    truncated = theorem_id in ("T1.51", "T2.trunc")
    kind = "w_tilde_bar" if theorem_id in ("T1.51", "T1.5") else "w_tilde"
    g = _Grid(f, A, B, ns, grid)
    reports = []
    for n in ns:
        for x in xs:
            lhs = g.deviation(n, x, truncated)
            inner = g.pointwise_modulus(x, kind)
            if kind == "w_tilde_bar":
                rhs = _row_mean(A, n, inner)
            elif theorem_id == "R1.6":
                rhs = _remark1_sum(g.remark1_weights(n), n, inner)
            else:
                rhs = float(np.mean(inner[: n + 1]))
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
    _check_p(p)
    g = _Grid(f, A, B, ns, grid)
    xs = default_x_grid()
    reports = []
    for n in ns:
        devs = np.array([g.deviation(n, x, truncated) for x in xs])
        if math.isinf(p):
            lhs = float(devs.max())
        else:
            lhs = float((X_GRID_WEIGHT * np.sum(devs**p)) ** (1.0 / p))
        rhs = _row_mean(A, n, g.classical_modulus(p))
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
    g = _Grid(f, A, B, ns, grid)
    reports = []
    for x in xs:
        devs = [g.deviation(n, x, truncated=False) for n in ns]
        for i, (n, dev) in enumerate(zip(ns, devs)):
            prev = devs[i - 1] if i else dev
            metadata = {"function": f.name, "matrix_a": A.name, "matrix_b": B.name}
            reports.append(BoundReport("COR", n, x, dev, prev, ratio_of(dev, prev), metadata))
    return reports


__all__ = [
    "BoundReport",
    "THEOREM_IDS",
    "RATIO_ZERO_TOL",
    "X_GRID_WEIGHT",
    "ratio_of",
    "coefficients",
    "transform_grid",
    "transform_value",
    "rhs_theorem1",
    "rhs_theorem2",
    "lhs_theorem1",
    "pointwise_grid",
    "norm_grid",
    "corollary_grid",
]
