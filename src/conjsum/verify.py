"""Deviation/bound assembly for the pointwise and norm estimates.

A BoundReport pairs the measured deviation (lhs) with the modulus expression
bounding it (rhs); the "up to an absolute constant" statements are checked
empirically as lhs/rhs ratios whose running max stays stable across n.
Both sides below RATIO_ZERO_TOL count as a vacuous 0/0 and report ratio 0.

The report grids are loops over the one-point functions transform_value,
lhs_theorem1, rhs_theorem1 and rhs_theorem2 (R1.6 builds its weights once per
n).  Each of those values is summed once and kept in a base._Kept record
beside what it was summed from: a value lives while its record stays in the
lru and every matrix it was summed with lives, and a later call returns the
float the first call summed.  transform_value weights a prefix of one cached
partial-sum table per (f, x) that runs to max(n, 512), the data of its record,
and keeps each value under weak keys A -> B -> {n: value}, so the truncated
and the full left side, and Theorems 1 and 2, share one sum.  The
right-hand sides read the running averages of the modulus profile of
(f, x, kind), sized the same way: every n <= 512 shares one coefficient set
and table, and an order above 512 gets its own.  The profile's record keeps
rhs_theorem2 by n and rhs_theorem1 under a weak key A and then by n, so its
values go with A.  A kept value takes about 80 bytes and the dictionaries of a
record's first A about 1 KB.
np.cumsum adds in index order and each modulus value depends on its own delta
alone, so a prefix has the bits of an array built for that n alone.  Every
left side is lhs_theorem1 at its (n, x).  A truncated grid first reads, for
each x, the truncated conjugates at pi/(n+1) for every order n of its list
that A and B admit in one pass (_read_ahead), which keeps their pairs in the
record of the conjugate table of x, so each truncated conjugate of the loop
is one lookup.  That pass raises nothing: one that fails keeps no pair, and
the loop's one-eps reads fail in turn, so the first failing (n, x) is that
of the loop order.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from . import kernels, summability
from .base import DEFAULT_GRID, THEOREM_IDS, GridSpec, _Kept
from .conjugate import X_GRID_WEIGHT, _kept_pairs, conjugate_at, conjugate_truncated, default_x_grid
from .functions import PI, PeriodicFunction, check_exponent, check_x, lp_norms
from .kernels import DEFAULT_COEFF_CUTOFF, FourierCoefficients, fourier_coeffs
from .moduli import _averaged_modulus, _cumulative, _profile, classical_modulus, modulus_profile
from .summability import TriangularMatrix, exact_cumsum

RATIO_ZERO_TOL = 1e-11


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
def _partial_sums(f: PeriodicFunction, x: float, grid: GridSpec, conjugate: bool, top: int) -> _Kept:
    """S~_k f(x) (or S_k f(x)) for k = 0..top, read-only (8*(top+1) bytes), kept with the transform values.

    under(A).under(B).summed is {n: T~_{n,A,B} f(x)}, under weak keys, so neither matrix is pinned by the table.
    """
    sums = kernels.partial_sum_table(coefficients(f, grid, top), top, x, conjugate)
    sums.flags.writeable = False
    return _Kept(sums)


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
    """T~_{n,A,B} f(x), or the plain transform, summed once and kept in the partial-sum record of x.

    An order outside A or B fails in ab_weights before any cache fills.  A kept value is the float its first
    call summed, so a later call returns the same bits; it lives while the record stays in the lru and A and B
    both live.
    """
    x = check_x("x", x)
    weights = summability.ab_weights(A, B, n)
    table = _partial_sums(f, x, grid, conjugate, max(n, DEFAULT_COEFF_CUTOFF))
    kept = table.under(A).under(B).summed
    if n not in kept:
        kept[n] = math.fsum((weights * table.data[: n + 1]).tolist())
    return kept[n]


def rhs_theorem1(
    f: PeriodicFunction, A: TriangularMatrix, x: float, n: int, grid: GridSpec = DEFAULT_GRID
) -> float:
    """sum_r a_{n,r} [ (1/(r+1)) sum_{k<=r} bar-w~_x(pi/(k+1)) ], summed once and kept on the profile record under A.

    A negative n fails as modulus_profile's does and an order past A as ab_weights' does, before any cache fills.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > A.n_max:
        raise summability._order_error(n, A)
    record = _profile(f, check_x("x", x), "w_tilde_bar", grid, max(n, DEFAULT_COEFF_CUTOFF))
    kept = record.under(A).summed
    if n not in kept:
        kept[n] = _row_mean(A, n, record.data.averaged)
    return kept[n]


def rhs_theorem2(
    f: PeriodicFunction, x: float, n: int, grid: GridSpec = DEFAULT_GRID
) -> float:
    """(1/(n+1)) sum_r [ (1/(r+1)) sum_{k<=r} w~_x(pi/(k+1)) ], plain modulus, summed once and kept on the record."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    record = _profile(f, check_x("x", x), "w_tilde", grid, max(n, DEFAULT_COEFF_CUTOFF))
    kept = record.summed
    if n not in kept:
        avg = record.data.averaged[: n + 1]
        kept[n] = float(avg.sum() / len(avg))
    return kept[n]


def lhs_theorem1(f: PeriodicFunction, A: TriangularMatrix, B: TriangularMatrix, x: float, n: int, truncated: bool,
                 grid: GridSpec = DEFAULT_GRID) -> float:
    """|T~ f(x) - conjugate|, against the truncated or the full conjugate."""
    value = transform_value(f, A, B, n, x, grid)
    target = conjugate_truncated(f, x, PI / (n + 1), grid) if truncated else conjugate_at(f, x, grid)
    return abs(value - target)


def _read_ahead(f: PeriodicFunction, A: TriangularMatrix, B: TriangularMatrix, ns: Sequence[int],
                xs: Sequence[float], truncated: bool, grid: GridSpec) -> None:
    """For truncated deviations, read each x's truncated conjugates at pi/(n+1), for every n of ns that A and B admit.

    One pass per x keeps their pairs, so each read of lhs_theorem1 is a lookup.  The passes raise nothing: one that
    fails keeps no pair, and the one-eps reads of lhs_theorem1 raise its error again in the loop's order.
    """
    eps = [PI / (n + 1) for n in ns if 0 <= n <= min(A.n_max, B.n_max)] if truncated else []
    for x in xs if eps else ():  # no table is built when there is nothing to read
        with suppress(ValueError):  # what check_x and a read refuse with
            _kept_pairs(f, check_x("x", x), eps, grid)


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
    _read_ahead(f, A, B, ns, xs, truncated, grid)
    reports = []
    for n in ns:
        lhs_row = [lhs_theorem1(f, A, B, x, n, truncated, grid) for x in xs]
        # the transforms have checked every x, so check_x only reduces it; the row's modulus tables cost one root
        # bisection, at the first n only
        _cumulative(f, [check_x("x", x) for x in xs], "psi", grid)
        weights = _remark1_weights(A, n) if theorem_id == "R1.6" else None  # after the transforms of n
        for x, lhs in zip(xs, lhs_row):
            if theorem_id in ("T1.51", "T1.5"):
                rhs = rhs_theorem1(f, A, x, n, grid)
            elif theorem_id == "R1.6":
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
    xs = default_x_grid()
    top = min(max(ns, default=0), A.n_max)  # an order past A fails in its transform
    inner = _averaged_modulus(classical_modulus(f, PI / (np.arange(top + 1) + 1.0), p, grid))
    _read_ahead(f, A, B, ns, xs, truncated, grid)
    reports = []
    for n in ns:
        lhs = float(lp_norms(np.array([lhs_theorem1(f, A, B, x, n, truncated, grid) for x in xs]), p, X_GRID_WEIGHT))
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
