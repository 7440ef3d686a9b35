"""Lower-triangular row-stochastic matrices, AB-transforms and condition checkers.

The paper-style "<<" conditions hide an absolute constant; over a finite
matrix a checker can only report the smallest empirical constant together
with the first index tuple attaining it, so that is what ConditionReport carries.
A ratio whose denominator vanishes while the numerator does not makes the
condition unsatisfiable; the report then carries an infinite constant.
Prefix sums are correctly rounded (exact_cumsum), and each row's are computed
once, when a checker first asks (TriangularMatrix.prefix_sums). Checkers 2.2,
3.2 and both remarks cost O(n^2); 2.21 does n^3/6 multiply-adds in numpy in
O(n) Python steps.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .functions import (
    DEFAULT_GRID,
    PI,
    GridSpec,
    PeriodicFunction,
    eval_psi,
    integrate_graded,
    psi_breakpoints,
)
from .kernels import partial_sum_table
from .moduli import modulus

ROW_SUM_TOL = 1e-9
_FSUM_MARGIN = 1e-12  # row sums this close to ROW_SUM_TOL are decided by math.fsum
DEFAULT_CHECKER_N_MAX = 128


class MatrixValidationError(ValueError):
    pass


def exact_cumsum(values) -> np.ndarray:
    """Prefix sums with element s equal to math.fsum(values[:s+1]), in O(len) time."""
    v = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValueError("exact_cumsum needs finite values")
    # v = m * 2**(e - 53) with 53-bit integers m: add exactly over 2**(53 - low),
    # then int / int rounds correctly
    mant, exp = np.frexp(v)
    low = int(exp.min(initial=0))
    nums = map(int.__lshift__, np.ldexp(mant, 53).astype(np.int64).tolist(), (exp - low).tolist())
    sums = map(int.__truediv__, itertools.accumulate(nums), itertools.repeat(2 ** (53 - low)))
    return np.fromiter(sums, float, len(v))


def _zeros(n_max: int, name: str) -> np.ndarray:
    if n_max < 0:
        raise MatrixValidationError(f"{name}: needs at least one row")
    return np.zeros((n_max + 1, n_max + 1))


class TriangularMatrix:
    """Finite lower-triangular nonnegative matrix with unit row sums; ``dense`` is read-only."""

    def __init__(self, rows: Sequence[Sequence[float]], name: str = "matrix"):
        dense = _zeros(len(rows) - 1, name)
        for i, raw in enumerate(rows):
            row = np.asarray(raw, dtype=float)
            if row.ndim != 1 or len(row) != i + 1:
                raise MatrixValidationError(
                    f"{name}: row {i} must have {i + 1} entries, got shape {row.shape}"
                )
            dense[i, : i + 1] = row
        self._adopt(dense, name)

    @classmethod
    def _from_dense(cls, dense: np.ndarray, name: str) -> TriangularMatrix:
        """Adopt a builder's lower-triangular array, validating its rows like the constructor."""
        matrix = cls.__new__(cls)
        matrix._adopt(dense, name)
        return matrix

    def _adopt(self, dense: np.ndarray, name: str) -> None:
        # np.sum of a nonnegative row is within about 1e-15 of its fsum, so only a
        # row near or past the tolerance needs the per-row checks and math.fsum
        nonfinite = ~np.isfinite(dense).all(axis=1)
        negative = (dense < 0.0).any(axis=1)
        with np.errstate(invalid="ignore", over="ignore"):
            deviation = np.abs(dense.sum(axis=1) - 1.0)
        unsure = ~(deviation < ROW_SUM_TOL - _FSUM_MARGIN)  # NaN included
        for i in np.flatnonzero(nonfinite | negative | unsure).tolist():
            if nonfinite[i]:
                raise MatrixValidationError(f"{name}: row {i} has a non-finite entry")
            if negative[i]:
                raise MatrixValidationError(f"{name}: row {i} has a negative entry")
            try:
                total = math.fsum(dense[i, : i + 1].tolist())
            except OverflowError:  # finite entries whose sum exceeds the largest double
                total = math.inf
            if abs(total - 1.0) > ROW_SUM_TOL:
                raise MatrixValidationError(
                    f"{name}: row {i} sums to {total!r}, expected 1 within {ROW_SUM_TOL}"
                )
        dense.flags.writeable = False
        self.name, self.dense = name, dense
        self._prefix_sums: dict[int, np.ndarray] = {}

    @property
    def n_max(self) -> int:
        return len(self.dense) - 1

    def row(self, n: int) -> np.ndarray:
        n = range(len(self.dense))[n]  # negative n counts from the last row
        return self.dense[n, : n + 1]

    def prefix_sums(self, n: int) -> np.ndarray:
        """exact_cumsum(row(n)), read-only, computed on the first request for row n."""
        n = range(len(self.dense))[n]
        sums = self._prefix_sums.get(n)
        if sums is None:
            sums = self._prefix_sums[n] = exact_cumsum(self.row(n))
            sums.flags.writeable = False
        return sums

    def entry(self, n: int, k: int) -> float:
        if k > n:
            return 0.0
        return float(self.row(n)[k])

    def to_dict(self) -> dict:
        return {"name": self.name, "rows": [self.row(n).tolist() for n in range(len(self.dense))]}

    def __repr__(self):
        return f"TriangularMatrix({self.name!r}, n_max={self.n_max})"


def cesaro(n_max: int) -> TriangularMatrix:
    dense = _zeros(n_max, "cesaro")
    for n in range(n_max + 1):
        dense[n, : n + 1] = 1.0 / (n + 1)
    return TriangularMatrix._from_dense(dense, "cesaro")


def identity_matrix(n_max: int) -> TriangularMatrix:
    dense = _zeros(n_max, "identity")
    np.fill_diagonal(dense, 1.0)
    return TriangularMatrix._from_dense(dense, "identity")


def delta_at_zero(n_max: int) -> TriangularMatrix:
    dense = _zeros(n_max, "delta0")
    dense[:, 0] = 1.0
    return TriangularMatrix._from_dense(dense, "delta0")


def nordlund(p: Sequence[float], n_max: int) -> TriangularMatrix:
    """Weighted mean rows a_{n,k} = p_{n-k} / (p_0 + ... + p_n)."""
    w = np.asarray(p, dtype=float)
    if len(w) < n_max + 1:
        raise MatrixValidationError(f"nordlund needs {n_max + 1} weights, got {len(w)}")
    if not np.all(np.isfinite(w) & (w > 0.0)):
        raise MatrixValidationError("nordlund weights must be positive and finite")
    dense = _zeros(n_max, "nordlund")
    totals = exact_cumsum(w[: n_max + 1])
    for n in range(n_max + 1):
        dense[n, : n + 1] = w[n::-1] / totals[n]
    return TriangularMatrix._from_dense(dense, "nordlund")


def from_rows(rows: Sequence[Sequence[float]], name: str = "custom") -> TriangularMatrix:
    return TriangularMatrix(rows, name=name)


def load_matrix_json(path: str) -> TriangularMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or "rows" not in data:
        raise MatrixValidationError(f"{path}: expected an object with a 'rows' field")
    return TriangularMatrix(data["rows"], name=str(data.get("name", path)))


# ---------------------------------------------------------------------------
# AB-transform


def ab_weights(A: TriangularMatrix, B: TriangularMatrix, n: int) -> np.ndarray:
    """Collapsed weights c_k = sum_{r=k}^{n} a_{n,r} b_{r,k}, added in increasing r (no matmul)."""
    if n < 0 or n > A.n_max or n > B.n_max:
        raise MatrixValidationError(
            f"transform order n={n} is outside the matrix size (A: {A.n_max}, B: {B.n_max})"
        )
    return (A.row(n)[:, None] * B.dense[: n + 1, : n + 1]).sum(axis=0)


def ab_transform(
    coeffs,
    A: TriangularMatrix,
    B: TriangularMatrix,
    n: int,
    x: float,
    conjugate: bool = True,
) -> float:
    """Double matrix mean of the (conjugate) partial sums at x."""
    weights = ab_weights(A, B, n)
    sums = partial_sum_table(coeffs, n, x, conjugate=conjugate)
    return math.fsum((weights * sums).tolist())


# ---------------------------------------------------------------------------
# condition checkers


@dataclass(frozen=True)
class ConditionReport:
    condition_id: str
    min_constant: float
    witness: tuple[int, ...]

    @property
    def satisfied(self) -> bool:
        return math.isfinite(self.min_constant)


def check_condition_2_1(A: TriangularMatrix) -> ConditionReport:
    """Smallest K with a_{n,n} <= K/(n+1) over all rows."""
    vals = np.arange(1.0, A.n_max + 2.0) * A.dense.diagonal()
    n = int(np.argmax(vals))
    return ConditionReport("2.1", float(vals[n]), (n,))


def check_condition_2_2(A: TriangularMatrix) -> ConditionReport:
    """Smallest K with (1/(s+1)) sum_{r<=s} a_{n,r} <= K a_{n,s}."""
    best, witness = 0.0, (0, 0)
    for n in range(A.n_max + 1):
        row = A.row(n)
        prefix = A.prefix_sums(n)
        denom = np.arange(1.0, n + 2.0) * row
        zero = denom == 0.0
        fails = zero & (prefix > 0.0)
        if fails.any():
            return ConditionReport("2.2", math.inf, (n, int(np.argmax(fails))))
        vals = prefix / np.where(zero, 1.0, denom)
        s = int(np.argmax(vals))
        if vals[s] > best:
            best, witness = float(vals[s]), (n, s)
    return ConditionReport("2.2", best, witness)


def check_condition_2_21(A: TriangularMatrix, B: TriangularMatrix) -> ConditionReport:
    """Smallest K with |a_{n,r} b_{r,r-l} - a_{n,r+1} b_{r+1,r+1-l}| <= K a_{n,r}/(r+1)^2."""
    n_hi = min(A.n_max, B.n_max)
    best, failures = [(0.0, 0, 0, 0)], []
    for r in range(n_hi):
        a_r = A.dense[r + 1 : n_hi + 1, r]
        nums = np.multiply.outer(a_r, B.row(r)[::-1])
        nums -= np.multiply.outer(A.dense[r + 1 : n_hi + 1, r + 1], B.row(r + 1)[:0:-1])
        nums = np.abs(nums, out=nums) * (r + 1) ** 2
        ls, tops = nums.argmax(axis=1), nums.max(axis=1)
        zero = a_r == 0.0
        bad = np.flatnonzero(zero & (tops > 0.0))
        if bad.size:
            failures.append((r + 1 + int(bad[0]), r, int(ls[bad[0]])))
        vals = tops / np.where(zero, 1.0, a_r)
        i = int(np.argmax(vals))
        best.append((float(vals[i]), r + 1 + i, r, int(ls[i])))
    if failures:
        return ConditionReport("2.21", math.inf, min(failures))
    # first maximum in (n, r) loop order: largest value, then smallest n, then smallest r
    val, *witness = max(best, key=lambda c: (c[0], -c[1], -c[2]))
    return ConditionReport("2.21", val, tuple(witness))


def check_condition_3_2(B: TriangularMatrix) -> ConditionReport:
    """Smallest K with |b_{r,r-l} - b_{r+1,r+1-l}| <= K/(r+1)^2."""
    best, witness = 0.0, (0, 0)
    for r in range(B.n_max):
        diffs = np.abs(B.row(r)[::-1] - B.row(r + 1)[::-1][: r + 1]) * (r + 1) ** 2
        l = int(np.argmax(diffs))
        if diffs[l] > best:
            best, witness = diffs[l], (r, l)
    return ConditionReport("3.2", float(best), witness)


def check_remark1_condition(A: TriangularMatrix, n: int) -> float:
    """sum_{r=0}^{n} sum_{k=0}^{r} a_{n,k}/(r+1); bounded in n for the weak estimate."""
    return math.fsum((A.prefix_sums(n) / np.arange(1.0, n + 2.0)).tolist())


def check_remark2_condition(B: TriangularMatrix, n_max: int | None = None) -> float:
    """max over 0 < s <= n-1 of sum_{r=s}^{n-1} sum_{k=s}^{r} |b_{r,r-k} - b_{r+1,r+1-k}|.

    Walking s down the subdiagonals of B adds the k = s term to every inner sum.
    """
    n = B.n_max if n_max is None else n_max
    if n > B.n_max:
        raise MatrixValidationError(f"remark2 scan needs rows up to {n}, have {B.n_max}")
    if n < 2:
        return 0.0
    inner, best = np.zeros(n), 0.0
    for s in range(n - 1, 0, -1):
        inner[s:] += np.abs(np.diff(B.dense[: n + 1, : n + 1].diagonal(-s)))
        best = max(best, math.fsum(inner[s:].tolist()))
    return best


def check_condition_2_511(
    f: PeriodicFunction, x: float, n: int, grid: GridSpec = DEFAULT_GRID
) -> float:
    """Ratio of (1/pi) int_0^{pi/(n+1)} |psi_x(t)|/t dt to the plain modulus there.

    0/0 is reported as 1; a vanishing modulus against a positive integral
    means the condition fails and the ratio is infinite.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    h = PI / (n + 1)
    cuts = [b for b in psi_breakpoints(f, x) if b < h]

    def integrand(t):
        t = np.asarray(t, dtype=float)
        return np.abs(eval_psi(f, x, t)) / t

    lhs = integrate_graded(integrand, 0.0, h, grid, breakpoints=cuts).value / PI
    rhs = modulus(f, x, h, "w_tilde", grid)
    tiny = 1e-13
    if rhs < tiny:
        return 1.0 if lhs < tiny else math.inf
    return lhs / rhs


__all__ = [
    "TriangularMatrix",
    "MatrixValidationError",
    "ConditionReport",
    "cesaro",
    "identity_matrix",
    "delta_at_zero",
    "nordlund",
    "from_rows",
    "load_matrix_json",
    "ab_weights",
    "exact_cumsum",
    "ab_transform",
    "check_condition_2_1",
    "check_condition_2_2",
    "check_condition_2_21",
    "check_condition_3_2",
    "check_remark1_condition",
    "check_remark2_condition",
    "check_condition_2_511",
    "DEFAULT_CHECKER_N_MAX",
]
