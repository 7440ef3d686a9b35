"""Lower-triangular row-stochastic matrices, AB-transforms and condition checkers.

The paper-style "<<" conditions hide an absolute constant; over a finite
matrix a checker can only report the smallest empirical constant together
with the first index tuple attaining it, so that is what ConditionReport carries.
A ratio whose denominator vanishes while the numerator does not makes the
condition unsatisfiable; the report then carries an infinite constant.
Prefix sums are correctly rounded (exact_cumsum); each row's are computed once,
in row blocks shared with checker 2.2 (TriangularMatrix.prefix_sums). Checkers
2.2, 3.2 and both remarks cost O(n^2); 2.21 does n^3/6 multiply-adds in numpy
in O(n) Python steps.
"""

from __future__ import annotations

import itertools
import json
import math
import weakref
from dataclasses import dataclass
from typing import Sequence

import numpy as np

ROW_SUM_TOL = 1e-9
_FSUM_MARGIN = 1e-12  # row sums this close to ROW_SUM_TOL are decided by math.fsum
DEFAULT_CHECKER_N_MAX = 128
_BLOCK_ROWS, _BLOCK_ELEMENTS = 64, 2**12  # see _block_end; ab_weights adds _BLOCK_ROWS columns at a time


class MatrixValidationError(ValueError):
    pass


def exact_cumsum(values) -> np.ndarray:
    """Prefix sums along the last axis, element s equal to math.fsum(values[..., :s+1]).

    A row whose TwoSum step errors add exactly needs one more addition per prefix; other rows sum in integers.
    """
    v = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValueError("exact_cumsum needs finite values")
    rows = np.atleast_2d(v)
    with np.errstate(over="ignore", invalid="ignore"):
        run = np.cumsum(rows, axis=-1)
        err = _two_sum_err(run[:, :-1], rows[:, 1:], run[:, 1:])
        err_run = np.cumsum(err, axis=-1)
        exact = ~_two_sum_err(err_run[:, :-1], err[:, 1:], err_run[:, 1:]).any(axis=-1)  # NaN counts as inexact
        run[:, 1:] += err_run
        run += 0.0  # -0.0 -> 0.0, as math.fsum gives
        exact &= np.isfinite(run).all(axis=-1)
    for i in np.flatnonzero(~exact).tolist():
        run[i] = _integer_cumsum(rows[i])
    return run.reshape(v.shape)


def _two_sum_err(a, b, s) -> np.ndarray:
    """Error of s = fl(a + b), so that a + b == s + err exactly (TwoSum; NaN if a step overflows)."""
    a_part = s - a
    err = s - a_part
    np.subtract(a, err, out=err)
    err += np.subtract(b, a_part, out=a_part)
    return err


def _integer_cumsum(v: np.ndarray) -> np.ndarray:
    """exact_cumsum of one finite row in Python integers, for rows the TwoSum path cannot certify."""
    # v = m * 2**(e - 53) with 53-bit integers m: add exactly over 2**(53 - low),
    # then int / int rounds correctly
    mant, exp = np.frexp(v)
    low = int(exp.min(initial=0))
    nums = map(int.__lshift__, np.ldexp(mant, 53).astype(np.int64).tolist(), (exp - low).tolist())
    sums = map(int.__truediv__, itertools.accumulate(nums), itertools.repeat(2 ** (53 - low)))
    return np.fromiter(sums, float, len(v))


def _block_end(n0: int, n_rows: int) -> int:
    """End of the row block from n0: up to 64 rows and 4096 entries, or one row.

    At about 40 bytes an entry, a block's temporaries stay within those of summing one row in integers.
    """
    return min(n_rows, n0 + max(1, min(_BLOCK_ROWS, _BLOCK_ELEMENTS // (n0 + _BLOCK_ROWS))))


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
        self._ab_weights = weakref.WeakKeyDictionary()  # partner B -> {n: weights}, dropped with B

    @property
    def n_max(self) -> int:
        return len(self.dense) - 1

    def row(self, n: int) -> np.ndarray:
        n = range(len(self.dense))[n]  # negative n counts from the last row
        return self.dense[n, : n + 1]

    def prefix_sums(self, n: int) -> np.ndarray:
        """exact_cumsum(row(n)), read-only; a miss fills rows n.. up to its block end in one call."""
        n = range(len(self.dense))[n]
        if n not in self._prefix_sums:
            n1 = _block_end(n, len(self.dense))
            n1 = next((m for m in range(n + 1, n1) if m in self._prefix_sums), n1)
            block = exact_cumsum(self.dense[n:n1, :n1])
            for m in range(n, n1):
                sums = self._prefix_sums[m] = block[m - n, : m + 1].copy()
                sums.flags.writeable = False
        return self._prefix_sums[n]

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


def load_matrix_json(path: str) -> TriangularMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or "rows" not in data:
        raise MatrixValidationError(f"{path}: expected an object with a 'rows' field")
    return TriangularMatrix(data["rows"], name=str(data.get("name", path)))


# ---------------------------------------------------------------------------
# AB-transform


def _check_transform_order(A: TriangularMatrix, B: TriangularMatrix, n: int) -> None:
    if not 0 <= n <= min(A.n_max, B.n_max):
        raise MatrixValidationError(f"transform order n={n} is outside the matrix size (A: {A.n_max}, B: {B.n_max})")


def ab_weights(A: TriangularMatrix, B: TriangularMatrix, n: int) -> np.ndarray:
    """Collapsed weights c_k = sum_{r=k}^{n} a_{n,r} b_{r,k}, added in increasing r; kept read-only on A.

    Columns k..k+63 start at row k, above which B is zero, so no temporary exceeds (n+1) x 64.
    """
    _check_transform_order(A, B, n)
    kept = A._ab_weights.setdefault(B, {})
    weights = kept.get(n)
    if weights is None:
        row, cols = A.row(n), range(0, n + 1, _BLOCK_ROWS)
        blocks = [(row[k:, None] * B.dense[k : n + 1, k : min(k + _BLOCK_ROWS, n + 1)]).sum(axis=0) for k in cols]
        weights = kept[n] = np.concatenate(blocks)
        weights.flags.writeable = False
    return weights


# ---------------------------------------------------------------------------
# condition checkers


@dataclass(frozen=True)
class ConditionReport:
    condition_id: str
    min_constant: float
    witness: tuple[int, ...]


def check_condition_2_1(A: TriangularMatrix) -> ConditionReport:
    """Smallest K with a_{n,n} <= K/(n+1) over all rows."""
    vals = np.arange(1.0, A.n_max + 2.0) * A.dense.diagonal()
    n = int(np.argmax(vals))
    return ConditionReport("2.1", float(vals[n]), (n,))


def check_condition_2_2(A: TriangularMatrix) -> ConditionReport:
    """Smallest K with (1/(s+1)) sum_{r<=s} a_{n,r} <= K a_{n,s}."""
    best, witness = 0.0, (0, 0)
    n0 = 0
    while n0 <= A.n_max:
        n1 = _block_end(n0, A.n_max + 1)
        # zero past the diagonal, where the row is zero too: s > n neither fails nor wins
        prefix = np.zeros((n1 - n0, n1))
        for row, n in zip(prefix, range(n0, n1)):
            row[: n + 1] = A.prefix_sums(n)
        denom = np.arange(1.0, n1 + 1.0) * A.dense[n0:n1, :n1]
        zero = denom == 0.0
        fails = zero & (prefix > 0.0)
        if fails.any():  # the first failure in row-major order
            i, s = divmod(int(np.argmax(fails)), n1)
            return ConditionReport("2.2", math.inf, (n0 + i, s))
        vals = prefix / np.where(zero, 1.0, denom)
        i, s = divmod(int(np.argmax(vals)), n1)
        if vals[i, s] > best:  # a later block's tie keeps the earlier witness
            best, witness = float(vals[i, s]), (n0 + i, s)
        n0 = n1
    return ConditionReport("2.2", best, witness)


def check_condition_2_21(A: TriangularMatrix, B: TriangularMatrix) -> ConditionReport:
    """Smallest K with |a_{n,r} b_{r,r-l} - a_{n,r+1} b_{r+1,r+1-l}| <= K a_{n,r}/(r+1)^2."""
    n_hi = min(A.n_max, B.n_max)
    best, failures = [(0.0, 0, 0, 0)], []
    work, other = np.empty((2, n_hi * n_hi // 4 + n_hi + 1))  # holds each r's (n_hi - r) x (r + 1) block
    for r in range(n_hi):
        a_r, shape = A.dense[r + 1 : n_hi + 1, r], (n_hi - r, r + 1)
        nums = np.multiply.outer(a_r, B.row(r)[::-1], out=work[: a_r.size * (r + 1)].reshape(shape))
        a_next = A.dense[r + 1 : n_hi + 1, r + 1]
        nums -= np.multiply.outer(a_next, B.row(r + 1)[:0:-1], out=other[: nums.size].reshape(shape))
        np.abs(nums, out=nums)
        nums *= (r + 1) ** 2
        ls = nums.argmax(axis=1)
        tops = nums[np.arange(a_r.size), ls]
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


def _check_scan_order(M: TriangularMatrix, n: int, scan: str) -> None:
    """A remark checker's order n must name a row of M."""
    if n < 0:
        raise MatrixValidationError(f"{scan} needs n >= 0, got {n}; have rows up to {M.n_max}")
    if n > M.n_max:
        raise MatrixValidationError(f"{scan} needs rows up to {n}, have {M.n_max}")


def check_remark1_condition(A: TriangularMatrix, n: int) -> float:
    """sum_{r=0}^{n} sum_{k=0}^{r} a_{n,k}/(r+1); bounded in n for the weak estimate."""
    _check_scan_order(A, n, "remark1")
    return math.fsum((A.prefix_sums(n) / np.arange(1.0, n + 2.0)).tolist())


def check_remark2_condition(B: TriangularMatrix, n_max: int | None = None) -> float:
    """max over 0 < s <= n-1 of sum_{r=s}^{n-1} sum_{k=s}^{r} |b_{r,r-k} - b_{r+1,r+1-k}|.

    Walking s down the subdiagonals of B adds the k = s term to every inner sum.
    """
    n = B.n_max if n_max is None else n_max
    _check_scan_order(B, n, "remark2 scan")
    if n < 2:
        return 0.0
    inner, best = np.zeros(n), 0.0
    for s in range(n - 1, 0, -1):
        inner[s:] += np.abs(np.diff(B.dense[: n + 1, : n + 1].diagonal(-s)))
        best = max(best, math.fsum(inner[s:].tolist()))
    return best
