"""Lower-triangular row-stochastic matrices, AB-transforms and condition checkers.

The paper-style "<<" conditions hide an absolute constant; over a finite
matrix a checker can only report the smallest empirical constant together
with the first index tuple attaining it, so that is what ConditionReport carries.
A ratio whose denominator vanishes while the numerator does not makes the
condition unsatisfiable; the report then carries an infinite constant.
Prefix sums are correctly rounded (exact_cumsum); each row's are computed once,
in row blocks shared with checker 2.2 (TriangularMatrix.prefix_sums). Checkers
2.2, 3.2 and both remarks cost O(n^2). Checker 2.21 bounds every column r in
O(n) from its two rows of extreme a_{n,r+1}/a_{n,r} and scans row by row only
the columns whose certified bound reaches the largest value found; that is
O(n^2) on the builtin matrices and at worst the n^3/6 of scanning every column.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .base import MatrixValidationError, _Kept

ROW_SUM_TOL = 1e-9
_FSUM_MARGIN = 1e-12  # row sums this close to ROW_SUM_TOL are decided by math.fsum
DEFAULT_CHECKER_N_MAX = 128
_BLOCK_ROWS, _BLOCK_ELEMENTS = 64, 2**12  # see _block_end; ab_weights adds _BLOCK_ROWS columns at a time
_R_BLOCK, _SLACK, _TINY = 16, 16 * 2.0**-53, 2.0**-500  # checker 2.21: columns per block, 16 eps, see there


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
            try:
                row = np.asarray(raw, dtype=float)
            except OverflowError:  # an integer beyond the largest double
                raise MatrixValidationError(f"{name}: row {i} has an entry too large for a double") from None
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
        self._ab_weights, self._ab_tails = _Kept(), _Kept()  # under(B).summed: {n: weights (tails)}, dropped with B

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
        try:
            data = json.load(fh)
        except RecursionError:
            raise MatrixValidationError(f"{path}: JSON nested too deeply") from None
    if not isinstance(data, dict) or "rows" not in data:
        raise MatrixValidationError(f"{path}: expected an object with a 'rows' field")
    rows, name = data["rows"], data.get("name", path)
    if not isinstance(rows, list):
        raise MatrixValidationError(f"{path}: 'rows' must be a list of rows")
    if not isinstance(name, str):
        raise MatrixValidationError(f"{path}: 'name' must be a string")
    for i, row in enumerate(rows):  # JSON numbers only: no bools, strings or nested values
        if not isinstance(row, list) or not set(map(type, row)) <= {int, float}:
            raise MatrixValidationError(f"{path}: row {i} must be a list of numbers")
    return TriangularMatrix(rows, name=name)


# ---------------------------------------------------------------------------
# AB-transform


def _order_error(n: int, *matrices: TriangularMatrix) -> MatrixValidationError:
    """The refusal of an order outside A (and B), naming each size."""
    sizes = ", ".join(f"{name}: {M.n_max}" for name, M in zip("AB", matrices))
    return MatrixValidationError(f"transform order n={n} is outside the matrix size ({sizes})")


def _check_transform_order(A: TriangularMatrix, B: TriangularMatrix, n: int) -> None:
    if not 0 <= n <= min(A.n_max, B.n_max):
        raise _order_error(n, A, B)


def ab_weights(A: TriangularMatrix, B: TriangularMatrix, n: int) -> np.ndarray:
    """Collapsed weights c_k = sum_{r=k}^{n} a_{n,r} b_{r,k}, added in increasing r; kept read-only on A.

    Columns k..k+63 start at row k, above which B is zero, so no temporary exceeds (n+1) x 64.
    Only a checked order is ever kept, so a kept one is returned unchecked.
    """
    kept = A._ab_weights.under(B).summed
    if n not in kept:
        _check_transform_order(A, B, n)
        row, cols = A.row(n), range(0, n + 1, _BLOCK_ROWS)
        blocks = [(row[k:, None] * B.dense[k : n + 1, k : min(k + _BLOCK_ROWS, n + 1)]).sum(axis=0) for k in cols]
        weights = kept[n] = np.concatenate(blocks)
        weights.flags.writeable = False
    return kept[n]


def ab_tails(A: TriangularMatrix, B: TriangularMatrix, n: int) -> np.ndarray:
    """The kernel tails C_nu = sum_{k>=nu} c_k of ab_weights(A, B, n), nu = 1..n, each correctly rounded.

    Kept read-only on A beside the weights, and dropped with B as they are.
    """
    kept = A._ab_tails.under(B).summed
    if n not in kept:
        tails = kept[n] = exact_cumsum(ab_weights(A, B, n)[:0:-1])[::-1].copy()
        tails.flags.writeable = False
    return kept[n]


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


def _scan_2_21(A: TriangularMatrix, B: TriangularMatrix, r: int, n0: int, n1: int) -> tuple[float, int, int, int]:
    """The first largest value of column r over rows n0 <= n < n1 as (value, n, r, l); l is the first argmax."""
    a_r = A.dense[n0:n1, r]
    nums = np.multiply.outer(a_r, B.row(r)[::-1])
    nums -= np.multiply.outer(A.dense[n0:n1, r + 1], B.row(r + 1)[:0:-1])
    np.abs(nums, out=nums)
    nums *= (r + 1) ** 2
    ls = nums.argmax(axis=1)
    vals = nums[np.arange(a_r.size), ls] / np.where(a_r == 0.0, 1.0, a_r)
    i = int(np.argmax(vals))
    return float(vals[i]), n0 + i, r, int(ls[i])


def _bounds_2_21(A: TriangularMatrix, B: TriangularMatrix, r0: int, r1: int, n_hi: int):
    """Columns r0 <= r < r1: (first failure (n, r) or None, largest value at the extreme t rows, UB_r).

    UB_r bounds every value of column r, or is 0 where each is exactly 0, or inf where an entry is too small.
    """
    a = A.dense[r0 + 1 : n_hi + 1, r0 : r1 + 1]
    a_r, a_next = a[:, :-1], a[:, 1:]
    below = np.arange(r0 + 1, n_hi + 1)[:, None] > np.arange(r0, r1)  # rows n > r
    u, v = B.dense[r0:r1, :r1], B.dense[r0 + 1 : r1 + 1, 1 : r1 + 1]  # b_{r,k} and b_{r+1,k+1}, k = r - l
    u_max, v_max, c = u.max(axis=1), v.max(axis=1), np.arange(r0 + 1.0, r1 + 1.0) ** 2
    fails = below & (a_r == 0.0) & (a_next * v_max > 0.0)  # then some fl(a_{n,r+1} v_l) > 0
    failure = None
    if fails.any():
        i, j = divmod(int(np.argmax(fails)), r1 - r0)
        failure = (r0 + 1 + i, r0 + j)
    live, cols = below & (a_r > 0.0), np.arange(r1 - r0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t = a_next / np.where(live, a_r, 1.0)
        ext = np.stack([np.where(live, t, np.inf).argmin(axis=0), np.where(live, t, -np.inf).argmax(axis=0)])
        a_ext, a_next_ext = a_r[ext, cols], a_next[ext, cols]
        nums = np.abs(a_ext[..., None] * u - a_next_ext[..., None] * v) * c[:, None]  # as _scan_2_21, k order
        top = np.where(live[ext, cols], nums.max(axis=2) / a_ext, 0.0).max(axis=0)
        # a rounded value is within (1 + eps)^3 of c|u_l - t v_l| plus c eps (1 + eps)^3 (u_l + t v_l), and
        # the exact extreme t within 2 eps t of the rows found; 16 eps also covers rounding ub itself
        ub =top * (1.0 + _SLACK) + _SLACK * c * (u_max + t[ext[1], cols] * v_max)
    small = [(0.0 < x) & (x < _TINY) for x in (u, v, a_r, a_next)]
    ub[small[0].any(axis=1) | small[1].any(axis=1) | ((small[2] | small[3]) & below).any(axis=0)] = math.inf
    ub[~live.any(axis=0) | ((a_r == a_next) | ~below).all(axis=0) & (u == v).all(axis=1)] = 0.0
    return failure, float(top.max()), ub


def check_condition_2_21(A: TriangularMatrix, B: TriangularMatrix) -> ConditionReport:
    """Smallest K with |a_{n,r} b_{r,r-l} - a_{n,r+1} b_{r+1,r+1-l}| <= K a_{n,r}/(r+1)^2.

    With t_n = a_{n,r+1}/a_{n,r} the value of row n is (r+1)^2 max_l |u_l - t_n v_l|, u_l = b_{r,r-l},
    v_l = b_{r+1,r+1-l}: convex in t_n, so largest at the rows of smallest and largest t_n. Those two rows
    of every r, in blocks of 16 columns, give an attained threshold and a certified bound
    UB_r = max(V_lo, V_hi)(1 + 16 eps) + 16 eps (r+1)^2 (max u + max t max v) on each column's rounded
    values; only the r with 0 < UB_r >= threshold are scanned row by row. A row with a_{n,r} = 0 fails
    when fl(a_{n,r+1} max v) > 0, and a nonzero entry below 2^-500 (a product could underflow) sets UB_r = inf.
    """
    n_hi = min(A.n_max, B.n_max)
    blocks = [_bounds_2_21(A, B, r0, min(r0 + _R_BLOCK, n_hi), n_hi) for r0 in range(0, n_hi, _R_BLOCK)]
    failures = [failure for failure, _, _ in blocks if failure is not None]
    if failures:
        n, r = min(failures)  # a_{n,r} = 0: the scanned value of row n is its numerator, and l its argmax
        return ConditionReport("2.21", math.inf, _scan_2_21(A, B, r, n, n + 1)[1:])
    threshold = max((top for _, top, _ in blocks), default=0.0)
    ub = np.concatenate([np.empty(0)] + [ub for _, _, ub in blocks])
    scan = np.flatnonzero((ub >= threshold) & (ub > 0.0)).tolist()
    best = [(0.0, 0, 0, 0)] + [_scan_2_21(A, B, r, r + 1, n_hi + 1) for r in scan]
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
    if n < 0:
        raise MatrixValidationError(f"remark1 needs n >= 0, got {n}; have rows up to {A.n_max}")
    if n > A.n_max:
        raise MatrixValidationError(f"remark1 needs rows up to {n}, have {A.n_max}")
    return math.fsum((A.prefix_sums(n) / np.arange(1.0, n + 2.0)).tolist())


def check_remark2_condition(B: TriangularMatrix) -> float:
    """max over 0 < s <= n-1 of sum_{r=s}^{n-1} sum_{k=s}^{r} |b_{r,r-k} - b_{r+1,r+1-k}|, n = B.n_max.

    Walking s down the subdiagonals of B adds the k = s term to every inner sum.
    Each step only adds nonnegative terms to inner[s:], and float addition and a
    correctly rounded sum are both monotone, so the maximum is the s = 1 sum.
    """
    inner = np.zeros(B.n_max)
    for s in range(B.n_max - 1, 0, -1):
        inner[s:] += np.abs(np.diff(B.dense.diagonal(-s)))
    return math.fsum(inner[1:].tolist())
