"""The dense, vectorized matrix code against the plain loops it replaced.

The reference functions below are the earlier per-row and per-index loop
implementations, kept verbatim as oracles. Every constant, witness and weight
must agree exactly (==, np.array_equal), not within a tolerance: the fast
versions do the same floating-point operations in the same order, and every
prefix sum is correctly rounded in both.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conjsum.summability import (
    TriangularMatrix,
    ab_weights,
    cesaro,
    check_condition_2_2,
    check_condition_2_21,
    check_condition_3_2,
    check_remark1_condition,
    check_remark2_condition,
    delta_at_zero,
    exact_cumsum,
    identity_matrix,
    nordlund,
)
from conjsum.verify import _averaged_modulus, _remark1_sum, _remark1_weights


def ref_ab_weights(A, B, n):
    a_row = A.row(n)
    weights = np.zeros(n + 1)
    for r in range(n + 1):
        weights[: r + 1] += a_row[r] * B.row(r)
    return weights


def ref_2_2(A):
    best, witness = 0.0, (0, 0)
    for n in range(A.n_max + 1):
        row = A.row(n).tolist()
        for s in range(n + 1):
            prefix = math.fsum(row[: s + 1])
            denom = (s + 1) * row[s]
            if denom == 0.0:
                if prefix > 0.0:
                    return math.inf, (n, s)
                continue
            val = prefix / denom
            if val > best:
                best, witness = val, (n, s)
    return best, witness


def ref_2_21(A, B):
    n_hi = min(A.n_max, B.n_max)
    best, witness = 0.0, (0, 0, 0)
    for n in range(1, n_hi + 1):
        a_row = A.row(n)
        for r in range(n):
            b_r = B.row(r)[::-1]
            b_r1 = B.row(r + 1)[::-1][: r + 1]
            nums = np.abs(a_row[r] * b_r - a_row[r + 1] * b_r1) * (r + 1) ** 2
            if a_row[r] == 0.0:
                if np.any(nums > 0.0):
                    return math.inf, (n, r, int(np.argmax(nums)))
                continue
            l = int(np.argmax(nums))
            val = nums[l] / a_row[r]
            if val > best:
                best, witness = val, (n, r, l)
    return best, witness


def ref_3_2(B):
    best, witness = 0.0, (0, 0)
    for r in range(B.n_max):
        diffs = np.abs(B.row(r)[::-1] - B.row(r + 1)[::-1][: r + 1]) * (r + 1) ** 2
        l = int(np.argmax(diffs))
        if diffs[l] > best:
            best, witness = diffs[l], (r, l)
    return float(best), witness


def ref_remark1(A, n):
    row = A.row(n).tolist()
    return math.fsum(math.fsum(row[: r + 1]) / (r + 1) for r in range(n + 1))


def ref_remark2(B):
    n = B.n_max
    if n < 2:
        return 0.0
    suffix = []
    for r in range(n):
        diffs = np.abs(B.row(r)[::-1] - B.row(r + 1)[::-1][: r + 1])
        suffix.append(np.concatenate([np.cumsum(diffs[::-1])[::-1], [0.0]]))
    best = 0.0
    for s in range(1, n):
        total = math.fsum(float(suffix[r][s]) for r in range(s, n))
        best = max(best, total)
    return best


def ref_remark1_expression(A, n, values):
    row = A.row(n).tolist()
    inner = np.cumsum(values) / (np.arange(len(values)) + 1.0)
    total = 0.0
    for r in range(n + 1):
        weight = row[r] + math.fsum(row[1 : r + 1]) / (r + 1)
        total += weight * inner[r]
    return total + float(inner[n])


def ref_nordlund_rows(p, n_max):
    w = np.asarray(p, dtype=float)
    return [w[: n + 1][::-1] / math.fsum(w[: n + 1].tolist()) for n in range(n_max + 1)]


def power_weights(beta, n_max):
    return [(k + 1.0) ** beta for k in range(n_max + 1)]


def builders(n_max):
    out = [cesaro(n_max), identity_matrix(n_max), delta_at_zero(n_max)]
    return out + [nordlund(power_weights(beta, n_max), n_max) for beta in (-0.75, 0.0, 0.5)]


def assert_matches_reference(A, B):
    rep = check_condition_2_2(A)
    assert (rep.min_constant, rep.witness) == ref_2_2(A)
    rep = check_condition_2_21(A, B)
    assert (rep.min_constant, rep.witness) == ref_2_21(A, B)
    rep = check_condition_3_2(B)
    assert (rep.min_constant, rep.witness) == ref_3_2(B)
    assert check_remark2_condition(B) == ref_remark2(B)
    n_hi = min(A.n_max, B.n_max)
    values = np.linspace(0.1, 2.0, n_hi + 1) ** 2
    for n in range(n_hi + 1):
        assert np.array_equal(ab_weights(A, B, n), ref_ab_weights(A, B, n))
        assert check_remark1_condition(A, n) == ref_remark1(A, n)
        got = _remark1_sum(_remark1_weights(A, n), n, _averaged_modulus(values[: n + 1]))
        assert got == ref_remark1_expression(A, n, values[: n + 1])


@pytest.mark.parametrize("n_max", [0, 1, 2, 17, 128])
def test_builders_match_loop_checkers(n_max):
    mats = builders(n_max)
    for A in mats:
        for B in mats if n_max <= 17 else (A, mats[0]):
            assert_matches_reference(A, B)


@pytest.mark.parametrize("beta", [-0.75, 0.0, 0.5])
def test_nordlund_rows_match_fsum_totals(beta):
    p = power_weights(beta, 128)
    N = nordlund(p, 128)
    for n, row in enumerate(ref_nordlund_rows(p, 128)):
        assert np.array_equal(N.row(n), row)


@st.composite
def stochastic_matrices(draw, max_n=12):
    """Row-stochastic matrices whose rows mix zeros, equal weights and random weights."""
    n_max = draw(st.integers(min_value=0, max_value=max_n))
    weight = st.one_of(st.just(0.0), st.integers(1, 3).map(float), st.floats(1e-3, 1.0))
    rows = []
    for n in range(n_max + 1):
        w = draw(st.lists(weight, min_size=n + 1, max_size=n + 1))
        if not any(w):
            w[draw(st.integers(0, n))] = 1.0
        total = math.fsum(w)
        rows.append([v / total for v in w])
    return TriangularMatrix(rows)


@settings(max_examples=100, deadline=None)
@given(A=stochastic_matrices(), B=stochastic_matrices())
def test_random_stochastic_matrices_match_loop_checkers(A, B):
    assert_matches_reference(A, B)
    assert_matches_reference(B, A)


def fsum_prefixes(values):
    return [math.fsum(values[: s + 1]) for s in range(len(values))]


@pytest.mark.parametrize(
    "values",
    [
        [],
        [0.0],
        [-0.0, 0.0, 1.0],
        [5e-324, 5e-324, 1e-310, 2.5e-308, 1.0],
        [1e300, 1.0, -1e300, 1e-300, 5e-324, 3.0],
        [1.0, 1e100, 1.0, -1e100, 0.1, 0.2, 0.3],
        [0.1] * 50,
        [1.0 / 3.0] * 7 + [0.0] * 3 + [2.0**-60] * 5,
    ],
)
def test_exact_cumsum_examples(values):
    assert exact_cumsum(values).tolist() == fsum_prefixes(values)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.just(0.0),
            st.floats(min_value=-1e300, max_value=1e300, allow_nan=False, allow_infinity=False),
            st.floats(min_value=-1e-300, max_value=1e-300, allow_nan=False, allow_infinity=False),
        ),
        max_size=40,
    )
)
def test_exact_cumsum_matches_fsum_prefixes(values):
    assert exact_cumsum(values).tolist() == fsum_prefixes(values)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_exact_cumsum_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        exact_cumsum([1.0, bad])
