"""Matrix checkers against an exact rational reference, at orders N <= 40.

The reference takes the stored doubles of each matrix as exact rationals
(fractions.Fraction) and computes every condition with no rounding.  Each
checker's constant must lie within a fixed number of ulps of the exact value,
ulps taken at the exact value rounded to a double.  The bounds were measured
over every N = 0..40 on the four matrices below and then fixed:

    checker   measured  bound
    2.1       0.25      0.5
    2.2       1.27      1.5    (the Norlund matrix)
    3.2       0.5       0.5
    remark1   0.56      0.75
    remark2   0.5625    0.75

A witness must be the exact argmax where the exact maximum is attained once
and clears every other exact value by more than twice the bound: then no
rounding can reorder them.  Otherwise the witness's exact value must be
within twice the bound of the maximum.  Cesaro 2.1 at N = 4..8 is such a
case: 5 * fl(1/5) exceeds 1 by less than a quarter ulp, so every row rounds
to 1.0 and the checker reports the first row, n = 0, where the exact maximum
is n = 4.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from conjsum import summability

ORDERS = [0, 1, 2, 8, 40]
MATRICES = {
    "cesaro": summability.cesaro,
    "identity": summability.identity_matrix,
    "delta0": summability.delta_at_zero,
    "nordlund": lambda N: summability.nordlund(np.arange(1.0, N + 2.0), N),  # p_k = k + 1
}
ULPS = {"2.1": 0.5, "2.2": 1.5, "3.2": 0.5, "remark1": 0.75, "remark2": 0.75}


def exact_rows(M):
    return [[Fraction(v) for v in M.row(n).tolist()] for n in range(M.n_max + 1)]


def exact_2_1(a):
    return [((n + 1) * a[n][n], (n,)) for n in range(len(a))]


def exact_2_2(a):
    """(value, (n, s)) in row-major order; a zero a_{n,s} under a positive prefix fails at once."""
    values = []
    for n, row in enumerate(a):
        prefix = Fraction(0)
        for s in range(n + 1):
            prefix += row[s]
            if row[s] == 0:
                if prefix > 0:
                    return [(math.inf, (n, s))]
                continue
            values.append((prefix / ((s + 1) * row[s]), (n, s)))
    return values


def exact_3_2(b):
    values = [(Fraction(0), (0, 0))]
    for r in range(len(b) - 1):
        values += [(abs(b[r][r - l] - b[r + 1][r + 1 - l]) * (r + 1) ** 2, (r, l)) for l in range(r + 1)]
    return values


def exact_remark1(a, n):
    return sum(sum(a[n][: r + 1]) / (r + 1) for r in range(n + 1))


def exact_remark2(b):
    n = len(b) - 1
    totals = [sum(abs(b[r][r - k] - b[r + 1][r + 1 - k]) for r in range(s, n) for k in range(s, r + 1))
              for s in range(1, n)]
    return max(totals, default=Fraction(0))


def ulps(got: float, exact) -> float:
    """|got - exact| in ulps of exact rounded to a double; inf and 0 must match exactly."""
    if exact == math.inf or exact == 0:
        return 0.0 if got == exact else math.inf
    return float(abs(Fraction(got) - exact) / Fraction(math.ulp(float(exact))))


def assert_constant_and_witness(report, values, bound):
    best = max(value for value, _ in values)
    assert ulps(report.min_constant, best) <= bound, (report, float(best))
    if best == math.inf:  # the first failure, the only value returned
        assert report.witness == values[0][1]
        return
    # a checker value is within bound ulps of its exact value, so a gap over 2 * bound keeps the order
    gaps = {witness: (best - value) / Fraction(math.ulp(float(best))) for value, witness in values}
    at_best = [witness for witness, gap in gaps.items() if gap == 0]
    if len(at_best) == 1 and min((gap for gap in gaps.values() if gap), default=math.inf) > 2 * bound:
        assert report.witness == at_best[0], (report, at_best)
    else:
        assert gaps[report.witness] <= 2 * bound, (report, at_best)


@pytest.mark.parametrize("N", ORDERS)
@pytest.mark.parametrize("name", sorted(MATRICES))
def test_checkers_match_the_exact_reference(name, N):
    M = MATRICES[name](N)
    a = exact_rows(M)
    assert_constant_and_witness(summability.check_condition_2_1(M), exact_2_1(a), ULPS["2.1"])
    assert_constant_and_witness(summability.check_condition_2_2(M), exact_2_2(a), ULPS["2.2"])
    assert_constant_and_witness(summability.check_condition_3_2(M), exact_3_2(a), ULPS["3.2"])
    for n in range(N + 1):
        assert ulps(summability.check_remark1_condition(M, n), exact_remark1(a, n)) <= ULPS["remark1"], n
    assert ulps(summability.check_remark2_condition(M), exact_remark2(a)) <= ULPS["remark2"]


def test_cesaro_2_1_witness_is_a_rounding_tie():
    # the case the docstring names: the exact maximum is at n = 4, too close to 1 for a double to tell
    a = exact_rows(summability.cesaro(8))
    values = exact_2_1(a)
    best = max(value for value, _ in values)
    assert [w for v, w in values if v == best] == [(4,)] and float(best) == 1.0
    assert summability.check_condition_2_1(summability.cesaro(8)).witness == (0,)
