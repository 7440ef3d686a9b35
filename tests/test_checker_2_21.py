"""Checker 2.21: the pruned scan against exact rationals, closed forms and the loop reference.

check_condition_2_21 evaluates, for every column r, the two rows of smallest and largest
t_n = a_{n,r+1}/a_{n,r}, takes the largest of those values as a threshold, and scans row by
row only the r whose certified bound UB_r reaches it.  The tests below hold UB_r to exact
arithmetic, the constants to closed forms, every constant and witness to the loop reference
ref_2_21 (==), and the number of scanned columns to what the pruning promises.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conjsum import summability
from conjsum.summability import TriangularMatrix, cesaro, check_condition_2_21, delta_at_zero, identity_matrix, nordlund
from test_checker_equivalence import ref_2_21

EPS = 2.0**-53  # unit roundoff of a double


def same_as_reference(A, B):
    rep = check_condition_2_21(A, B)
    assert (rep.min_constant, rep.witness) == ref_2_21(A, B)
    return rep


def upper_bounds(A, B):
    n_hi = min(A.n_max, B.n_max)
    blocks = range(0, n_hi, summability._R_BLOCK)
    return np.concatenate([np.empty(0)] + [
        summability._bounds_2_21(A, B, r0, min(r0 + summability._R_BLOCK, n_hi), n_hi)[2] for r0 in blocks
    ])


def linear_norlund(n_max):
    return nordlund([k + 1.0 for k in range(n_max + 1)], n_max)


SMALL = {"cesaro": cesaro, "identity": identity_matrix, "delta0": delta_at_zero, "norlund k+1": linear_norlund}


@pytest.mark.parametrize("n_max", [1, 2, 17, 24])
@pytest.mark.parametrize("name_a", sorted(SMALL))
@pytest.mark.parametrize("name_b", sorted(SMALL))
def test_float_values_lie_within_the_error_term_of_their_bound(name_a, name_b, n_max):
    # exact value E = (r+1)^2 max_l |u_l - t_n v_l| of the double entries, against the rounded value F
    A, B = SMALL[name_a](n_max), SMALL[name_b](n_max)
    ub = upper_bounds(A, B)
    for r in range(n_max):
        c = (r + 1) ** 2
        u, v = B.row(r)[::-1], B.row(r + 1)[::-1][: r + 1]
        live = [n for n in range(r + 1, n_max + 1) if A.dense[n, r] > 0.0]
        if not live:
            continue
        floats, exact = {}, {}
        for n in live:
            a, a_next = A.dense[n, r], A.dense[n, r + 1]
            floats[n] = float((np.abs(a * u - a_next * v) * c).max() / a)
            t = Fraction(a_next) / Fraction(a)
            exact[n] = c * max(abs(Fraction(x) - t * Fraction(y)) for x, y in zip(u.tolist(), v.tolist()))
        t_float = {n: A.dense[n, r + 1] / A.dense[n, r] for n in live}
        lo, hi = min(live, key=t_float.get), max(live, key=t_float.get)
        top = max(floats[lo], floats[hi])
        err = 16 * EPS * (Fraction(top) + c * (Fraction(u.max()) + Fraction(t_float[hi]) * Fraction(v.max())))
        for n in live:
            assert abs(Fraction(floats[n]) - exact[n]) <= err, (n, r)
            assert floats[n] <= ub[r] and exact[n] <= Fraction(ub[r]), (n, r)


@pytest.mark.parametrize("n_max", [1, 2, 17, 128, 384, 512, 1024])
def test_cesaro_closed_forms(n_max):
    # at (N, N-1, l = 0) the checked value is N/(N+1), the one difference cancelling to a relative
    # rounding of at most 4 eps (2N + 1)
    C = cesaro(n_max)
    rep = check_condition_2_21(C, C)
    want = n_max / (n_max + 1)
    assert abs(rep.min_constant - want) <= 4 * EPS * (2 * n_max + 1) * want
    assert rep.witness == (n_max, n_max - 1, 0)
    rep = check_condition_2_21(C, identity_matrix(n_max))
    assert (rep.min_constant, rep.witness) == (0.0, (0, 0, 0))


def bumped_identity(n_max, j1, j2):
    """Identity rows but row j1 = e_{j1-1} and row j2 = (1/4, 3/4) on j2-1, j2: column j1 reaches about
    (j1+1)^2 and column j2 about (j2+1)^2/4 against Cesaro A."""
    rows = [[0.0] * n + [1.0] for n in range(n_max + 1)]
    rows[j1] = [0.0] * (j1 - 1) + [1.0, 0.0]
    rows[j2] = [0.0] * (j2 - 1) + [0.25, 0.75]
    return TriangularMatrix(rows)


@pytest.mark.parametrize("k, ulps, witness", [(14, 0, (21, 13, 0)), (12, 1, (24, 23, 0))])
def test_maxima_of_two_blocks_tie_or_differ_by_one_ulp(k, ulps, witness):
    A, B = cesaro(40), bumped_identity(40, k - 1, 2 * k - 1)
    first, second = (summability._scan_2_21(A, B, r, r + 1, 41) for r in (k - 1, 2 * k - 1))
    assert (k - 1) // summability._R_BLOCK < (2 * k - 1) // summability._R_BLOCK
    assert second[0] == np.nextafter(first[0], math.inf) if ulps else second[0] == first[0]
    assert same_as_reference(A, B).witness == witness


def test_first_failure_in_a_later_column_block():
    rows = [row.tolist() for row in map(cesaro(130).row, range(131))]
    rows[40] = [1.0 / 40] * 20 + [0.0] + [1.0 / 40] * 20  # a_{40,20} = 0 < a_{40,21}
    rows[60] = [0.5, 0.0] + [0.5 / 59] * 59  # fails at (60, 1), in the first block but later in (n, r) order
    A = TriangularMatrix(rows)
    assert 20 >= summability._R_BLOCK
    assert same_as_reference(A, cesaro(130)).witness[:2] == (40, 20)


@pytest.mark.parametrize("tiny", [5e-324, 1e-310, 2.0**-600, 2.0**-501])
def test_entries_below_the_product_range_force_the_scan(tiny, monkeypatch):
    scanned = count_scans(monkeypatch)
    rows = [row.tolist() for row in map(cesaro(40).row, range(41))]
    rows[30] = [tiny] * 10 + [(1.0 - 10 * tiny) / 21] * 21
    A = TriangularMatrix(rows)
    with np.errstate(over="ignore"):  # a value over a subnormal a_{30,r} may be inf in both
        same_as_reference(A, A)
    same_as_reference(cesaro(40), A)
    assert np.isinf(upper_bounds(A, A)[:10]).all() and np.isinf(upper_bounds(cesaro(40), A)[29:31]).all()
    assert scanned


def test_threshold_is_a_scanned_value_when_every_t_of_a_column_overflows():
    # column 1: a_{n,1} = 5e-324 under a_{n,2} ~ 1/n, so every t_n is inf; its diagonal row n = 1,
    # outside the scan, would read 2.0 and hide the true maximum 1.53 of column 6
    rows = [[1.0], [0.5, 0.5]] + [[(1.0 - 5e-324) / n, 5e-324] + [(1.0 - 5e-324) / n] * (n - 1) for n in range(2, 21)]
    b_rows = [[1.0], [0.5, 0.5]] + [[0.0] * (m - 2) + [1.0, 0.0, 0.0] for m in range(2, 21)]
    b_rows[6][3:5] = [2.0**-5, 1.0 - 2.0**-5]
    rep = same_as_reference(TriangularMatrix(rows), TriangularMatrix(b_rows))
    assert rep.witness == (15, 6, 2)


def count_scans(monkeypatch) -> list[int]:
    scanned, scan = [], summability._scan_2_21

    def counting(A, B, r, n0, n1):
        scanned.append(r)
        return scan(A, B, r, n0, n1)

    monkeypatch.setattr(summability, "_scan_2_21", counting)
    return scanned


def test_all_zero_pair_scans_nothing(monkeypatch):
    scanned = count_scans(monkeypatch)
    for n_max in (0, 1, 16, 17, 130):
        rep = same_as_reference(cesaro(n_max), identity_matrix(n_max))
        assert (rep.min_constant, rep.witness) == (0.0, (0, 0, 0))
    assert scanned == []


def bench_norlund(seed, n_max):
    """The seeded Norlund matrix of the check-matrix benchmark: p_k = (k+1)^beta, beta in [-0.75, 0.75]."""
    beta = random.Random(seed).uniform(-0.75, 0.75)
    return nordlund([(k + 1.0) ** beta for k in range(n_max + 1)], n_max)


def test_builtin_and_bench_pairs_scan_at_most_one_block(monkeypatch):
    # the pruning leaves at most one block of columns to the row-by-row scan; a regression to
    # the cubic scan of every column shows here, not only in timings
    scanned = count_scans(monkeypatch)
    C = cesaro(384)
    pairs = [(C, C), (C, identity_matrix(384))] + [(N, N) for N in map(bench_norlund, range(21, 41), [384] * 20)]
    for A, B in pairs:
        scanned.clear()
        check_condition_2_21(A, B)
        assert len({r // summability._R_BLOCK for r in scanned}) <= 1, scanned


def random_rows(rng, n_max, kind):
    rows = []
    for n in range(n_max + 1):
        if kind == "prefix":  # uniform on a prefix: zeros that never fail, t in {0, 1}
            w = (np.arange(n + 1) <= rng.integers(0, n + 1)).astype(float)
        elif kind == "integers":  # zeros and equal neighbours
            w = rng.integers(0, 4, n + 1).astype(float)
        elif kind == "smooth":
            w = rng.uniform(0.5, 1.5) + 0.01 * rng.standard_normal(n + 1).cumsum()
        else:
            w = rng.uniform(1e-3, 1.0, n + 1)
        w = np.maximum(w, 0.0)
        if not w.any():
            w[rng.integers(0, n + 1)] = 1.0
        rows.append(w / math.fsum(w.tolist()))
    return TriangularMatrix(rows)


KINDS = ["prefix", "integers", "smooth", "uniform"]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 140), st.integers(0, 2**32 - 1), st.sampled_from(KINDS), st.sampled_from(KINDS))
def test_random_pairs_across_block_edges_match_the_loop(n_max, seed, kind_a, kind_b):
    rng = np.random.default_rng(seed)
    A, B = random_rows(rng, n_max, kind_a), random_rows(rng, n_max, kind_b)
    same_as_reference(A, B)
    same_as_reference(B, A)
    same_as_reference(A, A)
