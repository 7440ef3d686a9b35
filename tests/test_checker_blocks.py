"""Row blocks of the prefix sums and of checker 2.2 against per-row references.

exact_cumsum certifies each row of a block by TwoSum and sends only the rows it
cannot certify to the integer path; checker 2.2 scans row blocks and must keep
the per-row loop's first failure and first maximum in row-major order.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conjsum import summability
from conjsum.summability import TriangularMatrix, check_condition_2_2, exact_cumsum
from test_checker_equivalence import builders, fsum_prefixes, ref_2_2


def bits(values) -> list[int]:
    return np.asarray(values, dtype=float).ravel().view(np.int64).tolist()


def test_block_takes_the_integer_path_only_for_uncertified_rows(monkeypatch):
    rows = [
        [0.1, 0.2, 0.3, 0.4, 0.5],
        [1e300, 1.0, -1e300, 1e-300, 3.0],  # the lost 1.0 and 1e-300 do not add exactly
        [1.0 / 3.0] * 5,
        [-0.0, 0.0, 5e-324, 2.5e-308, 1.0],
    ]
    seen = []

    def counting(row):
        seen.append(row.tolist())
        return integer_cumsum(row)

    integer_cumsum = summability._integer_cumsum
    monkeypatch.setattr(summability, "_integer_cumsum", counting)
    got = exact_cumsum(rows)
    assert got.shape == (4, 5)
    assert seen == [rows[1]]
    for row, sums in zip(rows, got):
        assert bits(sums) == bits(fsum_prefixes(row))


def test_overflowing_row_takes_the_integer_path():
    with pytest.raises(OverflowError):  # as math.fsum([1.5e308, 1.5e308]) raises
        exact_cumsum([[1.0, 2.0], [1.5e308, 1.5e308]])


def test_zero_prefixes_are_positive_zero():
    assert bits(exact_cumsum([[-0.0, -0.0], [0.0, -0.0]])) == [0] * 4


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=600))
def test_row_like_inputs_match_fsum_prefixes(values):
    assert bits(exact_cumsum(values)) == bits(fsum_prefixes(values))


@pytest.mark.parametrize("n_max", [0, 63, 64, 65, 130])
def test_blocked_2_2_matches_loop(n_max):
    for A in builders(n_max):
        rep = check_condition_2_2(A)
        assert (rep.min_constant, rep.witness) == ref_2_2(A)


def identity_rows(n_max):
    return [[0.0] * n + [1.0] for n in range(n_max + 1)]


def test_first_failure_in_a_later_block():
    rows = identity_rows(130)
    rows[70] = [1.0] + [0.0] * 70  # a_{70,1} = 0 after a positive prefix
    rows[120] = [1.0] + [0.0] * 120
    A = TriangularMatrix(rows)
    assert summability._block_end(0, 131) <= 70
    assert ref_2_2(A) == (math.inf, (70, 1))
    rep = check_condition_2_2(A)
    assert (rep.min_constant, rep.witness) == (math.inf, (70, 1))


def test_tie_across_blocks_keeps_the_earlier_witness():
    # rows 10 and 100 end in (1 - t, t) with 11 * t_10 == 101 * t_100 exactly, so both
    # reach 1 / (1111 * 2**-12) at s = n, above every other row's maximum
    rows = identity_rows(130)
    for n, t in ((10, 101 * 2.0**-12), (100, 11 * 2.0**-12)):
        rows[n] = [0.0] * (n - 1) + [1.0 - t, t]
    A = TriangularMatrix(rows)
    assert summability._block_end(0, 131) <= 100
    rep = check_condition_2_2(A)
    assert (rep.min_constant, rep.witness) == ref_2_2(A) == (4096.0 / 1111.0, (10, 10))
