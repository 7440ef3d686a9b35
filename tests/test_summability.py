import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conjsum.functions import GridSpec, by_name
from conjsum.kernels import DEFAULT_COEFF_CUTOFF, partial_sum_table
from conjsum.moduli import check_condition_2_511
from conjsum import summability
from conjsum.summability import (
    ROW_SUM_TOL,
    MatrixValidationError,
    ab_weights,
    cesaro,
    check_condition_2_1,
    check_condition_2_2,
    check_condition_2_21,
    check_condition_3_2,
    check_remark1_condition,
    check_remark2_condition,
    delta_at_zero,
    TriangularMatrix,
    exact_cumsum,
    identity_matrix,
    load_matrix_json,
    nordlund,
)
from conjsum.verify import coefficients, transform_value

PI = math.pi
EPS = 2.0**-53  # unit roundoff of a double
CLOSED_FORM_NS = (2, 3, 17, 128, 512)


def harmonic(n: int) -> float:
    return math.fsum(1.0 / k for k in range(1, n + 1))


class TestBuilders:
    def test_cesaro_rows(self):
        C = cesaro(3)
        assert np.allclose(C.row(3), [0.25, 0.25, 0.25, 0.25])
        assert list(C.row(0)) == [1.0]

    def test_identity_rows(self):
        I = identity_matrix(4)
        assert list(I.row(4)) == [0.0, 0.0, 0.0, 0.0, 1.0]

    def test_delta_at_zero_rows(self):
        D = delta_at_zero(3)
        assert list(D.row(3)) == [1.0, 0.0, 0.0, 0.0]

    def test_nordlund_uniform_equals_cesaro(self):
        N = nordlund(np.ones(9), 8)
        C = cesaro(8)
        for n in range(9):
            assert np.allclose(N.row(n), C.row(n), atol=1e-15)

    def test_nordlund_linear_weights(self):
        N = nordlund([1.0, 2.0, 3.0], 2)
        assert np.allclose(N.row(2), [3 / 6, 2 / 6, 1 / 6])

    def test_nordlund_rejects_nonpositive(self):
        with pytest.raises(MatrixValidationError):
            nordlund([1.0, 0.0], 1)

    @settings(max_examples=40, deadline=None)
    @given(n_max=st.integers(min_value=0, max_value=60))
    def test_builder_rows_are_stochastic(self, n_max):
        for M in (cesaro(n_max), identity_matrix(n_max), delta_at_zero(n_max)):
            for n in range(n_max + 1):
                row = M.row(n)
                assert np.all(row >= 0.0)
                assert abs(math.fsum(row.tolist()) - 1.0) <= 1e-12

    def test_from_rows_valid(self):
        M = TriangularMatrix([[1.0], [0.5, 0.5]])
        assert M.n_max == 1

    def test_from_rows_row_sum_error(self):
        with pytest.raises(MatrixValidationError, match="row 1"):
            TriangularMatrix([[1.0], [0.6, 0.6]])

    def test_from_rows_negativity_error(self):
        with pytest.raises(MatrixValidationError, match="negative"):
            TriangularMatrix([[1.0], [-0.1, 1.1]])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_from_rows_non_finite_error(self, bad):
        with pytest.raises(MatrixValidationError, match="row 1 has a non-finite entry"):
            TriangularMatrix([[1.0], [bad, 1.0]])

    def test_nordlund_rejects_non_finite(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(MatrixValidationError, match="finite"):
                nordlund([1.0, bad], 1)

    def test_dense_storage_is_read_only(self):
        C = cesaro(3)
        assert C.dense.shape == (4, 4)
        assert np.array_equal(np.triu(C.dense, 1), np.zeros((4, 4)))
        with pytest.raises(ValueError):
            C.row(2)[0] = 0.5

    def test_builders_reject_negative_order(self):
        for build in (cesaro, identity_matrix, delta_at_zero, lambda n: nordlund([1.0], n)):
            with pytest.raises(MatrixValidationError, match="needs at least one row"):
                build(-2)

    def test_from_rows_shape_error(self):
        with pytest.raises(MatrixValidationError, match="row 1"):
            TriangularMatrix([[1.0], [1.0]])

    def test_entry_above_diagonal_is_zero(self):
        C = cesaro(4)
        assert C.dense[2, 3] == 0.0


class TestRowValidation:
    @pytest.mark.parametrize(
        "rows, message",
        [
            ([[1.0], [0.5, 0.6], [-0.1, 0.6, 0.5], [math.nan, 0.5, 0.25, 0.25]], "row 1 sums to 1.1,"),
            ([[1.0], [0.5, 0.5], [-0.1, 1.1, 0.0], [1.0, 0.0, 0.0, math.inf]], "row 2 has a negative entry"),
            ([[1.0], [0.5, 0.5], [0.2, 0.2, 0.2], [math.inf, -1.0, 0.0, 1.0]], "row 2 sums to 0.6"),
            ([[1.0], [-1.0, math.nan], [2.0, 0.0, 0.0]], "row 1 has a non-finite entry"),
        ],
    )
    def test_first_bad_row_is_reported(self, rows, message):
        with pytest.raises(MatrixValidationError, match=message):
            TriangularMatrix(rows)

    def test_overflowing_row_sum_is_rejected(self):
        with pytest.raises(MatrixValidationError, match="row 2 sums to inf,"):
            TriangularMatrix([[1.0], [1.0, 0.0], [1.0, 1e308, 1e308]])

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_row_sum_near_tolerance_decided_by_fsum(self, sign):
        """Rows of ten entries near 1 +- ROW_SUM_TOL, where np.sum and fsum can round apart."""
        rows = [[0.0] * i + [1.0] for i in range(9)]
        last = 0.1 + sign * ROW_SUM_TOL
        for _ in range(300):
            last = np.nextafter(last, -np.inf)
        decided, np_sum_disagrees = set(), 0
        for _ in range(600):
            row = [0.1] * 9 + [float(last)]
            total = math.fsum(row)
            accept = abs(total - 1.0) <= ROW_SUM_TOL
            np_sum_disagrees += accept != (abs(float(np.sum(row)) - 1.0) <= ROW_SUM_TOL)
            if accept:
                assert TriangularMatrix(rows + [row]).n_max == 9
            else:
                with pytest.raises(MatrixValidationError, match=f"row 9 sums to {total!r},"):
                    TriangularMatrix(rows + [row])
            decided.add(accept)
            last = np.nextafter(last, np.inf)
        assert decided == {True, False}
        assert np_sum_disagrees > 0

    def test_prefix_sums_once_per_row(self, monkeypatch):
        # one exact_cumsum call per row block, and no row computed twice
        blocks = self.prefix_blocks(monkeypatch, first=None)
        assert blocks[0] == (0, 64) and len(blocks) == 4

    def test_prefix_sums_once_per_row_out_of_order(self, monkeypatch):
        # a block filled from row 70 first ends the later block from row 64 at row 70
        assert (64, 70) in self.prefix_blocks(monkeypatch, first=70)

    @staticmethod
    def prefix_blocks(monkeypatch, first):
        blocks = []

        def counting(values):
            rows, width = np.shape(values)
            blocks.append((width - rows, width))
            return exact_cumsum(values)

        A = nordlund((np.arange(131.0) + 1.0) ** -0.5, 130)
        monkeypatch.setattr(summability, "exact_cumsum", counting)
        if first is not None:
            check_remark1_condition(A, first)
        check_condition_2_2(A)
        for n in range(A.n_max + 1):
            check_remark1_condition(A, n)
        covered = [n for n0, n1 in blocks for n in range(n0, n1)]
        assert sorted(covered) == list(range(131))
        assert all(n1 - n0 <= 64 and (n1 - n0 == 1 or (n1 - n0) * n1 <= summability._BLOCK_ELEMENTS)
                   for n0, n1 in blocks)
        for n in range(A.n_max + 1):
            assert np.array_equal(A.prefix_sums(n), exact_cumsum(A.row(n)))
        assert np.array_equal(A.prefix_sums(-1), exact_cumsum(A.row(130)))
        with pytest.raises(ValueError):
            A.prefix_sums(3)[0] = 1.0
        return blocks


class TestMatrixJson:
    def test_round_trip(self, tmp_path):
        M = nordlund([3.0, 1.0, 2.0], 2)
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"name": M.name, "rows": [M.row(n).tolist() for n in range(3)]}))
        back = load_matrix_json(str(path))
        assert back.name == "nordlund"
        for n in range(3):
            assert np.array_equal(back.row(n), M.row(n))

    def test_invalid_rows_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "bad", "rows": [[1.0], [0.7, 0.2]]}))
        with pytest.raises(MatrixValidationError, match="row 1"):
            load_matrix_json(str(path))

    def test_missing_rows_field(self, tmp_path):
        path = tmp_path / "norows.json"
        path.write_text(json.dumps({"name": "x"}))
        with pytest.raises(MatrixValidationError):
            load_matrix_json(str(path))


class TestAbTransform:
    """The AB-transform T~_{n,A,B} f(x), as transform_value computes it."""

    def test_delta_row_collapse(self, grid):
        # A = delta row at n with B = identity leaves exactly S~_n
        f = by_name("sawtooth")
        I = identity_matrix(32)
        sums = partial_sum_table(coefficients(f, grid, DEFAULT_COEFF_CUTOFF), 32, 0.9, conjugate=True)
        for n in (0, 5, 32):
            got = transform_value(f, I, I, n, 0.9, grid)
            assert got == pytest.approx(sums[n], abs=1e-12)

    def test_cesaro_identity_of_sine(self, grid):
        # S~_0 = 0 and S~_k = -cos x for k >= 1, so the mean is -(n/(n+1)) cos x
        C, I = cesaro(16), identity_matrix(16)
        for n in (1, 4, 16):
            want = -(n / (n + 1)) * math.cos(0.37)
            assert transform_value(by_name("sin"), C, I, n, 0.37, grid) == pytest.approx(want, abs=1e-10)

    def test_double_cesaro_frozen(self, grid):
        # brute-force double sum oracle: -(1/5)(0 + 1/2 + 2/3 + 3/4 + 4/5)
        C = cesaro(8)
        got = transform_value(by_name("sin"), C, C, 4, 0.0, grid)
        assert got == pytest.approx(-0.5433333333333333, abs=1e-10)

    @pytest.mark.parametrize("n", [513, 1000, 4096])
    def test_orders_above_512_match_known_coefficients(self, n):
        # above 512 the transform reads its own N = n coefficients; against the
        # closed-form ones the values agree within 1e-13 (measured: at most 2.0e-15 on the corpus)
        C, I = cesaro(n), identity_matrix(n)
        for name, x in (("hat", 0.3), ("sawtooth", -2.2)):
            f = by_name(name)
            nu = np.arange(1, n + 1)
            a, b = np.array([f.known_coeffs.pair(int(k)) for k in nu]).T
            sums = np.concatenate(([0.0], np.cumsum(a * np.sin(nu * x) - b * np.cos(nu * x))))
            for A, B in ((C, C), (C, I)):
                want = math.fsum((ab_weights(A, B, n) * sums).tolist())
                assert transform_value(f, A, B, n, x) == pytest.approx(want, abs=1e-13), (name, A.name, B.name)

    def test_order_beyond_matrix(self, grid):
        with pytest.raises(MatrixValidationError):
            transform_value(by_name("sin"), cesaro(4), cesaro(16), 8, 0.0, grid)

    def test_weights_sum_to_one(self):
        w = ab_weights(cesaro(16), cesaro(16), 16)
        assert math.fsum(w.tolist()) == pytest.approx(1.0, abs=1e-13)


class TestCondition21:
    def test_cesaro_exactly_one(self):
        assert check_condition_2_1(cesaro(128)).min_constant == 1.0

    def test_identity_grows_with_n(self):
        rep = check_condition_2_1(identity_matrix(64))
        assert rep.min_constant == 65.0
        assert rep.witness == (64,)

    def test_delta_zero(self):
        rep = check_condition_2_1(delta_at_zero(32))
        assert rep.min_constant == 1.0
        assert rep.witness == (0,)


class TestCondition22:
    def test_cesaro_exactly_one(self):
        rep = check_condition_2_2(cesaro(128))
        assert rep.min_constant == 1.0

    def test_identity_brute_force(self):
        # all s < n have zero prefix over zero entry (skipped); s = n gives 1/(n+1)
        rep = check_condition_2_2(identity_matrix(64))
        want = max(
            1.0 / (n + 1) for n in range(65)
        )
        assert rep.min_constant == want == 1.0
        assert rep.witness == (0, 0)

    def test_zero_denominator_with_positive_prefix_fails(self):
        M = TriangularMatrix([[1.0], [1.0, 0.0]])
        rep = check_condition_2_2(M)
        assert math.isinf(rep.min_constant)
        assert rep.witness == (1, 1)

    def test_nordlund_brute_force(self):
        n_max = 64
        M = nordlund(np.arange(1.0, n_max + 2.0), n_max)
        best = 0.0
        for n in range(n_max + 1):
            row = M.row(n)
            for s in range(n + 1):
                if row[s] > 0:
                    best = max(best, math.fsum(row[: s + 1].tolist()) / ((s + 1) * row[s]))
        assert check_condition_2_2(M).min_constant == pytest.approx(best, rel=1e-13)


class TestCondition221:
    def test_double_cesaro_below_one(self):
        rep = check_condition_2_21(cesaro(128), cesaro(128))
        # analytic maximum is (r+1)/(r+2) at r = n-1, n = 128
        assert rep.min_constant == pytest.approx(128.0 / 129.0, rel=1e-12)
        assert rep.min_constant < 1.0

    def test_cesaro_identity_zero(self):
        rep = check_condition_2_21(cesaro(64), identity_matrix(64))
        assert rep.min_constant == 0.0

    def test_single_step_brute_force(self):
        A = TriangularMatrix([[1.0], [0.3, 0.7]])
        B = TriangularMatrix([[1.0], [0.4, 0.6]])
        # the only index is n=1, r=0, l=0: |a_{1,0} b_{0,0} - a_{1,1} b_{1,1}| / a_{1,0}
        want = abs(0.3 * 1.0 - 0.7 * 0.6) / 0.3
        rep = check_condition_2_21(A, B)
        assert rep.min_constant == pytest.approx(want, rel=1e-15)
        assert rep.witness == (1, 0, 0)


class TestCondition32:
    def test_identity_zero(self):
        assert check_condition_3_2(identity_matrix(128)).min_constant == 0.0

    def test_cesaro_below_one(self):
        # |1/(r+1) - 1/(r+2)| (r+1)^2 = (r+1)/(r+2), maximal at the last row pair
        rep = check_condition_3_2(cesaro(128))
        assert rep.min_constant == pytest.approx(128.0 / 129.0, rel=1e-12)
        assert rep.min_constant < 1.0

    def test_brute_force_agreement(self):
        B = nordlund([2.0, 1.0, 4.0, 3.0], 3)
        best = 0.0
        for r in range(3):
            for l in range(r + 1):
                diff = abs(B.dense[r, r - l] - B.dense[r + 1, r + 1 - l]) * (r + 1) ** 2
                best = max(best, diff)
        assert check_condition_3_2(B).min_constant == pytest.approx(best, rel=1e-15)

    @pytest.mark.parametrize("n_max", CLOSED_FORM_NS)
    def test_cesaro_closed_form(self, n_max):
        # K = N/(N+1) at (r, l) = (N-1, 0), within a relative 4 eps (N+1); 0.67 eps (N+1) measured
        rep = check_condition_3_2(cesaro(n_max))
        want = Fraction(n_max, n_max + 1)
        assert abs(Fraction(rep.min_constant) - want) <= 4 * EPS * (n_max + 1) * want
        assert rep.witness == (n_max - 1, 0)


class TestRemarks:
    def test_remark1_cesaro_collapses_to_one(self):
        assert check_remark1_condition(cesaro(3), 3) == 1.0

    def test_remark1_delta_zero_is_harmonic(self):
        for n in (0, 5, 16, 64):
            got = check_remark1_condition(delta_at_zero(n), n)
            assert got == pytest.approx(harmonic(n + 1), abs=1e-12)

    def test_remark1_n_zero(self):
        assert check_remark1_condition(identity_matrix(0), 0) == 1.0

    def test_remark2_identity_zero(self):
        assert check_remark2_condition(identity_matrix(64)) == 0.0

    def test_remark2_cesaro_brute_force(self):
        n = 32
        B = cesaro(n)
        best = 0.0
        for s in range(1, n):
            total = math.fsum(
                abs(B.dense[r, r - k] - B.dense[r + 1, r + 1 - k])
                for r in range(s, n)
                for k in range(s, r + 1)
            )
            best = max(best, total)
        assert check_remark2_condition(B) == pytest.approx(best, rel=1e-12)

    @pytest.mark.parametrize("n_max", CLOSED_FORM_NS)
    def test_remark2_cesaro_closed_form(self, n_max):
        # the maximum is at s = 1: H_N + 2/(N+1) - 2, within a relative 4 eps (N+1); 0.5 eps N measured
        want = sum(Fraction(1, k) for k in range(1, n_max + 1)) + Fraction(2, n_max + 1) - 2
        got = Fraction(check_remark2_condition(cesaro(n_max)))
        assert abs(got - want) <= 4 * EPS * (n_max + 1) * want

    def test_remark2_tiny_matrix(self):
        assert check_remark2_condition(cesaro(1)) == 0.0

    def test_remark2_equals_the_max_over_every_suffix(self):
        # the scan that takes an fsum at every s: its maximum is the s = 1 sum, bit for bit, on the
        # leading submatrix of rows 0..n
        def every_suffix(B, n):
            inner, best = np.zeros(max(n, 0)), 0.0
            for s in range(n - 1, 0, -1):
                inner[s:] += np.abs(np.diff(B.dense[: n + 1, : n + 1].diagonal(-s)))
                best = max(best, math.fsum(inner[s:].tolist()))
            return best

        rng = np.random.default_rng(7)
        n_max = 96
        raw = np.tril(rng.random((n_max + 1, n_max + 1)) ** 3)
        stochastic = TriangularMatrix([row[: i + 1] / math.fsum(row[: i + 1]) for i, row in enumerate(raw)])
        powers = nordlund([(k + 1.0) ** -0.75 for k in range(n_max + 1)], n_max)
        for B in (cesaro(n_max), identity_matrix(n_max), delta_at_zero(n_max), powers, stochastic):
            for n in (0, 1, 2, 17, n_max):
                leading = TriangularMatrix([B.row(r) for r in range(n + 1)])
                assert check_remark2_condition(leading) == every_suffix(B, n), n

    @pytest.mark.parametrize("n", [7, -1])
    def test_remark1_order_outside_the_rows(self, n):
        with pytest.raises(MatrixValidationError, match=rf"remark1 needs .*{n}.* 5$"):
            check_remark1_condition(cesaro(5), n)


class TestCheckerMonotonicity:
    def test_constants_are_running_maxima(self):
        # enlarging the scanned range can only raise the empirical constant
        small, large = 32, 96
        weights = np.arange(1.0, large + 2.0)
        for build in (cesaro, identity_matrix, lambda n: nordlund(weights, n)):
            A_small, A_large = build(small), build(large)
            assert (
                check_condition_2_1(A_large).min_constant
                >= check_condition_2_1(A_small).min_constant
            )
            assert (
                check_condition_2_2(A_large).min_constant
                >= check_condition_2_2(A_small).min_constant
            )
            assert (
                check_condition_3_2(A_large).min_constant
                >= check_condition_3_2(A_small).min_constant
            )
        assert (
            check_condition_2_21(cesaro(large), cesaro(large)).min_constant
            >= check_condition_2_21(cesaro(small), cesaro(small)).min_constant
        )


class TestCondition2511:
    @pytest.mark.parametrize("refinement", [8, 24, 64])
    def test_known_singular_point_is_infinite(self, refinement):
        # int_0 |psi_x(t)|/t dt diverges at sawtooth's jump, so no grading depth gives a finite ratio
        assert check_condition_2_511(by_name("sawtooth"), 0.0, 16, GridSpec(refinement=refinement)) == math.inf

    def test_constant_zero_over_zero(self, grid):
        assert check_condition_2_511(by_name("const"), 0.4, 8, grid) == 1.0

    def test_sine_small_angle_limit(self, grid):
        got = check_condition_2_511(by_name("sin"), 0.0, 511, grid)
        assert got == pytest.approx(2.0 / PI, abs=1e-4)

    def test_cosine_finite_ratio(self, grid):
        # |psi| = 2 sin u at x = pi/2; analytic sides:
        # lhs = (2/pi) Si(h), rhs = 2 (1 - cos h)/h at h = pi/17
        h = PI / 17.0
        from test_functions import sine_integral

        want = (2.0 / PI) * sine_integral(h) / (2.0 * (1.0 - math.cos(h)) / h)
        got = check_condition_2_511(by_name("cos"), PI / 2, 16, grid)
        assert type(got) is float
        assert got == pytest.approx(want, rel=1e-8)
