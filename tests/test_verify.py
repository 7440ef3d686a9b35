import math

import numpy as np
import pytest

from conjsum.conjugate import conjugate_at, conjugate_truncated, default_x_grid
from conjsum.functions import by_name, corpus
from conjsum.moduli import modulus_profile
from conjsum.summability import cesaro, identity_matrix
from conjsum.verify import (
    _averaged_modulus,
    _remark1_sum,
    _remark1_weights,
    corollary_grid,
    lhs_theorem1,
    norm_grid,
    pointwise_grid,
    ratio_of,
    rhs_theorem1,
    rhs_theorem2,
    transform_value,
)

PI = math.pi


def remark1_rhs(f, A, x, n, grid):
    """The R1.6 right-hand side at one (n, x), as pointwise_grid reports it."""
    return pointwise_grid("R1.6", f, A, A, [n], [x], grid)[0].rhs


def remark1_expression(A, n, values):
    return _remark1_sum(_remark1_weights(A, n), n, _averaged_modulus(values))


class TestRatioPolicy:
    def test_zero_over_zero(self):
        assert ratio_of(0.0, 0.0) == 0.0
        assert ratio_of(1e-14, 1e-15) == 0.0

    def test_positive_over_zero_flagged(self):
        assert math.isinf(ratio_of(0.1, 0.0))

    def test_plain_ratio(self):
        assert ratio_of(1.0, 4.0) == 0.25


class TestRhsTheorem1:
    def test_constant_gives_zero(self, grid):
        C = cesaro(8)
        assert rhs_theorem1(by_name("const"), C, 0.4, 8, grid) < 1e-12

    def test_delta_row_collapse(self, grid):
        # A = delta row at n: single inner average remains
        f, n, x = by_name("cos"), 6, 0.8
        I = identity_matrix(n)
        values = modulus_profile(f, x, n, "w_tilde_bar", grid).values
        want = float(np.mean(values))
        assert rhs_theorem1(f, I, x, n, grid) == pytest.approx(want, rel=1e-13)

    def test_cesaro_brute_force(self, grid):
        f, n, x = by_name("sin"), 4, 0.0
        C = cesaro(n)
        values = modulus_profile(f, x, n, "w_tilde_bar", grid).values
        want = math.fsum(
            (1.0 / (n + 1)) * math.fsum(values[: r + 1]) / (r + 1) for r in range(n + 1)
        )
        assert rhs_theorem1(f, C, x, n, grid) == pytest.approx(want, rel=1e-12)


class TestRhsRemark1:
    def test_constant_gives_zero(self, grid):
        assert remark1_rhs(by_name("const"), cesaro(4), 1.0, 4, grid) < 1e-12

    def test_n_zero_collapse(self, grid):
        # a_{0,0} w~(pi) + w~(pi) = 2 w~(pi)
        f, x = by_name("sin"), 0.5
        values = modulus_profile(f, x, 0, "w_tilde", grid).values
        got = remark1_rhs(f, cesaro(0), x, 0, grid)
        assert got == pytest.approx(2 * values[0], rel=1e-13)

    def test_cesaro_brute_force(self, grid):
        f, n, x = by_name("sin"), 4, 0.0
        C = cesaro(n)
        v = modulus_profile(f, x, n, "w_tilde", grid).values
        inner = [math.fsum(v[: r + 1]) / (r + 1) for r in range(n + 1)]
        a = 1.0 / (n + 1)
        want = math.fsum(
            (a + (r * a) / (r + 1)) * inner[r] for r in range(n + 1)
        ) + inner[n]
        assert remark1_rhs(f, C, x, n, grid) == pytest.approx(want, rel=1e-12)

    def test_uses_plain_not_bar_moduli(self, grid):
        # swapping bar values in changes the expression where they differ
        f, n, x = by_name("cos"), 8, PI / 2
        C = cesaro(n)
        plain = modulus_profile(f, x, n, "w_tilde", grid).values
        bar = modulus_profile(f, x, n, "w_tilde_bar", grid).values
        assert remark1_expression(C, n, plain) == pytest.approx(
            remark1_rhs(f, C, x, n, grid), rel=1e-13
        )
        assert remark1_expression(C, n, bar) > remark1_expression(C, n, plain)


class TestRhsTheorem2:
    def test_constant(self, grid):
        assert rhs_theorem2(by_name("const"), 0.2, 6, grid) < 1e-12

    def test_n_zero(self, grid):
        f, x = by_name("cos"), PI / 2
        values = modulus_profile(f, x, 0, "w_tilde", grid).values
        assert rhs_theorem2(f, x, 0, grid) == pytest.approx(values[0], rel=1e-13)

    def test_brute_force(self, grid):
        f, n, x = by_name("cos"), 8, PI / 2
        v = modulus_profile(f, x, n, "w_tilde", grid).values
        want = math.fsum(
            math.fsum(v[: r + 1]) / (r + 1) for r in range(n + 1)
        ) / (n + 1)
        assert rhs_theorem2(f, x, n, grid) == pytest.approx(want, rel=1e-12)


class TestLhsTheorem1:
    def test_constant_gives_zero(self, grid):
        C = cesaro(4)
        assert lhs_theorem1(by_name("const"), C, C, 0.9, 4, True, grid) < 1e-12
        assert lhs_theorem1(by_name("const"), C, C, 0.9, 4, False, grid) < 1e-12

    def test_sine_from_prior_oracles(self, grid):
        f, n, x = by_name("sin"), 8, PI / 3
        C = cesaro(n)
        value = transform_value(f, C, C, n, x, grid)
        assert lhs_theorem1(f, C, C, x, n, False, grid) == pytest.approx(
            abs(value - conjugate_at(f, x, grid=grid)), abs=1e-12
        )
        assert lhs_theorem1(f, C, C, x, n, True, grid) == pytest.approx(
            abs(value - conjugate_truncated(f, x, PI / (n + 1), grid)), abs=1e-12
        )

    def test_identity_collapse(self, grid):
        # A = delta row, B = identity: |S~_n f - conjugate|
        f, n, x = by_name("cos"), 5, 1.0
        I = identity_matrix(n)
        from conjsum.kernels import DEFAULT_COEFF_CUTOFF, partial_sum_table
        from conjsum.verify import coefficients

        sums = partial_sum_table(coefficients(f, grid, DEFAULT_COEFF_CUTOFF), n, x, conjugate=True)
        want = abs(sums[n] - conjugate_at(f, x, grid=grid))
        assert lhs_theorem1(f, I, I, x, n, False, grid) == pytest.approx(want, abs=1e-12)


class TestPointwiseReport:
    def test_report_fields(self, grid):
        C = cesaro(8)
        (rep,) = pointwise_grid("T1.5", by_name("sin"), C, C, [8], [PI / 3], grid)
        assert rep.theorem_id == "T1.5"
        assert rep.n == 8 and rep.x == PI / 3
        assert rep.lhs >= 0 and rep.rhs >= 0
        assert rep.ratio == pytest.approx(rep.lhs / rep.rhs)
        assert rep.metadata["function"] == "sin"

    def test_unknown_theorem(self, grid):
        C = cesaro(4)
        with pytest.raises(ValueError):
            pointwise_grid("T9", by_name("sin"), C, C, [4], [0.1], grid)

    def test_constant_reports_zero_ratio(self, grid):
        C = cesaro(4)
        for theorem in ("T1.51", "T1.5", "R1.6", "T2", "T2.trunc"):
            (rep,) = pointwise_grid(theorem, by_name("const"), C, C, [4], [0.7], grid)
            assert rep.ratio == 0.0


class TestNormReport:
    def test_constant_zero(self, grid):
        C = cesaro(4)
        (rep,) = norm_grid(by_name("const"), C, C, [4], 2.0, False, grid)
        assert rep.lhs < 1e-12 and rep.rhs < 1e-12 and rep.ratio == 0.0

    def test_sup_norm_is_grid_max(self, grid):
        f = by_name("sin")
        C = cesaro(8)
        (rep,) = norm_grid(f, C, C, [8], math.inf, False, grid)
        want = max(lhs_theorem1(f, C, C, x, 8, False, grid) for x in default_x_grid())
        assert rep.lhs == pytest.approx(want, abs=1e-10)

    def test_l2_brute_force(self, grid):
        f = by_name("sin")
        C = cesaro(8)
        (rep,) = norm_grid(f, C, C, [8], 2.0, True, grid)
        devs = [lhs_theorem1(f, C, C, x, 8, True, grid) for x in default_x_grid()]
        want = math.sqrt(PI / 16 * math.fsum(d * d for d in devs))
        assert rep.lhs == pytest.approx(want, rel=1e-12)
        assert rep.metadata["p"] == 2.0 and rep.metadata["truncated"] is True

    def test_p_validation(self, grid):
        with pytest.raises(ValueError):
            norm_grid(by_name("sin"), cesaro(4), cesaro(4), [4], 0.5, False, grid)


class TestCorollaryDecay:
    def test_constant_all_zero(self, grid):
        C = cesaro(32)
        reps = corollary_grid(by_name("const"), C, C, [4, 8, 16], [0.4], grid)
        assert all(r.lhs < 1e-12 for r in reps)
        assert all(r.ratio == 0.0 for r in reps)

    def test_sine_strictly_decreasing(self, grid):
        C = cesaro(128)
        reps = corollary_grid(by_name("sin"), C, C, [16, 32, 64, 128], [PI / 3], grid)
        devs = [r.lhs for r in reps]
        assert all(b < a for a, b in zip(devs, devs[1:]))
        assert reps[0].ratio == pytest.approx(1.0)
        for r in reps[1:]:
            assert r.ratio == pytest.approx(r.lhs / r.rhs)

    def test_sawtooth_decreasing_trend(self, grid):
        C = cesaro(64)
        reps = corollary_grid(by_name("sawtooth"), C, C, [8, 16, 32, 64], [PI / 2], grid)
        devs = [r.lhs for r in reps]
        assert devs[-1] < devs[0]

    def test_requires_increasing_n(self, grid):
        C = cesaro(16)
        with pytest.raises(ValueError):
            corollary_grid(by_name("sin"), C, C, [8, 8], [0.3], grid)


class TestRatioStability:
    """Boundedness surrogates for the remaining << statements."""

    NS = (8, 32, 128)

    def test_remark1_ratio_running_max(self, grid):
        C = cesaro(128)
        per_n = []
        for n in self.NS:
            best = 0.0
            for f in corpus():
                for x in default_x_grid()[::3]:
                    rhs = remark1_rhs(f, C, x, n, grid)
                    for truncated in (True, False):
                        r = ratio_of(lhs_theorem1(f, C, C, x, n, truncated, grid), rhs)
                        assert math.isfinite(r)
                        best = max(best, r)
            per_n.append(best)
        running = np.maximum.accumulate(per_n)
        assert running[-1] < 1.05 * running[0]

    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    def test_norm_ratio_running_max(self, p, grid):
        C, I = cesaro(128), identity_matrix(128)
        for A, B in ((C, C), (C, I)):
            per_n = []
            for n in self.NS:
                best = 0.0
                for f in corpus():
                    (rep,) = norm_grid(f, A, B, [n], p, truncated=False, grid=grid)
                    if math.isfinite(rep.ratio):
                        best = max(best, rep.ratio)
                per_n.append(best)
            running = np.maximum.accumulate(per_n)
            assert running[-1] < 1.05 * running[0]


class TestKernelFormConsistency:
    def test_matches_direct_lhs(self, grid):
        from conjsum.conjugate import deviation_kernel_form

        C, I = cesaro(32), identity_matrix(32)
        f = by_name("sin3")
        for A, B in ((C, C), (I, I)):
            for n in (4, 32):
                x = 5 * PI / 16
                dt, df = deviation_kernel_form(f, A, B, n, x, grid)
                assert abs(dt) == pytest.approx(
                    lhs_theorem1(f, A, B, x, n, True, grid), abs=1e-13
                )
                assert abs(df) == pytest.approx(
                    lhs_theorem1(f, A, B, x, n, False, grid), abs=1e-13
                )
