import math
import tracemalloc

import numpy as np
import pytest

from conjsum.cli import DEFAULT_EPS
from conjsum import conjugate
from conjsum.conjugate import (
    CONJUGATE_TOL,
    ConvergenceError,
    _truncated,
    conjugate_at,
    conjugate_truncated,
    conjugate_truncated_batch,
    default_x_grid,
    deviation_kernel_form,
)
from conjsum.functions import (
    DomainError,
    PeriodicFunction,
    SingularIntegrandError,
    by_name,
    corpus,
    eval_psi,
    integrate_graded,
    psi_breakpoints,
)
from conjsum.kernels import conj_dirichlet_matrix, fourier_coeffs, partial_sum_table
from conjsum.moduli import modulus_profile
from conjsum.summability import ab_weights, cesaro, delta_at_zero, identity_matrix
from conjsum.verify import transform_value

PI = math.pi
KERNEL_FORM_TOL = 1e-13  # kernel form against value - conjugate; 6.7e-16 measured

# the eps each x is asked for: the CLI column, every pi/(n+1) of a verify grid, and a tiny one
TABLE_EPS = np.array(sorted(set(DEFAULT_EPS) | {PI / (n + 1) for n in range(513)} | {1e-300}))


def per_eps_quadrature(f, x, eps, grid):
    """Reference: one graded quadrature of psi_x(t) (1/2) cot(t/2) over (eps, pi] for each (x, eps)."""
    cuts = [b for b in psi_breakpoints(f, x) if b > eps]
    q = integrate_graded(lambda t: eval_psi(f, x, t) * 0.5 / np.tan(0.5 * t), eps, PI, grid, breakpoints=cuts)
    return -q.value / PI


class TestTruncated:
    def test_eps_pi_is_empty_interval(self, funcs):
        assert conjugate_truncated(funcs["sin"], 0.7, PI) == 0.0

    def test_constant_vanishes(self, funcs):
        assert abs(conjugate_truncated(funcs["const"], 1.2, 1e-3)) < 1e-12

    def test_sine_near_limit(self, funcs):
        # analytic: -(1/pi) int 2 cos(x) sin(t) (1/2)cot(t/2) dt -> -cos(x)
        got = conjugate_truncated(funcs["sin"], 0.8, 1e-4)
        assert got == pytest.approx(-math.cos(0.8), abs=1e-3)

    def test_sine_truncation_closed_form(self, funcs):
        # exact value: -cos(x) * (1 - (eps + sin eps)/pi)
        x, eps = 0.8, 0.25
        want = -math.cos(x) * (1 - (eps + math.sin(eps)) / PI)
        assert conjugate_truncated(funcs["sin"], x, eps) == pytest.approx(want, abs=1e-10)

    def test_eps_beside_pi_is_not_a_difference_of_totals(self, funcs):
        # exact value (sin x / pi)(s - sin s) with s = pi - eps, about 2.9e-19 here
        x, eps = 0.3, 3.14159
        s = PI - eps
        want = math.sin(x) / PI * (s**3 / 6 - s**5 / 120 + s**7 / 5040)
        assert conjugate_truncated(funcs["cos"], x, eps) == pytest.approx(want, rel=1e-6, abs=0.0)

    def test_domain_errors(self, funcs):
        with pytest.raises(DomainError):
            conjugate_truncated(funcs["sin"], 0.0, 0.0)
        with pytest.raises(DomainError):
            conjugate_truncated(funcs["sin"], 0.0, 3.5)

    def test_continuity_in_eps(self, grid):
        # |f~(x,eps) - f~(x,eps')| <= int_{eps'}^{eps} |psi| (1/2)|cot(t/2)| dt
        for f in corpus():
            x = PI / 5
            e1, e2 = 0.5, 0.125
            lhs = abs(conjugate_truncated(f, x, e2) - conjugate_truncated(f, x, e1))
            bound = integrate_graded(
                lambda t: np.abs(eval_psi(f, x, t)) * 0.5 / np.abs(np.tan(0.5 * t)),
                e2,
                e1,
                grid,
            ).value
            assert lhs <= bound * (1 + 1e-9) + 1e-12


class TestSuffixTable:
    def test_matches_per_eps_quadrature(self, grid):
        # every (function, n <= 512) pair at one x, the CLI column and 1e-300 at every x
        for i, x in enumerate(default_x_grid()):
            eps = sorted(set(DEFAULT_EPS) | {1e-300} | {PI / (n + 1) for n in range(1 + i, 513, 30)})
            for f in corpus():
                want = [per_eps_quadrature(f, x, e, grid) for e in eps]
                got = conjugate_truncated_batch(f, x, eps, grid)
                assert np.max(np.abs(got - want)) <= 1e-14, (f.name, x)

    def test_full_conjugate_matches_quadrature_from_zero(self, grid):
        for f in corpus():
            for x in default_x_grid()[::3]:
                if not f.is_singular_at(x):
                    assert abs(conjugate_at(f, x, grid) - per_eps_quadrature(f, x, 0.0, grid)) <= 1e-14

    def test_batch_and_scalar_give_the_same_bits(self, grid):
        for f in corpus():
            for x in default_x_grid()[4::17]:
                batch = conjugate_truncated_batch(f, x, TABLE_EPS, grid)
                assert batch.tolist() == [conjugate_truncated(f, x, e, grid) for e in TABLE_EPS]
                shuffled = np.random.default_rng(7).permutation(len(TABLE_EPS))
                again = conjugate_truncated_batch(f, x, TABLE_EPS[shuffled], grid)
                assert again.tolist() == batch[shuffled].tolist()

    def test_every_eps_has_its_own_small_error_estimate(self, grid):
        for f in corpus():
            for x in default_x_grid():
                values, est_errors = _truncated(f, x, TABLE_EPS, grid)
                assert np.all(np.isfinite(values))
                assert np.all(est_errors <= CONJUGATE_TOL), (f.name, x, est_errors.max())

    def test_batch_rejects_eps_outside_domain(self, funcs):
        for bad in (0.0, -1.0, 4.0, math.nan, math.inf):
            with pytest.raises(DomainError, match="eps must lie in"):
                conjugate_truncated_batch(funcs["sin"], 0.5, [0.5, bad])

    def test_eps_pi_is_zero_in_a_batch(self, funcs):
        got = conjugate_truncated_batch(funcs["sin"], 0.7, [PI, 0.5])
        assert got[0] == 0.0 and math.copysign(1.0, got[0]) == 1.0


class TestConjugateAt:
    def test_overflowing_increment_is_a_numerical_failure(self):
        # psi_x of 1.5e308 sin overflows to inf; the moduli read the same increment
        f = PeriodicFunction(name="huge-sine", eval=lambda t: 1.5e308 * np.sin(t))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SingularIntegrandError, match="not finite"):
                conjugate_at(f, 0.3)
            with pytest.raises(SingularIntegrandError, match="not finite"):
                modulus_profile(f, 0.3, 8, "w_tilde")

    def test_sine(self, funcs):
        assert conjugate_at(funcs["sin"], PI / 3) == pytest.approx(-0.5, abs=1e-12)

    def test_cosine(self, funcs):
        got = conjugate_at(funcs["cos"], PI / 4)
        assert got == pytest.approx(0.7071067811865476, abs=1e-12)

    def test_sawtooth(self, funcs):
        got = conjugate_at(funcs["sawtooth"], PI / 2)
        assert got == pytest.approx(0.3465735902799726, abs=1e-12)

    def test_corpus_against_known(self, grid):
        for f in corpus():
            if f.known_conjugate is None:
                continue
            for x in default_x_grid()[::5]:
                want = float(f.known_conjugate.eval(np.asarray(x)))
                assert conjugate_at(f, x, grid=grid) == pytest.approx(want, abs=1e-12)

    def test_singular_point_rejected(self, funcs):
        with pytest.raises(DomainError):
            conjugate_at(funcs["sawtooth"], 0.0)

    def test_truncated_tends_to_limit(self, funcs):
        # exact gap for sin: f~(x) - f~(x, eps) = -cos(x) (eps + sin eps) / pi
        x = 0.9
        limit = conjugate_at(funcs["sin"], x)
        for eps in (1e-2, 1e-4, 1e-6):
            gap = conjugate_truncated(funcs["sin"], x, eps) - limit
            assert gap == pytest.approx(math.cos(x) * (eps + math.sin(eps)) / PI, abs=1e-12)

    def test_convergence_failure_carries_last_values(self, funcs):
        # 1e-9 from the jump, the graded mesh cannot resolve psi_x near t = x
        with pytest.raises(ConvergenceError) as err:
            conjugate_at(funcs["sawtooth"], 1e-9)
        value, est_error = err.value.last_values
        assert math.isfinite(value)
        assert est_error > CONJUGATE_TOL

    def test_sawtooth_close_to_jump(self, funcs):
        x = 1e-6
        want = math.log(2.0 * math.sin(0.5 * x))
        assert conjugate_at(funcs["sawtooth"], x) == pytest.approx(want, abs=1e-12)

    def test_default_x_grid(self):
        xs = default_x_grid()
        assert len(xs) == 30
        assert 0.0 not in xs
        assert xs == sorted(xs)
        assert max(xs) == pytest.approx(15 * PI / 16)


class TestDeviationKernelForm:
    def test_constant_gives_zero_pair(self, grid):
        C = cesaro(8)
        dt, df = deviation_kernel_form(by_name("const"), C, C, 4, 0.3, grid)
        assert abs(dt) < 1e-10 and abs(df) < 1e-10

    def test_sine_cesaro_matches_direct(self, grid):
        f = by_name("sin")
        C = cesaro(8)
        x = PI / 3
        dt, df = deviation_kernel_form(f, C, C, 8, x, grid)
        value = transform_value(f, C, C, 8, x, grid)
        assert dt == pytest.approx(value - conjugate_truncated(f, x, PI / 9, grid), abs=KERNEL_FORM_TOL)
        assert df == pytest.approx(value - conjugate_at(f, x, grid=grid), abs=KERNEL_FORM_TOL)

    def test_identity_collapses_to_partial_sum(self, grid):
        # A = delta row at n, B = identity: the transform is S~_n itself
        f = by_name("cos")
        I = identity_matrix(5)
        x = 1.0
        dt, _ = deviation_kernel_form(f, I, I, 5, x, grid)
        c = fourier_coeffs(f, 5, grid)
        want = partial_sum_table(c, 5, x, conjugate=True)[5] - conjugate_truncated(f, x, PI / 6, grid)
        assert dt == pytest.approx(want, abs=KERNEL_FORM_TOL)

    def test_overflowing_integral_is_a_numerical_failure(self, grid):
        # at x = 0 with the delta0 mean kernel (0), the full integrand is 1.6e308 cos^2(t/2):
        # finite at every node, but its integral over (0, pi] is 2.5e308
        f = PeriodicFunction(name="huge-sine", eval=lambda t: 8e307 * np.sin(t))
        D = delta_at_zero(1)
        with pytest.raises(SingularIntegrandError, match="not finite"), np.errstate(over="ignore"):
            deviation_kernel_form(f, D, D, 1, 0.0, grid)

    def test_blocked_kernel_matches_one_matrix(self, grid, monkeypatch):
        # up to 63 the kernel mean is one block, so the pair has the bits of weights @ matrix
        t = np.concatenate([np.linspace(1e-9, PI, 997), [1e-4, 2e-3]])
        C = cesaro(300)
        for n in (0, 1, 17, 63, 64, 200, 300):
            want = ab_weights(C, C, n) @ conj_dirichlet_matrix(n, t)
            got = conjugate._weighted_kernel(ab_weights(C, C, n), t)
            if n <= 63:
                assert np.array_equal(got, want), n
            assert np.allclose(got, want, rtol=1e-13, atol=1e-15), n
        f = by_name("hat")
        blocked = [deviation_kernel_form(f, C, C, n, 0.3, grid) for n in (1, 8, 63)]
        monkeypatch.setattr(conjugate, "_weighted_kernel", lambda w, t: w @ conj_dirichlet_matrix(len(w) - 1, t))
        assert blocked == [deviation_kernel_form(f, C, C, n, 0.3, grid) for n in (1, 8, 63)]

    def test_high_order_holds_no_kernel_matrix(self, grid):
        f, C = by_name("hat"), cesaro(1024)
        deviation_kernel_form(f, C, C, 4, 0.3, grid)  # the mesh and psi's breakpoints, outside the count
        tracemalloc.start()
        try:
            deviation_kernel_form(f, C, C, 1024, 0.3, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20, peak

    def test_direct_difference_agreement_sample(self, grid):
        C, I = cesaro(32), identity_matrix(32)
        for f in (by_name("sawtooth"), by_name("hat")):
            for A, B in ((C, C), (I, I)):
                for n in (2, 16):
                    x = -3 * PI / 16
                    dt, df = deviation_kernel_form(f, A, B, n, x, grid)
                    value = transform_value(f, A, B, n, x, grid)
                    trunc = conjugate_truncated(f, x, PI / (n + 1), grid)
                    full = conjugate_at(f, x, grid=grid)
                    assert dt == pytest.approx(value - trunc, abs=KERNEL_FORM_TOL)
                    assert df == pytest.approx(value - full, abs=KERNEL_FORM_TOL)
