import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conjsum.functions import PeriodicFunction, _insert_points, by_name, corpus, gl_rule
from conjsum.kernels import (
    CutoffError,
    SingularKernelError,
    conj_dirichlet_complement,
    conj_dirichlet_matrix,
    conj_partial_sum_integral,
    fourier_coeffs,
    partial_sum_table,
)

PI = math.pi
SRC = Path(__file__).resolve().parents[1] / "src"

COEFF_NS = (1, 2, 5, 31, 32, 33, 65, 97, 128, 300, 512, 2000)


def direct_coeffs(fs, N: int, grid) -> list[np.ndarray]:
    """[a0, a_1..a_N, b_1..b_N] of each f by one cos/sin matmul over every node.

    The direct quadrature on the panels fourier_coeffs uses, with the breakpoints
    inserted as boundaries.  Functions whose breakpoints leave the same boundaries
    share one phase table, built 256 rows at a time to bound its memory.
    """
    panels = max(grid.m // 8, math.ceil(1.3 * max(N, 1)), 16)
    base = np.linspace(-PI, PI, panels + 1)
    groups = {}
    for i, f in enumerate(fs):
        bounds = _insert_points(base, f.breakpoints)
        groups.setdefault(bounds.tobytes(), (bounds, []))[1].append(i)
    out = [None] * len(fs)
    for bounds, members in groups.values():
        nodes, weights = gl_rule(bounds)
        values = np.stack([np.asarray(fs[i](nodes), dtype=float) * weights for i in members], axis=1)
        a, b = [], []
        for start in range(0, N + 1, 256):
            phases = np.multiply.outer(np.arange(start, min(start + 256, N + 1), dtype=float), nodes)
            a.append(np.cos(phases) @ values)
            b.append(np.sin(phases) @ values)
        a, b = np.concatenate(a) / PI, np.concatenate(b) / PI
        for col, i in enumerate(members):
            out[i] = np.concatenate([a[:, col], b[1:, col]])
    return out


def run_python(args, blas_threads: int) -> subprocess.CompletedProcess:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads), OMP_NUM_THREADS=str(blas_threads))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env.pop("CONJSUM_GRID_M", None)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, timeout=300)


def direct_kernel(k: int, t: float) -> float:
    """Direct-summation oracle for the conjugate Dirichlet kernel."""
    return math.fsum(math.sin(nu * t) for nu in range(k + 1))


def kernel_row(k: int, t) -> np.ndarray:
    """Row k of conj_dirichlet_matrix at the points t."""
    return conj_dirichlet_matrix(k, np.atleast_1d(np.asarray(t, dtype=float)))[k]


def kernel_grid():
    t = PI * np.arange(1, 513) / 512.0
    return t[np.abs(np.sin(t / 2)) >= 1e-6]


class TestConjDirichlet:
    def test_vanishes_at_zero(self):
        assert kernel_row(5, 0.0)[0] == 0.0

    def test_small_order_frozen(self):
        # direct summation: sin(pi/2) + sin(pi) = 1
        assert kernel_row(2, PI / 2)[0] == pytest.approx(1.0, abs=1e-12)

    def test_closed_form_matches_direct_sum(self):
        t = 0.37
        assert kernel_row(64, t)[0] == pytest.approx(direct_kernel(64, t), abs=1e-10)

    @pytest.mark.parametrize("k", [0, 1, 7, 33, 128])
    def test_grid_agreement(self, k):
        t = kernel_grid()[::17]
        got = kernel_row(k, t)
        want = np.array([direct_kernel(k, float(ti)) for ti in t])
        assert np.max(np.abs(got - want)) < 1e-10

    def test_near_singular_fallback(self):
        # |sin(t/2)| < 1e-8 switches to the direct sum; at t = 2*pi that is 0
        assert kernel_row(12, 2 * PI)[0] == pytest.approx(0.0, abs=1e-12)
        t = 1e-9
        assert kernel_row(12, t)[0] == pytest.approx(direct_kernel(12, t), abs=1e-12)

    def test_matrix_rows_match_scalar(self):
        # row k does not depend on how many rows are built, near 2*pi included
        t = np.concatenate([kernel_grid()[::31], [2 * PI, 1e-9, -3e-9]])
        mat = conj_dirichlet_matrix(16, t)
        for k in (0, 3, 16):
            assert np.array_equal(mat[k], kernel_row(k, t))
            assert np.max(np.abs(mat[k] - [direct_kernel(k, float(ti)) for ti in t])) < 1e-12

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            conj_dirichlet_matrix(-1, np.array([0.5]))
        with pytest.raises(ValueError):
            conj_dirichlet_matrix(3, np.array([0.5]), k_min=4)

    def test_first_row_keeps_the_bits_of_the_full_matrix(self):
        t = np.concatenate([kernel_grid()[::31], [2 * PI, 1e-9, -3e-9]])
        full = conj_dirichlet_matrix(16, t)
        for k_min in (0, 1, 7, 16):
            assert np.array_equal(conj_dirichlet_matrix(16, t, k_min=k_min), full[k_min:])


class TestConjDirichletComplement:
    def test_k0_at_pi(self):
        assert conj_dirichlet_complement(0, PI) == pytest.approx(0.0, abs=1e-15)

    def test_identity_with_cotangent(self):
        # D~o_k(t) = (1/2) cot(t/2) - sum_{nu<=k} sin(nu t)
        k, t = 3, 1.2
        want = 0.5 / math.tan(0.6) - direct_kernel(k, t)
        assert conj_dirichlet_complement(k, t) == pytest.approx(want, abs=1e-10)

    def test_lemma_bound_at_small_t(self):
        k = 10
        t = PI / 22.0
        assert abs(conj_dirichlet_complement(k, t)) <= (PI / (2 * t)) * (1 + 1e-9)

    def test_singular_argument_raises(self):
        with pytest.raises(SingularKernelError):
            conj_dirichlet_complement(4, 0.0)
        with pytest.raises(SingularKernelError):
            conj_dirichlet_complement(4, 2 * PI)


class TestLemma1Bounds:
    def test_all_four_bounds(self):
        slack = 1 + 1e-9
        t_half = kernel_grid()
        t_half = t_half[t_half <= PI / 2]
        t_wide = np.linspace(-2 * PI, 2 * PI, 257)
        t_wide = t_wide[np.abs(np.sin(t_wide / 2)) >= 1e-6]
        for k in (0, 1, 5, 32, 128):
            d = np.abs(kernel_row(k, t_half))
            dc = np.abs(np.array([conj_dirichlet_complement(k, float(t)) for t in t_half]))
            assert np.all(dc <= PI / (2 * t_half) * slack)
            assert np.all(d <= PI / t_half * slack)
            dw = np.abs(kernel_row(k, t_wide))
            assert np.all(dw <= 0.5 * k * (k + 1) * np.abs(t_wide) * slack + 1e-15)
            assert np.all(dw <= (k + 1) * slack)


class TestFourierCoeffs:
    def test_cosine(self, grid):
        c = fourier_coeffs(by_name("cos"), 8, grid)
        want = np.zeros(8)
        want[0] = 1.0
        assert np.max(np.abs(c.a - want)) < 1e-10
        assert np.max(np.abs(c.b)) < 1e-10
        assert abs(c.a0) < 1e-10

    def test_sin3(self, grid):
        c = fourier_coeffs(by_name("sin3"), 8, grid)
        want = np.zeros(8)
        want[2] = 1.0
        assert np.max(np.abs(c.b - want)) < 1e-10
        assert np.max(np.abs(c.a)) < 1e-10

    def test_sawtooth_harmonics(self, grid):
        c = fourier_coeffs(by_name("sawtooth"), 32, grid)
        ks = np.arange(1, 33)
        assert np.max(np.abs(c.b - 1.0 / ks)) < 1e-13
        assert np.max(np.abs(c.a)) < 1e-13

    def test_n_zero(self, grid):
        c = fourier_coeffs(by_name("const"), 0, grid)
        assert c.N == 0
        assert c.a0 == pytest.approx(2.0, abs=1e-12)

    def test_bytes_do_not_depend_on_blas_threads(self):
        args = ["-m", "conjsum.cli", "coeffs", "--function", "hat", "--n", "700"]
        one, two = run_python(args, 1), run_python(args, 2)
        assert one.returncode == two.returncode == 0, (one.stderr, two.stderr)
        assert len(one.stdout.splitlines()) == 702
        assert one.stdout == two.stdout

    def test_fft_matches_direct_quadrature(self, grid):
        # odd and even panel counts; breakpoints on panel boundaries and inside panels
        fs = [by_name(name) for name in ("const", "sin3", "sawtooth", "hat")]
        for N in COEFF_NS:
            for f, want in zip(fs, direct_coeffs(fs, N, grid)):
                c = fourier_coeffs(f, N, grid)
                got = np.concatenate([[c.a0], c.a, c.b])
                assert np.max(np.abs(got - want)) <= 5e-14, (f.name, N)

    def test_breakpoint_within_tolerance_of_panel_boundary_cuts_nothing(self, grid):
        # at N = 32 the default grid has 128 panels, and -pi/2 is one of their boundaries
        want = fourier_coeffs(by_name("cos"), 32, grid)
        for t in (-PI / 2 - 2e-15, -PI / 2 + 2e-15):
            got = fourier_coeffs(PeriodicFunction(name="cos", eval=np.cos, breakpoints=(t,)), 32, grid)
            assert np.array_equal(got.a, want.a) and np.array_equal(got.b, want.b), t

    @pytest.mark.parametrize("N", [128, 512, 2000])
    def test_corpus_matches_known_coeffs(self, N, all_functions, grid):
        nu = np.arange(1, N + 1)
        for f in all_functions:
            c = fourier_coeffs(f, N, grid)
            known = np.array([f.known_coeffs.pair(int(k)) for k in nu])
            assert abs(c.a0 - f.known_coeffs.a0) <= 5e-14, f.name
            assert np.max(np.abs(c.a - known[:, 0])) <= 5e-14, f.name
            assert np.max(np.abs(c.b - known[:, 1])) <= 5e-14, f.name


class TestPartialSums:
    def test_order_zero_is_mean(self, grid):
        c = fourier_coeffs(by_name("hat"), 4, grid)
        assert partial_sum_table(c, 0, 0.123, conjugate=False)[0] == pytest.approx(c.a0 / 2)

    def test_cosine_reproduced(self, grid):
        c = fourier_coeffs(by_name("cos"), 4, grid)
        assert partial_sum_table(c, 1, 0.4, conjugate=False)[1] == pytest.approx(math.cos(0.4), abs=1e-10)

    def test_sawtooth_partial_frozen(self, grid):
        # series oracle: sum_{nu<=8} sin(nu pi/2)/nu
        c = fourier_coeffs(by_name("sawtooth"), 8, grid)
        assert partial_sum_table(c, 8, PI / 2, conjugate=False)[8] == pytest.approx(0.7238095238095238, abs=1e-6)

    def test_conjugate_empty_sum(self, grid):
        c = fourier_coeffs(by_name("sin"), 4, grid)
        assert partial_sum_table(c, 0, 1.23, conjugate=True)[0] == 0.0

    def test_conjugate_of_sine(self, grid):
        c = fourier_coeffs(by_name("sin"), 4, grid)
        table = partial_sum_table(c, 4, 1.1, conjugate=True)
        for k in (1, 2, 4):
            assert table[k] == pytest.approx(-math.cos(1.1), abs=1e-10)

    def test_conjugate_of_cosine(self, grid):
        c = fourier_coeffs(by_name("cos"), 4, grid)
        assert partial_sum_table(c, 1, 2.0, conjugate=True)[1] == pytest.approx(math.sin(2.0), abs=1e-10)

    def test_cutoff_error(self, grid):
        c = fourier_coeffs(by_name("sin"), 4, grid)
        with pytest.raises(CutoffError):
            partial_sum_table(c, 5, 0.0, conjugate=False)
        with pytest.raises(CutoffError):
            partial_sum_table(c, 5, 0.0, conjugate=True)


class TestConjPartialSumIntegral:
    @staticmethod
    def reference(f, k, x, grid):
        """The kernel-form integral with row k read from every row 0..k."""
        panels = max(grid.m // 8, 4 * (k + 1), 16)
        shifted = [(t0 - x) % (2 * PI) for t0 in f.breakpoints]
        cuts = shifted + [t - 2 * PI for t in shifted]
        nodes, weights = gl_rule(_insert_points(np.linspace(-PI, PI, panels + 1), cuts))
        kernel = conj_dirichlet_matrix(k, nodes)[k]
        return float(-np.dot(weights, np.asarray(f(x + nodes)) * kernel) / PI)

    def test_row_k_alone_keeps_the_value(self, grid):
        for f in corpus():
            for k in (0, 1, 5, 17, 32):
                for x in (-0.55, 0.3, PI / 2):
                    assert conj_partial_sum_integral(f, k, x, grid) == self.reference(f, k, x, grid)

    def test_high_order_builds_one_row(self, grid):
        f = by_name("sawtooth")
        tracemalloc.start()
        try:
            conj_partial_sum_integral(f, 512, 0.3, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, peak

    def test_constant_vanishes(self, grid):
        f = by_name("const")
        for k in (0, 3):
            assert abs(conj_partial_sum_integral(f, k, 0.77, grid)) < 1e-10

    def test_sine(self, grid):
        got = conj_partial_sum_integral(by_name("sin"), 4, 0.9, grid)
        assert got == pytest.approx(-math.cos(0.9), abs=1e-8)

    def test_sawtooth_cross_implementation(self, grid):
        f = by_name("sawtooth")
        c = fourier_coeffs(f, 16, grid)
        got = conj_partial_sum_integral(f, 16, PI / 3, grid)
        assert got == pytest.approx(partial_sum_table(c, 16, PI / 3, conjugate=True)[16], abs=1e-6)

    @pytest.mark.parametrize("k", [1, 8, 32])
    def test_corpus_agreement(self, k, grid):
        for f in corpus():
            c = fourier_coeffs(f, k, grid)
            want = partial_sum_table(c, k, -0.55, conjugate=True)[k]
            got = conj_partial_sum_integral(f, k, -0.55, grid)
            assert got == pytest.approx(want, abs=1e-6)
