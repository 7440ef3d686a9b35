import itertools
import math
import tracemalloc
from fractions import Fraction

import mpmath
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
    default_x_grid,
    deviation_kernel_form,
)
from conjsum.functions import (
    DEFAULT_GRID,
    DomainError,
    GridSpec,
    PanelSums,
    PeriodicFunction,
    SingularIntegrandError,
    by_name,
    check_x,
    corpus,
    eval_psi,
    psi_breakpoints,
)
from conjsum.kernels import conj_kernel_mean_z, fourier_coeffs, partial_sum_table
from conjsum.moduli import modulus_profile
from conjsum.summability import ab_tails, ab_weights, cesaro, delta_at_zero, exact_cumsum, identity_matrix, nordlund
from conjsum.verify import transform_value

from conftest import graded_integral

PI = math.pi
KERNEL_FORM_TOL = 1e-13  # kernel form against value - conjugate; 6.7e-16 measured
REF_BITS = 160  # fraction bits of the fixed-point kernel-mean reference

# the eps each x is asked for: the CLI column, every pi/(n+1) of a verify grid, and a tiny one
TABLE_EPS = np.array(sorted(set(DEFAULT_EPS) | {PI / (n + 1) for n in range(513)} | {1e-300}))


def sine_series_reference(weights, t):
    """(sum_nu C_nu sin(nu t), [C_1, ..., C_n]) per weight vector, C_nu = sum_{k>=nu} c_k exactly.

    e^{it} comes from mpmath at 40 digits; its powers and the sums are kept in
    REF_BITS-bit fixed point (Python integers), all t at once, so the reference
    is good to about n 2**-REF_BITS.
    """
    def fixed(value):
        return int(mpmath.nint(mpmath.ldexp(value, REF_BITS)))

    with mpmath.workdps(40):
        powers = [mpmath.expj(x) for x in t.tolist()]
        z_re, z_im = (np.array([fixed(part(z)) for z in powers], dtype=object) for part in (mpmath.re, mpmath.im))
    tails = [np.cumsum([Fraction(c) for c in w[:0:-1].tolist()])[::-1].tolist() for w in weights]
    sums = [np.zeros(len(t), dtype=object) for _ in weights]
    p_re, p_im = z_re, z_im  # e^{i nu t} at nu = 1
    for nu in range(1, max(map(len, tails), default=0) + 1):
        for total, c in zip(sums, tails):
            if nu <= len(c):
                total += round(c[nu - 1] * 2**REF_BITS) * p_im
        p_re, p_im = (p_re * z_re - p_im * z_im) >> REF_BITS, (p_re * z_im + p_im * z_re) >> REF_BITS
    return [((total / 2 ** (2 * REF_BITS)).astype(float), c) for total, c in zip(sums, tails)]


def per_eps_quadrature(f, x, eps, grid):
    """Reference: one graded quadrature of psi_x(t) (1/2) cot(t/2) over (eps, pi] for each (x, eps)."""
    cuts = [b for b in psi_breakpoints(f, x) if b > eps]
    value, _ = graded_integral(lambda t: eval_psi(f, x, t) * 0.5 / np.tan(0.5 * t), eps, PI, grid, cuts)
    return -value / PI


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
            bound, _ = graded_integral(
                lambda t: np.abs(eval_psi(f, x, t)) * 0.5 / np.abs(np.tan(0.5 * t)),
                e2,
                e1,
                grid,
            )
            assert lhs <= bound * (1 + 1e-9) + 1e-12


class TestSuffixTable:
    def test_matches_per_eps_quadrature(self, grid):
        # every (function, n <= 512) pair at one x, the CLI column and 1e-300 at every x
        for i, x in enumerate(default_x_grid()):
            eps = sorted(set(DEFAULT_EPS) | {1e-300} | {PI / (n + 1) for n in range(1 + i, 513, 30)})
            for f in corpus():
                want = [per_eps_quadrature(f, x, e, grid) for e in eps]
                got = conjugate_truncated(f, x, eps, grid)
                assert np.max(np.abs(got - want)) <= 1e-14, (f.name, x)

    def test_full_conjugate_matches_quadrature_from_zero(self, grid):
        for f in corpus():
            for x in default_x_grid()[::3]:
                if not f.is_singular_at(x):
                    assert abs(conjugate_at(f, x, grid) - per_eps_quadrature(f, x, 0.0, grid)) <= 1e-14

    def test_batch_and_scalar_give_the_same_bits(self, grid):
        for f in corpus():
            for x in default_x_grid()[4::17]:
                batch = conjugate_truncated(f, x, TABLE_EPS, grid)
                scalars = [conjugate_truncated(f, x, float(e), grid) for e in TABLE_EPS]
                assert batch.tolist() == scalars and all(type(v) is float for v in scalars)
                shuffled = np.random.default_rng(7).permutation(len(TABLE_EPS))
                again = conjugate_truncated(f, x, TABLE_EPS[shuffled], grid)
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
                conjugate_truncated(funcs["sin"], 0.5, [0.5, bad])

    def test_eps_pi_is_zero_in_a_batch(self, funcs):
        got = conjugate_truncated(funcs["sin"], 0.7, [PI, 0.5])
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

    @pytest.mark.parametrize("x", [0.0, 2 * PI])
    def test_known_singular_point_rejected(self, x, grid):
        # the full deviation diverges there, as conjugate_at, which refuses the same x, does
        C = cesaro(16)
        message = f"^x={x} is a known singular point of sawtooth$"
        with pytest.raises(DomainError, match=message):
            conjugate_at(by_name("sawtooth"), x, grid)
        with pytest.raises(DomainError, match=message):
            deviation_kernel_form(by_name("sawtooth"), C, C, 16, x, grid)

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

    def test_kernel_mean_within_horner_bound(self):
        # |K - ref| <= n eps sum |C_nu|, also at t = 1e-7 and 3e-6, where the closed-form rows lose up to 8e-10
        t = np.concatenate([np.linspace(1e-9, PI, 997), [1e-4, 2e-3, 1e-7, 3e-6]])
        orders = (0, 1, 17, 63, 64, 200, 300, 1024)
        top = max(orders)
        p = (np.arange(top + 1.0) + 1.0) ** -0.75
        pairs = ((cesaro(top),) * 2, (identity_matrix(top),) * 2, (nordlund(p, top), nordlund(np.sqrt(p), top)))
        cases = [(A, B, n) for A, B in pairs for n in orders]
        weights = [ab_weights(*case) for case in cases]
        for case, (ref, tails) in zip(cases, sine_series_reference(weights, t)):
            n = case[2]
            assert ab_tails(*case).tolist() == [float(c) for c in tails]  # each tail correctly rounded
            bound = n * np.finfo(float).eps * float(sum(abs(c) for c in tails))
            err = float(np.max(np.abs(conj_kernel_mean_z(ab_tails(*case), np.exp(1j * t)) - ref)))
            assert err <= bound, (n, err, bound)

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


def kernel_form_reference(f, A, B, n, x, grid, parts=1):
    """deviation_kernel_form from scratch: one PanelSums on the mesh cut at h, every node evaluated afresh.

    With parts > 1 each panel of that mesh is split into parts equal ones.
    """
    tails = exact_cumsum(ab_weights(A, B, n)[:0:-1])[::-1]
    h = PI / (n + 1)
    bounds = conjugate._mesh(f, x, grid, cuts=[h])
    below = int(np.argmin(np.abs(bounds - h)))
    if parts > 1:
        lo, hi = bounds[:-1, None], bounds[1:, None]
        bounds, below = np.append((lo + (hi - lo) * (np.arange(parts) / parts)).ravel(), bounds[-1]), below * parts

    def integrands(t):
        psi = eval_psi(f, x, t)
        kernel = conj_kernel_mean_z(tails, np.exp(1j * t))
        inner = np.where(t < bounds[below], psi * kernel, 0.0)
        return np.stack((inner, psi * (0.5 / np.tan(0.5 * t) - kernel)))[:, None]  # a unit axis for the rule's

    (inner, _), (outer, _) = PanelSums(integrands, bounds, from_top=True).cum  # the Kronrod rows
    dev_truncated = (-inner[0] + outer[below]) / PI
    dev_full = outer[0] / PI
    if not (np.isfinite(dev_truncated) and np.isfinite(dev_full)):
        raise SingularIntegrandError("kernel-form deviation integral is not finite")
    return float(dev_truncated), float(dev_full)


# the largest error measured at n = 1024 over the corpus and HIGH_ORDER_X, by (A, B): 1.2e-11, 1.6e-9 and 5.2e-7
KERNEL_FORM_HIGH_ORDER_TOL = {("cesaro", "cesaro"): 2e-11, ("cesaro", "identity"): 3e-9, ("identity", "identity"): 1e-6}
HIGH_ORDER_X = (0.3, -2.2, 1.0, 2.9, -0.05)


class TestKernelFormHighOrder:
    """At n = 1024 the kernel form meets the same integral on a mesh whose every panel is split in 8.

    That reference is itself converged: splitting in 16 moves it by at most 7e-15.  The kernels of identity rows
    oscillate at the full order n, so their error is the largest.
    """

    TOP = 1024

    @pytest.fixture(scope="class")
    def matrices(self):
        return {"cesaro": cesaro(self.TOP), "identity": identity_matrix(self.TOP)}

    @pytest.mark.parametrize("pair", sorted(KERNEL_FORM_HIGH_ORDER_TOL), ids="/".join)
    @pytest.mark.parametrize("f", corpus(), ids=lambda f: f.name)
    def test_order_1024_meets_a_mesh_eight_times_finer(self, f, pair, matrices):
        A, B = (matrices[name] for name in pair)
        for x in HIGH_ORDER_X:
            got = deviation_kernel_form(f, A, B, self.TOP, x)
            want = kernel_form_reference(f, A, B, self.TOP, x, DEFAULT_GRID, parts=8)
            assert max(abs(g - w) for g, w in zip(got, want)) <= KERNEL_FORM_HIGH_ORDER_TOL[pair], (x, got, want)


class TestKernelFormBitIdentity:
    """The cached node table and the panels evaluated per call give the bits of the from-scratch reference."""

    TOP = 1024

    @pytest.fixture(scope="class")
    def pairs(self):
        C, I = cesaro(self.TOP), identity_matrix(self.TOP)
        return (C, C), (I, I), (C, I)

    def check(self, f, pairs, ns, x, grid=DEFAULT_GRID):
        for A, B in pairs:
            for n in ns:
                assert deviation_kernel_form(f, A, B, n, x, grid) == kernel_form_reference(f, A, B, n, x, grid), \
                    (f.name, A.name, B.name, n, x)

    @pytest.mark.parametrize("f", corpus(), ids=lambda f: f.name)
    def test_h_on_a_base_boundary(self, f, pairs):
        ns = (1, 3, 7, 15, 31)
        base = conjugate._kernel_nodes(f, 0.3, DEFAULT_GRID)[0]
        assert all(PI / (n + 1) in base for n in ns)  # nothing left to evaluate afresh
        self.check(f, pairs, ns, 0.3)

    @pytest.mark.parametrize("f", corpus(), ids=lambda f: f.name)
    def test_h_is_pi_and_the_top_order(self, f, pairs):
        self.check(f, pairs, (0, 2, 5, 100, self.TOP), -2.2)

    @pytest.mark.parametrize("shift", [0.0, 4e-16, 1e-15, 2e-15, -4e-16, -1e-15, -2e-15, 1e-12])
    def test_h_next_to_a_psi_breakpoint(self, shift, pairs):
        # x = b +- h + shift for a breakpoint b of f puts one of psi_x at t = |x - b|, next to h: there the
        # merge may keep both boundaries, drop the mesh's one or drop the cut
        for name, n in itertools.product(("hat", "sawtooth"), (1, 3, 8, 31, 200)):
            f, h = by_name(name), PI / (n + 1)
            for b, sign in itertools.product(f.breakpoints, (1, -1)):
                x = check_x("x", b + sign * h + shift)
                assert min(abs(t - h) for t in psi_breakpoints(f, x)) < abs(shift) + 3e-15, (name, n, b, sign)
                self.check(f, pairs, (n,), x)

    @pytest.mark.parametrize("x", [1e-9, -1e-9, PI - 1e-9, 1e-9 - PI, PI])
    @pytest.mark.parametrize("name", ["sawtooth", "hat", "sin3"])
    def test_x_next_to_0_and_pi(self, name, x, pairs):
        ns = (0, 1, 4, 31, 64)
        if name == "sawtooth" and abs(x) == 1e-9:  # next to the jump, where conjugate_at refuses
            for (A, B), n in itertools.product(pairs, ns):
                with pytest.raises(ConvergenceError, match=rf"^conjugate at x={x}: error estimate 0.536 exceeds"):
                    deviation_kernel_form(by_name(name), A, B, n, x)
            return
        self.check(by_name(name), pairs, ns, x)

    @pytest.mark.parametrize("x", [1e-9, -3e-8, 6e-8, 7e-8, -1e-7, 1e-6])
    def test_refuses_exactly_where_conjugate_at_does(self, x, pairs):
        for f in corpus():
            try:
                conjugate_at(f, x)
                refusal = None
            except ConvergenceError as exc:
                refusal = str(exc)
            for (A, B), n in itertools.product(pairs, (0, 3, 64)):
                if refusal is None:
                    deviation_kernel_form(f, A, B, n, x)
                else:
                    with pytest.raises(ConvergenceError) as info:
                        deviation_kernel_form(f, A, B, n, x)
                    assert str(info.value) == refusal, (f.name, x, n)

    def test_a_node_only_the_uncut_mesh_has_adds_nothing(self):
        # psi ((1/2) cot - K) overflows at one node of the uncut panel that h splits and nowhere else; the cut mesh
        # has no such node, so the call refuses only where conjugate_at, whose table holds that node, does
        x, n, I = 0.3, 5, identity_matrix(5)
        zero = PeriodicFunction(name="zero", eval=np.zeros_like)
        nodes = conjugate._kernel_nodes(zero, x, DEFAULT_GRID)[1]
        unread = conjugate._kernel_cut(zero, x, n, DEFAULT_GRID).data[3]
        assert len(unread) == 1
        t = nodes[unread[0]]
        half_cot = 0.5 / np.tan(0.5 * t)
        gap = np.abs(half_cot - conj_kernel_mean_z(ab_tails(I, I, n), np.exp(1j * t)))
        i = int(np.argmax(gap / half_cot))
        assert gap[i] / half_cot[i] > 1.01  # so psi (1/2) cot(t/2) stays finite there
        size = np.finfo(float).max / gap[i] * 1.001
        spike = PeriodicFunction(name="spike", eval=lambda u: np.where(u == x + t[i], size, 0.0))
        errors = []
        for run in (lambda: conjugate_at(spike, x), lambda: deviation_kernel_form(spike, I, I, n, x)):
            with pytest.raises(ConvergenceError) as info, np.errstate(over="ignore"):
                run()
            errors.append(str(info.value))
        assert errors[0] == errors[1]

    def test_coarse_grid(self, pairs):
        self.check(by_name("hat"), pairs, (0, 1, 6, 64), 0.3, GridSpec(m=64, refinement=8))

    @pytest.mark.parametrize("case", ["node", "integral"])
    def test_non_finite_paths_keep_their_message(self, case):
        if case == "node":  # psi is NaN at some nodes
            f = PeriodicFunction(name="nan-tail", eval=lambda t: np.where(t > 3.0, np.nan, np.sin(t)))
        else:  # finite at every node, but the integral overflows
            f = PeriodicFunction(name="huge-sine", eval=lambda t: 8e307 * np.sin(t))
        D = delta_at_zero(1)
        messages = []
        for run in (deviation_kernel_form, kernel_form_reference):
            with pytest.raises(SingularIntegrandError) as info, np.errstate(over="ignore", invalid="ignore"):
                run(f, D, D, 1, 0.0, DEFAULT_GRID)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert messages[0] == ("integrand is not finite at a quadrature node" if case == "node"
                               else "kernel-form deviation integral is not finite")
