import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conjsum.functions import (
    DomainError,
    GridSpec,
    PanelSums,
    SingularIntegrandError,
    by_name,
    corpus,
    eval_phi,
    eval_psi,
    fine_rule,
    gl_panels,
    graded_boundaries,
    integrate_graded,
)

PI = math.pi


def sine_integral(x: float) -> float:
    """Series oracle for Si(x) = int_0^x sin(t)/t dt."""
    total, n = 0.0, 0
    while True:
        term = (-1) ** n * x ** (2 * n + 1) / ((2 * n + 1) * math.factorial(2 * n + 1))
        total += term
        if abs(term) < 1e-18:
            return total
        n += 1


class TestIncrements:
    def test_psi_of_constant_vanishes(self, funcs):
        assert eval_psi(funcs["const"], 0.3, 1.1) == 0.0

    def test_psi_of_sine_at_origin(self, funcs):
        t0 = 0.83
        assert eval_psi(funcs["sin"], 0.0, t0) == pytest.approx(2 * math.sin(t0), abs=1e-15)

    def test_psi_of_cosine_frozen(self, funcs):
        # oracle: direct evaluation of cos(x+t) - cos(x-t)
        got = eval_psi(funcs["cos"], PI / 2, 1.0)
        assert got == pytest.approx(-1.682941969615793, abs=1e-12)

    def test_phi_of_constant_vanishes(self, funcs):
        assert eval_phi(funcs["const"], -0.4, 2.2) == 0.0

    def test_phi_of_cosine_at_origin(self, funcs):
        t0 = 1.3
        assert eval_phi(funcs["cos"], 0.0, t0) == pytest.approx(2 * (math.cos(t0) - 1), abs=1e-15)

    def test_phi_of_sine_frozen(self, funcs):
        # oracle: direct evaluation of sin(x+t) + sin(x-t) - 2 sin(x)
        got = eval_phi(funcs["sin"], PI / 2, 0.7)
        assert got == pytest.approx(-0.470315625431023, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        x=st.floats(min_value=-PI, max_value=PI),
        t=st.floats(min_value=-PI, max_value=PI),
    )
    def test_psi_odd_phi_even(self, x, t):
        for f in corpus():
            assert abs(eval_psi(f, x, -t) + eval_psi(f, x, t)) < 1e-12
            assert abs(eval_phi(f, x, -t) - eval_phi(f, x, t)) < 1e-12

    def test_symmetry_on_grid(self, all_functions):
        xs = np.linspace(-3.0, 3.0, 7)
        ts = np.linspace(0.05, PI, 9)
        for f in all_functions:
            for x in xs:
                assert np.max(np.abs(eval_psi(f, x, -ts) + eval_psi(f, x, ts))) < 1e-12
                assert np.max(np.abs(eval_phi(f, x, -ts) - eval_phi(f, x, ts))) < 1e-12


class TestPeriodicity:
    def test_two_pi_periodic(self, all_functions):
        xs = np.linspace(-PI, PI, 41)
        for f in all_functions:
            assert np.max(np.abs(f(xs + 2 * PI) - f(xs))) < 1e-12
            assert np.max(np.abs(f(xs - 2 * PI) - f(xs))) < 1e-12


class TestGridSpec:
    def test_rejects_small_or_odd_m(self):
        with pytest.raises(DomainError):
            GridSpec(m=8)
        with pytest.raises(DomainError):
            GridSpec(m=17)
        with pytest.raises(DomainError):
            GridSpec(refinement=0)

    def test_rejects_m_above_cap(self):
        assert GridSpec(m=2**14).m == 2**14
        with pytest.raises(DomainError, match="16384"):
            GridSpec(m=2**14 + 2)

    def test_rejects_refinement_above_cap(self):
        assert GridSpec(refinement=64).refinement == 64
        with pytest.raises(DomainError, match="refinement must be <= 64, got 65"):
            GridSpec(refinement=65)


class TestIntegratePeriodic:
    """Periodic integrands over half a period, on the graded integrator."""

    def test_sine_half_period(self):
        r = integrate_graded(np.sin, 0.0, PI, GridSpec(m=64))
        assert abs(r.value - 2.0) < 1e-10

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 16, 32])
    def test_trig_monomials_cancel(self, k):
        g = GridSpec(m=max(64, 4 * k))
        assert abs(integrate_graded(lambda t: np.cos(k * t), 0.0, PI, g).value) < 1e-10
        assert abs(integrate_graded(lambda t: np.sin(2 * k * t), 0.0, PI, g).value) < 1e-10

    def test_singular_integrand_raises(self):
        # the graded nodes approach t = 0, where t**-400 overflows
        with np.errstate(over="ignore"), pytest.raises(SingularIntegrandError):
            integrate_graded(lambda t: t**-400.0, 0.0, PI)

    def test_empty_interval_rejected(self):
        with pytest.raises(DomainError):
            integrate_graded(np.sin, 1.0, 1.0)

    def test_mesh_halving_reduces_error_panels(self):
        g = lambda t: np.exp(np.sin(3 * t))
        errs = [integrate_graded(g, 0.0, PI, GridSpec(m=m)).est_error for m in (32, 64, 128)]
        assert errs[1] < errs[0] and errs[2] < errs[1]


class TestIntegrateGraded:
    def test_linear(self):
        r = integrate_graded(lambda t: t, 0.0, 1.0)
        assert abs(r.value - 0.5) < 1e-9

    def test_sinc_matches_series_oracle(self):
        oracle = sine_integral(PI)
        assert oracle == pytest.approx(1.8519370519824665, abs=1e-15)
        r = integrate_graded(lambda t: np.sin(t) / t, 0.0, PI)
        assert abs(r.value - oracle) < 1e-8

    def test_cotangent_identity(self):
        # sin(t) * (1/2) cot(t/2) = cos^2(t/2), whose integral over [0, pi] is pi/2
        r = integrate_graded(lambda t: np.sin(t) * 0.5 / np.tan(0.5 * t), 0.0, PI)
        assert abs(r.value - PI / 2) < 1e-8

    def test_domain_validation(self):
        with pytest.raises(DomainError):
            integrate_graded(lambda t: t, -0.1, 1.0)
        with pytest.raises(DomainError):
            integrate_graded(lambda t: t, 1.0, 0.5)

    def test_nonfinite_value_raises(self):
        with np.errstate(divide="ignore", invalid="ignore"), pytest.raises(SingularIntegrandError):
            integrate_graded(lambda t: 1.0 / (t - t), 0.5, 1.0)


class TestPanelSums:
    """The one running-sum table behind the conjugate, the moduli and integrate_graded."""

    BOUNDS = graded_boundaries(0.0, PI, GridSpec(m=64))
    X_AXIS = np.array([-2.0, 0.3, 1.5])[:, None, None]

    def table(self, x, rule, from_top):
        f = by_name("hat")
        return PanelSums(lambda t: np.abs(eval_psi(f, x, t)), self.BOUNDS, rule, from_top)

    @pytest.mark.parametrize("from_top", [False, True])
    @pytest.mark.parametrize("rule", [gl_panels, fine_rule])
    @pytest.mark.parametrize("x", [0.3, X_AXIS], ids=["one-x", "x-axis"])
    def test_a_t_alone_and_in_any_batch_gives_the_same_bits(self, x, rule, from_top):
        table = self.table(x, rule, from_top)
        rng = np.random.default_rng(3)
        t = np.concatenate((rng.uniform(0.0, PI, 40), self.BOUNDS[::5], [1e-300, PI]))
        batch = table.at(t)
        assert batch.shape == np.shape(x)[:1] + t.shape
        for k in range(len(t)):
            assert np.array_equal(table.at(t[k : k + 1])[..., 0], batch[..., k])
        order = rng.permutation(len(t))
        assert np.array_equal(table.at(t[order]), batch[..., order])

    @pytest.mark.parametrize("from_top", [False, True])
    @pytest.mark.parametrize("x", [0.3, X_AXIS], ids=["one-x", "x-axis"])
    def test_a_boundary_reads_cum_exactly(self, x, from_top):
        table = self.table(x, gl_panels, from_top)
        assert np.array_equal(table.at(self.BOUNDS), table.cum)
        assert np.all(table.cum[..., -1 if from_top else 0] == 0.0)

    def test_both_anchors_meet_the_closed_form(self):
        # int_0^t sin = 1 - cos t and int_t^pi sin = 1 + cos t
        t = np.array([1e-9, 0.2, 1.0, 2.5, PI])
        bottom, top = (PanelSums(np.sin, self.BOUNDS, fine_rule, from_top) for from_top in (False, True))
        assert np.max(np.abs(bottom.at(t) - (1.0 - np.cos(t)))) < 1e-14
        assert np.max(np.abs(top.at(t) - (1.0 + np.cos(t)))) < 1e-14

    def test_short_integral_beside_the_anchor_is_not_a_difference(self):
        # int_t^pi sin = 1 + cos t is about (pi - t)^2 / 2: relative accuracy survives near pi
        top = PanelSums(np.sin, self.BOUNDS, from_top=True)
        for gap in (1e-3, 1e-6, 1e-8):
            assert top.at(np.array([PI - gap]))[0] == pytest.approx(0.5 * gap * gap, rel=1e-6, abs=0.0)

    def test_nonfinite_value_raises(self):
        with np.errstate(divide="ignore"), pytest.raises(SingularIntegrandError, match="not finite"):
            PanelSums(lambda t: 1.0 / (t - t), self.BOUNDS)


class TestCorpus:
    def test_registry_names(self, funcs):
        for name in ("const", "sin", "cos", "sin3", "sawtooth", "hat"):
            assert name in funcs

    def test_unknown_name_message_lists_registry(self):
        with pytest.raises(KeyError, match="sawtooth"):
            by_name("nope")

    def test_known_conjugates(self, funcs):
        x = np.array([0.7])
        assert funcs["sin"].known_conjugate.eval(x)[0] == pytest.approx(-math.cos(0.7))
        assert funcs["cos"].known_conjugate.eval(x)[0] == pytest.approx(math.sin(0.7))
        assert funcs["const"].known_conjugate.eval(x)[0] == 0.0

    def test_sawtooth_value_and_singularities(self, funcs):
        saw = funcs["sawtooth"]
        assert float(saw(np.array(1.0))) == pytest.approx((PI - 1.0) / 2)
        assert saw.is_singular_at(0.0)
        assert saw.is_singular_at(2 * PI)
        assert not saw.is_singular_at(0.5)
        got = saw.known_conjugate.eval(np.array([PI / 2]))[0]
        assert got == pytest.approx(math.log(2 * math.sin(PI / 4)), abs=1e-15)

    def test_hat_shape(self, funcs):
        hat = funcs["hat"]
        assert float(hat(np.array(0.0))) == 1.0
        assert float(hat(np.array(PI / 2))) == 0.0
        assert float(hat(np.array(PI))) == 0.0
        assert float(hat(np.array(PI / 4))) == pytest.approx(0.5)

    def test_hat_conjugate_closed_form(self, funcs):
        conj = funcs["hat"].known_conjugate
        catalan = 0.91596559417721901505  # Cl_2(pi/2); Cl_2(0) = Cl_2(pi) = 0
        assert conj.eval(np.array([PI / 2]))[0] == pytest.approx(4 * catalan / PI**2, abs=1e-15)
        assert not funcs["hat"].is_singular_at(0.0)
        x = np.linspace(-PI, PI, 41)
        values = conj.eval(x)
        assert np.max(np.abs(values + conj.eval(-x))) <= 1e-15
        assert np.max(np.abs(values - conj.eval(x + 2 * PI))) <= 1e-14
        # the conjugate series sum a_nu sin(nu x) to 20000 terms; its tail is below 8/(pi^2 20000)
        nu = np.arange(1, 20001)
        a = 2 * (1 - np.cos(nu * PI / 2)) / (PI * (PI / 2) * nu**2)
        assert np.max(np.abs(np.sin(np.outer(x, nu)) @ a - values)) <= 4.1e-5

    def test_quadrature_matches_known_coefficients(self, all_functions, grid):
        from conjsum.kernels import fourier_coeffs

        for f in all_functions:
            c = fourier_coeffs(f, 16, grid)
            known = f.known_coeffs
            assert c.a0 == pytest.approx(known.a0, abs=1e-13)
            for nu in range(1, 17):
                a_nu, b_nu = known.pair(nu)
                assert c.a[nu - 1] == pytest.approx(a_nu, abs=1e-13)
                assert c.b[nu - 1] == pytest.approx(b_nu, abs=1e-13)
