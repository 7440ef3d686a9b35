import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conjsum import functions
from conjsum.conjugate import _mesh
from conjsum.functions import (
    DEFAULT_GRID,
    DomainError,
    GridSpec,
    PanelSums,
    SingularIntegrandError,
    _insert_points,
    _k15_nodes,
    _k15_weights,
    by_name,
    corpus,
    eval_phi,
    eval_psi,
    graded_boundaries,
    kronrod_panels,
    lp_norms,
)

from conftest import graded_integral

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

    @pytest.mark.parametrize("args, kwargs, message", [
        ((8,), {}, "grid m must be >= 16, got 8"),
        ((), {"m": 2**14 + 2}, "grid m must be <= 16384, got 16386"),
        ((17, 24), {}, "grid m must be even, got 17"),
        ((), {"refinement": 0}, "refinement must be positive, got 0"),
        ((64,), {"refinement": 65}, "refinement must be <= 64, got 65"),
    ])
    def test_every_validation_message(self, args, kwargs, message):
        with pytest.raises(DomainError) as info:
            GridSpec(*args, **kwargs)
        assert str(info.value) == message
        with pytest.raises(DomainError) as info:  # _replace validates too
            DEFAULT_GRID._replace(**dict(zip(("m", "refinement"), args)), **kwargs)
        assert str(info.value) == message

    def test_an_immutable_value_hashed_and_compared_in_c(self):
        grid = GridSpec(1024, 24)
        assert grid is not DEFAULT_GRID and grid == DEFAULT_GRID == GridSpec() == GridSpec(refinement=24, m=1024)
        assert hash(grid) == hash(DEFAULT_GRID) and grid != GridSpec(1024, 23) and grid != GridSpec(1026)
        assert type(grid).__hash__ is tuple.__hash__ and type(grid).__eq__ is tuple.__eq__
        assert (grid.m, grid.refinement) == (1024, 24)
        assert repr(grid) == "GridSpec(m=1024, refinement=24)"
        assert repr(GridSpec(64, 8)) == "GridSpec(m=64, refinement=8)"
        for name in ("m", "refinement", "other"):
            with pytest.raises(AttributeError):
                setattr(grid, name, 64)
        assert grid == DEFAULT_GRID and not hasattr(grid, "other")

    def test_an_equal_grid_built_apart_hits_the_default_entries(self):
        functions.graded_boundaries(0.0, PI, DEFAULT_GRID)
        before = functions.graded_boundaries.cache_info()
        grid = GridSpec(1024, 24)
        for _ in range(2):
            assert functions.graded_boundaries(0.0, PI, grid) is functions.graded_boundaries(0.0, PI, DEFAULT_GRID)
        after = functions.graded_boundaries.cache_info()
        assert (after.hits, after.misses, after.currsize) == (before.hits + 4, before.misses, before.currsize)


class TestIntegratePeriodic:
    """Periodic integrands over half a period, on the graded mesh."""

    def test_sine_half_period(self):
        value, _ = graded_integral(np.sin, 0.0, PI, GridSpec(m=64))
        assert abs(value - 2.0) < 1e-10

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 16, 32])
    def test_trig_monomials_cancel(self, k):
        g = GridSpec(m=max(64, 4 * k))
        assert abs(graded_integral(lambda t: np.cos(k * t), 0.0, PI, g)[0]) < 1e-10
        assert abs(graded_integral(lambda t: np.sin(2 * k * t), 0.0, PI, g)[0]) < 1e-10

    def test_singular_integrand_raises(self):
        # the graded nodes approach t = 0, where t**-400 overflows
        with np.errstate(over="ignore"), pytest.raises(SingularIntegrandError):
            graded_integral(lambda t: t**-400.0, 0.0, PI)

    def test_mesh_halving_reduces_error_panels(self):
        g = lambda t: np.exp(np.sin(3 * t))
        errs = [graded_integral(g, 0.0, PI, GridSpec(m=m))[1] for m in (32, 64, 128)]
        assert errs[1] < errs[0] and errs[2] < errs[1]


class TestIntegrateGraded:
    def test_linear(self):
        value, _ = graded_integral(lambda t: t, 0.0, 1.0)
        assert abs(value - 0.5) < 1e-9

    def test_sinc_matches_series_oracle(self):
        oracle = sine_integral(PI)
        assert oracle == pytest.approx(1.8519370519824665, abs=1e-15)
        value, _ = graded_integral(lambda t: np.sin(t) / t, 0.0, PI)
        assert abs(value - oracle) < 1e-8

    def test_cotangent_identity(self):
        # sin(t) * (1/2) cot(t/2) = cos^2(t/2), whose integral over [0, pi] is pi/2
        value, _ = graded_integral(lambda t: np.sin(t) * 0.5 / np.tan(0.5 * t), 0.0, PI)
        assert abs(value - PI / 2) < 1e-8

    def test_nonfinite_value_raises(self):
        with np.errstate(divide="ignore", invalid="ignore"), pytest.raises(SingularIntegrandError):
            graded_integral(lambda t: 1.0 / (t - t), 0.5, 1.0)


class TestKronrodConstants:
    """The written-out QUADPACK qk15 constants: the 15-node Kronrod row and the embedded 7-node Gauss row."""

    @pytest.mark.parametrize("row, degree", [(0, 22), (1, 13)], ids=["kronrod", "gauss"])
    def test_exact_up_to_the_rule_degree(self, row, degree):
        # summed as exact fractions of the doubles, so only the constants' rounding (below 6e-17) remains
        def error(k):
            got = sum(Fraction(w) * Fraction(t) ** k for w, t in zip(_k15_weights[row].tolist(), _k15_nodes.tolist()))
            return abs(float(got - (Fraction(2, k + 1) if k % 2 == 0 else 0)))

        assert max(error(k) for k in range(degree + 1)) <= 1e-16
        assert error(degree + 1 if degree % 2 else degree + 2) > 1e-9  # the next even degree is not exact

    def test_nodes_and_weights_are_symmetric(self):
        assert np.array_equal(_k15_nodes, -_k15_nodes[::-1]) and np.all(np.diff(_k15_nodes) > 0.0)
        assert -1.0 < _k15_nodes[0] and _k15_nodes[7] == 0.0
        assert np.array_equal(_k15_weights, _k15_weights[:, ::-1])

    def test_each_row_sums_to_two(self):
        assert [math.fsum(row) for row in _k15_weights.tolist()] == [2.0, 2.0]

    def test_gauss_row_is_leggauss_at_every_other_node(self):
        nodes, weights = np.polynomial.legendre.leggauss(7)
        assert np.array_equal(np.flatnonzero(_k15_weights[1]), np.arange(1, 15, 2))
        assert np.max(np.abs(_k15_nodes[1::2] - nodes)) <= 2.3e-16
        assert np.max(np.abs(_k15_weights[1, 1::2] - weights)) <= 2.3e-16

    def test_panels_map_the_rule(self):
        nodes, weights = kronrod_panels(np.array([0.0, 1.0]), np.array([1.0, 3.0]))
        assert nodes.shape == (2, 15) and weights.shape == (2, 2, 15)
        assert np.array_equal(nodes[1], 2.0 + _k15_nodes) and np.array_equal(weights[:, 1], _k15_weights)
        assert np.array_equal(weights[:, 0], 0.5 * _k15_weights)


class TestPanelSums:
    """The one running-sum table behind the conjugate, the moduli and condition 2.511."""

    BOUNDS = graded_boundaries(0.0, PI, GridSpec(m=64))
    # a uniform mesh with points inserted: a kink of |psi| at x = 0.3, and a panel 2e-15 wide
    INSERTED = _insert_points(np.linspace(0.0, PI, 17), [0.3, PI / 2 - 0.3, 1.0, 1.0 + 2e-15])
    X_AXIS = np.array([-2.0, 0.3, 1.5])[:, None, None]

    def table(self, x, from_top, bounds=BOUNDS):
        f = by_name("hat")
        if np.ndim(x):
            x = x[..., None]  # a unit axis for the rule axis of 2
        return PanelSums(lambda t: np.abs(eval_psi(f, x, t)), bounds, from_top)

    @pytest.mark.parametrize("from_top", [False, True])
    @pytest.mark.parametrize("bounds", [BOUNDS, INSERTED], ids=["graded", "inserted"])
    @pytest.mark.parametrize("x", [0.3, X_AXIS], ids=["one-x", "x-axis"])
    def test_a_t_alone_and_in_any_batch_gives_the_same_bits(self, x, bounds, from_top):
        table = self.table(x, from_top, bounds)
        rng = np.random.default_rng(3)
        t = np.concatenate((rng.uniform(0.0, PI, 40), bounds[::5], [1e-300, 1.0 + 1e-15, PI]))
        batch = table.at(t)
        assert batch.shape == np.shape(x)[:1] + (2,) + t.shape
        for k in range(len(t)):
            assert np.array_equal(table.at(t[k : k + 1])[..., 0], batch[..., k])
        order = rng.permutation(len(t))
        assert np.array_equal(table.at(t[order]), batch[..., order])

    @pytest.mark.parametrize("from_top", [False, True])
    @pytest.mark.parametrize("x", [0.3, X_AXIS], ids=["one-x", "x-axis"])
    def test_a_boundary_reads_cum_exactly(self, x, from_top):
        table = self.table(x, from_top)
        assert np.array_equal(table.at(self.BOUNDS), table.cum)
        assert np.all(table.cum[..., -1 if from_top else 0] == 0.0)

    def test_both_anchors_meet_the_closed_form(self):
        # int_0^t sin = 1 - cos t and int_t^pi sin = 1 + cos t
        t = np.array([1e-9, 0.2, 1.0, 2.5, PI])
        # both rows: the Kronrod and the Gauss sums
        bottom, top = (PanelSums(np.sin, self.BOUNDS, from_top) for from_top in (False, True))
        assert np.max(np.abs(bottom.at(t) - (1.0 - np.cos(t)))) < 1e-14
        assert np.max(np.abs(top.at(t) - (1.0 + np.cos(t)))) < 1e-14

    def test_short_integral_beside_the_anchor_is_not_a_difference(self):
        # int_t^pi sin = 1 + cos t is about (pi - t)^2 / 2: relative accuracy survives near pi
        top = PanelSums(np.sin, self.BOUNDS, from_top=True)
        for gap in (1e-3, 1e-6, 1e-8):
            assert top.at(np.array([PI - gap]))[0, 0] == pytest.approx(0.5 * gap * gap, rel=1e-6, abs=0.0)

    def test_nonfinite_value_raises(self):
        with np.errstate(divide="ignore"), pytest.raises(SingularIntegrandError, match="not finite"):
            PanelSums(lambda t: 1.0 / (t - t), self.BOUNDS)


def unscaled_lp_norms(values, p, h):
    """lp_norms without the power-of-two row scaling."""
    return (h * np.sum(values**p, axis=-1)) ** (1.0 / p)


ENTRIES = st.one_of(st.just(0.0), st.floats(1e-100, 1e100))


class TestLpNorms:
    def test_large_p_does_not_underflow(self):
        # 0.05^400 is 0 in a double: unscaled, the norm read 0
        values, h = np.full(30, 0.05), PI / 16
        assert unscaled_lp_norms(values, 400.0, h) == 0.0
        assert lp_norms(values, 400.0, h) == pytest.approx(0.05 * (30 * h) ** (1 / 400), rel=1e-15)

    def test_p_up_to_1000_stays_finite_on_the_largest_grid(self):
        m = 2**14
        for p in (500.0, 1000.0):
            assert math.isfinite(lp_norms(np.full(m, 1.99), p, 2 * PI / m))

    @settings(max_examples=300)
    @given(rows=st.lists(st.lists(ENTRIES, min_size=20, max_size=20), min_size=1, max_size=8),
           h=st.floats(1e-3, 10.0))
    def test_p_1_and_2_keep_the_unscaled_bits(self, rows, h):
        # the scaling is by powers of two, exact on these entries, and the root at p = 2 is the correctly rounded
        # sqrt alone and in a batch (numpy's scalar pow(s, 0.5), which a lone row used to take, moved 189 of
        # 200,000 random sums by one ulp); the unscaled batch takes sqrt, so it is the reference for each row
        batch = np.array(rows)
        for p in (1.0, 2.0):
            want = unscaled_lp_norms(batch, p, h)
            assert lp_norms(batch, p, h).tobytes() == want.tobytes(), p
            for row, row_want in zip(batch, want):
                assert lp_norms(row, p, h) == row_want, p

    def test_a_lone_row_has_its_batch_bits_at_p_2(self):
        # every row maximum lies in [1, 2), so no row is scaled; scalar pow(s, 0.5) misses sqrt(s) on some of them
        rows, h = np.random.default_rng(7).uniform(0.0, 2.0, (5000, 30)), PI / 16
        assert (rows.max(axis=1) >= 1.0).all()
        assert sum(s**0.5 != np.sqrt(s) for s in h * np.sum(rows**2, axis=1)) > 0
        assert [lp_norms(row, 2.0, h) for row in rows] == lp_norms(rows, 2.0, h).tolist()


class TestInsertPoints:
    """The one near-duplicate rule of every panel mesh: an absolute 1e-15, whatever the span."""

    @pytest.mark.parametrize("a, b", [(0.0, PI / 9), (0.0, PI), (-PI, PI)])
    def test_a_point_2e_15_away_is_kept_and_one_5e_16_away_merged(self, a, b):
        base = np.linspace(a, b, 9)
        c = base[3]
        for side in (1.0, -1.0):
            kept = _insert_points(base, [c + side * 2e-15])
            assert len(kept) == len(base) + 1 and c in kept and c + side * 2e-15 in kept
        assert np.array_equal(_insert_points(base, np.array([c + 5e-16])), base)
        merged = _insert_points(base, [c - 5e-16])
        assert len(merged) == len(base) and c not in merged and c - 5e-16 in merged

    @pytest.mark.parametrize("a, b", [(0.0, PI / 9), (0.0, PI), (-PI, PI)])
    def test_a_point_5e_16_below_the_last_boundary_is_dropped(self, a, b):
        base = np.linspace(a, b, 9)
        assert np.array_equal(_insert_points(base, [b - 5e-16]), base)
        kept = _insert_points(base, [b - 2e-15])
        assert len(kept) == len(base) + 1 and kept[-1] == b

    def test_sawtooth_mesh_next_to_its_jump_ends_at_pi(self):
        # psi_x's one breakpoint in (0, pi) lies 4.4e-16 below pi: the mesh keeps pi and drops the breakpoint
        mesh = _mesh(by_name("sawtooth"), PI - 5e-16, DEFAULT_GRID)
        assert mesh[-1] == PI and np.array_equal(mesh, graded_boundaries(0.0, PI, DEFAULT_GRID))

    def test_points_outside_the_span_are_ignored(self):
        base = np.linspace(0.0, PI, 5)
        assert _insert_points(base, [-1.0, 0.0, PI, 4.0]) is base
        assert _insert_points(base, []) is base


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


class TestPeriodReduction:
    """The compare-and-add reduction of the corpus keeps np.mod's bits on every input, fast path or not."""

    NAMES = ["_mod_two_pi", "_sawtooth", "_sawtooth_conjugate", "_hat", "_clausen2"]
    SPECIALS = [v for base in (0.0, PI, 2 * PI, 3 * PI, 4 * PI) for s in (1.0, -1.0)
                for v in (s * base, math.nextafter(s * base, math.inf), math.nextafter(s * base, -math.inf))]
    SPECIALS += [math.inf, -math.inf, math.nan, 1e300, -1e300, 5e-324, -5e-324]

    @staticmethod
    def assert_same_bits(name, x):
        # the reference is the same function with np.mod as its reduction
        with np.errstate(all="ignore"):
            got = getattr(functions, name)(x)
            with mock.patch.object(functions, "_mod_two_pi", lambda v: np.mod(v, functions.TWO_PI)):
                want = getattr(functions, name)(x)
        assert type(got) is type(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (name, x)

    @pytest.mark.parametrize("name", NAMES)
    def test_specials_alone_and_together(self, name):
        for v in self.SPECIALS:
            self.assert_same_bits(name, np.array(v))
            self.assert_same_bits(name, np.array([v]))
        finite = np.array([v for v in self.SPECIALS if abs(v) < 1e300])
        self.assert_same_bits(name, finite)  # 4 pi lies outside the compare-and-add range
        self.assert_same_bits(name, finite[np.abs(finite) <= 3 * PI])
        self.assert_same_bits(name, np.array([]))

    @pytest.mark.parametrize("name", NAMES)
    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.one_of(st.floats(), st.floats(-5 * PI, 5 * PI), st.sampled_from(SPECIALS)),
                           min_size=1, max_size=12),
           near=st.lists(st.floats(-3 * PI, 3 * PI), min_size=1, max_size=12))
    def test_random_arrays(self, name, values, near):
        self.assert_same_bits(name, np.array(values))
        self.assert_same_bits(name, np.array(near))

    def test_the_range_check_takes_the_compare_and_add(self):
        # sawtooth's and hat's arguments on x, t in [-pi, pi] all lie in [-2 pi, 4 pi)
        x = np.array([-2 * PI, -PI, -0.0, 0.0, PI, 2 * PI, math.nextafter(4 * PI, 0.0)])
        with mock.patch.object(np, "mod", side_effect=AssertionError("np.mod called")):
            assert functions._mod_two_pi(x).tobytes() == np.array([0.0, PI, 0.0, 0.0, PI, 0.0, x[-1] - 2 * PI]).tobytes()
