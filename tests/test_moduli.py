import io
import math
from contextlib import redirect_stdout
from functools import partial

import numpy as np
import pytest

from conjsum import cli, moduli, verify
from conjsum.conjugate import default_x_grid
from conjsum.functions import (DomainError, GridSpec, PanelSums, PeriodicFunction, _insert_points, by_name, corpus,
                               lp_norms, psi_breakpoints)
from conjsum.moduli import (
    classical_modulus,
    lemma2_check,
    lp_norm,
    modulus,
    modulus_profile,
    pointwise_modulus_on_nodes,
)
from conjsum.summability import cesaro

PI = math.pi


class TestWTilde:
    def test_constant(self, funcs):
        assert modulus(funcs["const"], 0.9, 1.0, "w_tilde") == 0.0

    def test_sine_full_interval(self, funcs):
        # (1/pi) int_0^pi 2 sin u du = 4/pi
        got = modulus(funcs["sin"], 0.0, PI, "w_tilde")
        assert got == pytest.approx(1.2732395447351628, abs=1e-10)

    def test_cosine_frozen(self, funcs):
        # |psi| = 2 sin u at x = pi/2: 2 (1 - cos 1)
        got = modulus(funcs["cos"], PI / 2, 1.0, "w_tilde")
        assert got == pytest.approx(0.9193953882637205, abs=1e-10)

    def test_delta_out_of_range(self, funcs):
        with pytest.raises(DomainError):
            modulus(funcs["sin"], 0.0, 0.0, "w_tilde")
        with pytest.raises(DomainError):
            modulus(funcs["sin"], 0.0, 4.0, "w_tilde")


class TestModulusEntryPoint:
    DELTAS = np.array([PI, PI / 7, 1.0, 0.123456789, 3e-9, PI / 300, PI / 2, 2.5])

    @pytest.mark.parametrize("kind", moduli.MODULUS_KINDS)
    def test_float_and_array_give_the_same_bits(self, kind, grid):
        order = np.random.default_rng(7).permutation(len(self.DELTAS))
        for f in corpus():
            for x in (0.3, 0.0, -PI / 2 - 3e-8):
                alone = [modulus(f, x, float(d), kind, grid) for d in self.DELTAS]
                assert all(type(v) is float for v in alone)
                assert np.array_equal(modulus(f, x, self.DELTAS, kind, grid), alone), (f.name, x)
                shuffled = modulus(f, x, self.DELTAS[order], kind, grid)
                assert np.array_equal(shuffled, np.array(alone)[order]), (f.name, x)
                assert modulus(f, x, self.DELTAS[2:3], kind, grid)[0] == alone[2]

    @pytest.mark.parametrize("bad", [0.0, math.nan, 3.5, -1.0])
    @pytest.mark.parametrize("where", [0, 3, 7])
    def test_bad_delta_anywhere_names_it(self, bad, where, funcs):
        deltas = self.DELTAS.copy()
        deltas[where] = bad
        for kind in moduli.MODULUS_KINDS:
            with pytest.raises(DomainError, match=rf"got {bad}$"):
                modulus(funcs["sin"], 0.3, deltas, kind)

    def test_first_bad_delta_is_named(self, funcs):
        with pytest.raises(DomainError, match=r"got 4\.0$"):
            modulus(funcs["sin"], 0.3, [1.0, 4.0, math.nan, 0.0], "w_tilde")


class TestWPlain:
    def test_constant(self, funcs):
        assert modulus(funcs["const"], -1.0, 0.5, "w") == 0.0

    def test_cosine_analytic(self, funcs):
        # (1/pi) int_0^pi 2 (1 - cos u) du = 2
        got = modulus(funcs["cos"], 0.0, PI, "w")
        assert got == pytest.approx(2.0, abs=1e-10)

    def test_odd_function_has_zero_phi(self, funcs):
        assert modulus(funcs["sin"], 0.0, PI / 2, "w") == pytest.approx(0.0, abs=1e-12)


class TestBarModuli:
    def test_constant(self, funcs):
        assert modulus(funcs["const"], 0.2, 1.3, "w_tilde_bar") == 0.0
        assert modulus(funcs["const"], 0.2, 1.3, "w_bar") == 0.0

    def test_bar_dominates_plain(self, funcs):
        got_bar = modulus(funcs["cos"], PI / 2, 1.0, "w_tilde_bar")
        got_plain = modulus(funcs["cos"], PI / 2, 1.0, "w_tilde")
        assert got_bar >= got_plain - 1e-12

    def test_interior_maximum_frozen(self, funcs):
        # grid-search oracle over 2(1 - cos t)/t on (0, pi]: 1.449222707553296
        got = modulus(funcs["cos"], PI / 2, PI, "w_tilde_bar")
        assert got == pytest.approx(1.449222707553296, abs=5e-7)

    def test_domination_across_corpus(self, grid):
        for f in corpus():
            for x in (PI / 16, -7 * PI / 16):
                for delta in (PI, PI / 5, PI / 64):
                    assert modulus(f, x, delta, "w_tilde_bar", grid) >= modulus(f, x, delta, "w_tilde", grid) - 1e-12
                    assert modulus(f, x, delta, "w_bar", grid) >= modulus(f, x, delta, "w", grid) - 1e-12

    def test_bar_nondecreasing_in_delta(self, grid):
        deltas = PI / (np.arange(40, 0, -1))
        for f in corpus():
            for x in (3 * PI / 16, -PI / 2):
                for kind in ("w_tilde_bar", "w_bar"):
                    vals = [modulus(f, x, float(d), kind, grid) for d in deltas]
                    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:])), (f.name, kind)


class TestProfiles:
    def test_profile_matches_pointwise_ops(self, grid):
        f = by_name("sawtooth")
        x = 5 * PI / 16
        n = 16
        prof = modulus_profile(f, x, n, "w_tilde", grid)
        for k in (0, 3, 16):
            assert prof.values[k] == pytest.approx(modulus(f, x, PI / (k + 1), "w_tilde", grid), abs=1e-13)
        bar = modulus_profile(f, x, n, "w_tilde_bar", grid)
        for k in (0, 7):
            assert bar.values[k] == pytest.approx(modulus(f, x, PI / (k + 1), "w_tilde_bar", grid), abs=1e-13)

    def test_profile_is_the_cached_record_prefix(self, grid):
        assert moduli.ModulusProfile._fields == ("values", "averaged")
        f, x = by_name("hat"), 3 * PI / 16
        for kind in ("w_tilde", "w_tilde_bar"):
            for n in (0, 7, 512, 700):
                record = moduli._profile(f, x, kind, grid, max(n, 512))
                assert isinstance(record, moduli._Kept) and isinstance(record.data, moduli.ModulusProfile)
                cached = record.data
                prof = modulus_profile(f, x, n, kind, grid)
                assert prof.values.tobytes() == cached.values[: n + 1].tobytes(), (kind, n)
                assert prof.averaged.tobytes() == cached.averaged[: n + 1].tobytes(), (kind, n)

    def test_unknown_kind(self, grid):
        with pytest.raises(ValueError):
            modulus_profile(by_name("sin"), 0.1, 4, "w_hat", grid)

    def test_negative_n_rejected(self, grid):
        with pytest.raises(ValueError, match="^n must be nonnegative$"):
            modulus_profile(by_name("hat"), 0.3, -2, "w_tilde", grid)

    def test_all_moduli_vanish_for_constant(self, grid):
        f = by_name("const")
        for kind in ("w", "w_bar", "w_tilde", "w_tilde_bar"):
            prof = modulus_profile(f, 0.33, 32, kind, grid)
            assert np.max(np.abs(prof.values)) < 1e-12


class TestScaledFunction:
    """A power of two c scales every increment, Kronrod sum and running max exactly, so the moduli of c*f are c times
    those of f, bit for bit, as long as the mesh is the same: the sign changes must not be read from products that
    underflow (below about 1e-162) or overflow."""

    DELTAS = np.concatenate([PI / (np.arange(65.0) + 1.0), [1.0, 0.123456789, 3e-9, PI / 300]])

    @pytest.mark.parametrize("c", [2.0**-560, 2.0**-500, 2.0**500], ids=["2^-560", "2^-500", "2^500"])
    @pytest.mark.parametrize("name", ["sin3", "hat", "sawtooth"])
    def test_moduli_scale_exactly(self, name, c):
        f = by_name(name)
        scaled = PeriodicFunction(f"{c}*{name}", lambda t: c * f.eval(t), breakpoints=f.breakpoints)
        for x in (0.3, -1.1, 2.5):
            for kind in moduli.MODULUS_KINDS:
                want = c * modulus(f, x, self.DELTAS, kind)
                assert np.array_equal(modulus(scaled, x, self.DELTAS, kind), want), (x, kind)


class TestPanelMeshes:
    """Both modulus tables cut (0, pi] with functions._insert_points and no rule of their own."""

    GRIDS = [GridSpec(), GridSpec(m=64, refinement=6)]

    @staticmethod
    def master(panels: int, grid: GridSpec):
        dyadic = PI * 2.0 ** -np.arange(1.0, grid.refinement + 17.0)
        return np.linspace(0.0, PI, panels + 1), np.concatenate([dyadic, PI / np.arange(1.0, 258.0)])

    @classmethod
    def one_x(cls, f, x: float, kind: str, grid: GridSpec) -> PanelSums:
        """The table of x alone: the master set, psi's jumps, then the roots of each sign change of the increment."""
        uniform, points = cls.master(grid.m // 2, grid)
        bounds = _insert_points(uniform, np.concatenate([points, psi_breakpoints(f, x)]))
        signed = partial(moduli._INCREMENTS[kind], f, x)
        signs = np.sign(signed(bounds[1:]))
        flips = np.nonzero(signs[:-1] * signs[1:] < 0.0)[0]
        roots = moduli._bisect_roots(signed, bounds[1:][flips], bounds[2:][flips])
        return PanelSums(moduli._abs_increment(f, x, kind), _insert_points(bounds, roots))

    @pytest.mark.parametrize("grid", GRIDS, ids=["default", "m64"])
    def test_cumulative_is_master_and_breaks_then_roots(self, grid):
        for f in corpus():
            for x in (-PI / 8, 0.0, 0.3, 2.0, PI):
                for kind in ("psi", "phi"):
                    got = moduli._cumulative(f, [x], kind, grid)[0].bounds
                    assert np.array_equal(got, self.one_x(f, x, kind, grid).bounds), (f.name, x, kind)

    @pytest.mark.parametrize("kind", ["psi", "phi"])
    @pytest.mark.parametrize("grid", GRIDS, ids=["default", "m64"])
    def test_a_batch_has_the_bits_of_each_x_alone(self, grid, kind):
        xs = default_x_grid()
        mixed = [xs[4], -PI / 8, 0.0, xs[4], PI, 1.234, xs[20], 1.234]  # kept, new and repeated x
        for f in corpus():
            moduli._tables.cache_clear()
            for batch in (xs, mixed):
                tables = moduli._cumulative(f, batch, kind, grid)
                assert len(tables) == len(batch)
                for x, got in zip(batch, tables):
                    want = self.one_x(f, x, kind, grid)
                    assert np.array_equal(got.bounds, want.bounds), (f.name, x)
                    assert np.array_equal(got.cum[0], want.cum[0]) and np.array_equal(got.cum[1], want.cum[1])

    @pytest.mark.parametrize("grid", GRIDS, ids=["default", "m64"])
    def test_node_table_is_the_master_set(self, grid):
        uniform, points = self.master(min(grid.m // 2, moduli._TABLE_MAX_PANELS), grid)
        got, _ = moduli._node_table(by_name("hat"), "psi", grid)
        assert np.array_equal(got, _insert_points(uniform, points))


class TestOneBisectionPerCommand:
    """A command builds the modulus tables of all its x with one _bisect_roots call, and a repeat builds none."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls, bisect = [], moduli._bisect_roots

        def counted(g, lo, hi):
            calls.append(len(lo))
            return bisect(g, lo, hi)

        monkeypatch.setattr(moduli, "_bisect_roots", counted)
        moduli._tables.cache_clear()
        return calls

    @pytest.mark.parametrize("theorem_id", verify._POINTWISE_IDS)
    def test_pointwise_grid(self, theorem_id, calls):
        f, C = by_name("sawtooth"), cesaro(8)
        for _ in range(2):
            verify.pointwise_grid(theorem_id, f, C, C, [2, 8], default_x_grid())
            assert len(calls) == 1

    @pytest.mark.parametrize("kind", moduli.MODULUS_KINDS)
    def test_moduli_command(self, kind, calls):
        for _ in range(2):
            with redirect_stdout(io.StringIO()):
                assert cli.main(["moduli", "--function", "sin3", "--kind", kind, "--n", "8"]) == 0
            assert len(calls) == 1


class TestLpNorm:
    def test_one_in_l1(self, grid):
        assert lp_norm(lambda x: np.ones_like(x), 1, grid) == pytest.approx(2 * PI, abs=1e-12)

    def test_cos_in_l2(self, grid):
        assert lp_norm(np.cos, 2, grid) == pytest.approx(math.sqrt(PI), abs=1e-12)

    def test_sin_in_linf(self, grid):
        assert lp_norm(np.sin, math.inf, grid) == 1.0

    def test_p_below_one_rejected(self, grid):
        with pytest.raises(DomainError):
            lp_norm(np.sin, 0.5, grid)

    def test_nan_p_rejected(self, grid):
        with pytest.raises(DomainError):
            lp_norm(np.sin, math.nan, grid)

    def test_array_norms_keep_the_bits_of_sum_and_sqrt(self, grid):
        # numpy maps an array's **1.0 to a copy and **0.5 to sqrt, so the classical
        # moduli (rows of norms) need no p = 1 or p = 2 branch to keep their bits
        x = moduli._x_nodes(grid)[None, :]
        values = np.abs(moduli._INCREMENTS["psi"](by_name("hat"), x, PI / np.arange(1.0, 300.0)[:, None]))
        h = 2 * PI / grid.m
        assert lp_norms(values, 1.0, h).tobytes() == (h * values.sum(axis=-1)).tobytes()
        assert lp_norms(values, 2.0, h).tobytes() == np.sqrt(h * np.sum(values**2, axis=-1)).tobytes()


class TestClassicalModulus:
    def test_constant(self, grid):
        for p in (1.0, 2.0, math.inf):
            assert classical_modulus(by_name("const"), 1.0, p, grid) == 0.0

    def test_sine_l2_frozen(self, grid):
        # ||psi_.(t)||_2 = 2 sin t * sqrt(pi), increasing up to pi/2
        got = classical_modulus(by_name("sin"), PI / 2, 2, grid)
        assert got == pytest.approx(3.5449077018110318, abs=1e-10)

    def test_sine_sup_norm(self, grid):
        got = classical_modulus(by_name("sin"), PI / 2, math.inf, grid)
        assert got == pytest.approx(2.0, abs=1e-12)

    def test_p_below_one_rejected(self, grid):
        with pytest.raises(DomainError):
            classical_modulus(by_name("sin"), 1.0, 0.9, grid)

    def test_nan_p_rejected(self, grid):
        with pytest.raises(DomainError):
            classical_modulus(by_name("sin"), 1.0, math.nan, grid)

    def test_node_delta_reads_the_table(self, grid, monkeypatch):
        # the endpoint norm of a node delta is the table's norm there, bit for bit
        t = moduli._classical_t_set()
        deltas = np.concatenate([t[::9], PI / np.arange(1.0, 130.0, 16.0)])
        cases = [(f, p) for f in corpus() for p in (1.0, 2.0, 3.0, math.inf)]
        want = {}
        for f, p in cases:
            norms = moduli._increment_norms(f, t, p, grid)
            moduli._classical_table(f, p, grid)  # filled here, so the reads below evaluate nothing
            for d in deltas:
                endpoint = moduli._increment_norms(f, np.array([d]), p, grid)[0]
                want[f.name, p, d] = max(float(norms[t <= d].max()), float(endpoint))
        calls = []
        original = moduli._increment_norms
        monkeypatch.setattr(moduli, "_increment_norms", lambda *a: calls.append(a) or original(*a))
        for f, p in cases:
            for d in deltas:
                assert classical_modulus(f, float(d), p, grid) == want[f.name, p, d]
        assert calls == []
        classical_modulus(by_name("sin"), 0.3, 2.0, grid)
        assert len(calls) == 1

    def test_array_equals_the_float_loop(self, grid, monkeypatch):
        # on and off the t-set: one batched endpoint call covers every delta off the set
        t = moduli._classical_t_set()
        on = np.concatenate([t[::11], PI / np.arange(1.0, 130.0, 8.0)])
        off = np.array([0.3, 1e-3, PI / 200.5, PI / 300, 2.0, 1e-9])
        deltas = np.random.default_rng(3).permutation(np.concatenate([on, off]))
        calls = []
        original = moduli._increment_norms
        monkeypatch.setattr(moduli, "_increment_norms", lambda *a: calls.append(a[1]) or original(*a))
        for f in corpus():
            for p in (1.0, 2.0, 3.0, math.inf):
                want = [classical_modulus(f, float(d), p, grid) for d in deltas]
                calls.clear()
                got = classical_modulus(f, deltas, p, grid)
                assert np.array_equal(got, want), (f.name, p)
                assert len(calls) == 1 and np.array_equal(calls[0], deltas[np.isin(deltas, off)])
                calls.clear()
                classical_modulus(f, on, p, grid)
                assert calls == []

    def test_array_rejects_a_bad_delta(self, grid):
        with pytest.raises(DomainError, match="got nan"):
            classical_modulus(by_name("sin"), np.array([1.0, math.nan]), 2.0, grid)

    def test_nondecreasing_in_delta(self, grid):
        f = by_name("sawtooth")
        deltas = PI / np.arange(16.0, 0.0, -1.0)
        for p in (1.0, 2.0, math.inf):
            vals = [classical_modulus(f, float(d), p, grid) for d in deltas]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


class TestEq81:
    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    def test_pointwise_norm_below_classical(self, p, grid):
        for f in corpus():
            for k in (0, 3, 11):
                delta = PI / (k + 1)
                _, vals = pointwise_modulus_on_nodes(f, delta, "w_tilde", grid)
                h = 2 * PI / grid.m
                if math.isinf(p):
                    lhs = float(vals.max())
                else:
                    lhs = float((h * np.sum(vals**p)) ** (1.0 / p))
                rhs = classical_modulus(f, delta, p, grid)
                assert lhs <= rhs * (1 + 1e-6) + 1e-12, (f.name, k, p)

    def test_batched_matches_pointwise(self, grid):
        f = by_name("cos")
        delta = PI / 4
        xs, vals = pointwise_modulus_on_nodes(f, delta, "w_tilde", grid)
        for idx in (0, 17, 911):
            want = modulus(f, float(xs[idx]), delta, "w_tilde", grid)
            assert vals[idx] == pytest.approx(want, abs=1e-7)

    @pytest.mark.parametrize("kind", ["w_tilde", "w"])
    def test_node_table_matches_kink_refined(self, kind, grid):
        # measured worst case 4.9e-8 (w_tilde, sin3, delta = pi, where |psi| has
        # unrefined kinks at its roots); every other case, w at k = 0 included, is within 5e-15
        idx = list(range(0, grid.m, 37)) + [255, 256, 511, 512, 513, 767, 768, grid.m - 1]
        for f in corpus():
            for k in (0, 3, 11, 32, 300):
                delta = PI / (k + 1)
                xs, vals = pointwise_modulus_on_nodes(f, delta, kind, grid)
                err = max(abs(vals[i] - modulus(f, float(xs[i]), delta, kind, grid)) for i in idx)
                assert err <= (1e-7 if (kind, k) == ("w_tilde", 0) else 1e-14), (f.name, k, err)

    def test_one_delta_per_call(self, funcs):
        with pytest.raises(DomainError, match=r"^delta must be a single value, got an array of shape \(2,\)$"):
            pointwise_modulus_on_nodes(funcs["hat"], np.array([0.1, 0.2]), "w_tilde")
        with pytest.raises(DomainError, match=r"^delta must lie in \(0, pi\], got 4\.0$"):
            pointwise_modulus_on_nodes(funcs["hat"], 4.0, "w_tilde")


class TestLemma2:
    def test_negative_n_rejected(self, funcs):
        with pytest.raises(ValueError, match="^n must be nonnegative$"):
            lemma2_check(funcs["hat"], 0.3, -1)

    def test_trivial_n_zero(self, grid):
        r = lemma2_check(by_name("sin"), 0.0, 0, grid)
        assert r.plain_pass and r.bar_pass
        assert r.plain_rhs == pytest.approx(2 * r.plain_lhs)
        assert r.bar_rhs == pytest.approx(r.bar_lhs)

    def test_sine_passes(self, grid):
        r = lemma2_check(by_name("sin"), 0.0, 7, grid)
        assert r.plain_pass and r.bar_pass
        assert r.plain_lhs <= r.plain_rhs
        assert r.bar_lhs <= r.bar_rhs

    def test_constant_passes_with_zeros(self, grid):
        r = lemma2_check(by_name("const"), 0.5, 5, grid)
        assert r.plain_pass and r.bar_pass
        assert r.plain_lhs == 0.0 and r.bar_lhs == 0.0

    def test_sample_across_corpus(self, grid):
        for f in corpus():
            for x in (PI / 16, -13 * PI / 16):
                for n in (1, 10, 64):
                    r = lemma2_check(f, x, n, grid)
                    assert r.plain_pass and r.bar_pass, (f.name, x, n)
