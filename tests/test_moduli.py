import math

import numpy as np
import pytest

from conjsum import moduli
from conjsum.functions import DomainError, by_name, corpus
from conjsum.moduli import (
    classical_modulus,
    lemma2_check,
    lp_norm,
    modulus,
    modulus_profile,
    pointwise_modulus_on_nodes,
)

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
        assert prof.x == x
        for k in (0, 3, 16):
            assert prof.values[k] == pytest.approx(modulus(f, x, PI / (k + 1), "w_tilde", grid), abs=1e-13)
        bar = modulus_profile(f, x, n, "w_tilde_bar", grid)
        for k in (0, 7):
            assert bar.values[k] == pytest.approx(modulus(f, x, PI / (k + 1), "w_tilde_bar", grid), abs=1e-13)

    def test_profile_deltas(self, grid):
        prof = modulus_profile(by_name("sin"), 0.1, 4, "w", grid)
        assert np.allclose(prof.deltas, PI / np.arange(1.0, 6.0))

    def test_unknown_kind(self, grid):
        with pytest.raises(ValueError):
            modulus_profile(by_name("sin"), 0.1, 4, "w_hat", grid)

    def test_all_moduli_vanish_for_constant(self, grid):
        f = by_name("const")
        for kind in ("w", "w_bar", "w_tilde", "w_tilde_bar"):
            prof = modulus_profile(f, 0.33, 32, kind, grid)
            assert np.max(np.abs(prof.values)) < 1e-12


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

    def test_phi_variant_differs(self, grid):
        f = by_name("cos")
        tilde = classical_modulus(f, PI / 2, 2, grid, conjugate=True)
        plain = classical_modulus(f, PI / 2, 2, grid, conjugate=False)
        assert tilde != plain

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
        cases = [(f, p, c) for f in corpus() for p in (1.0, 2.0, 3.0, math.inf) for c in (True, False)]
        want = {}
        for f, p, conjugate in cases:
            kind = "psi" if conjugate else "phi"
            norms = moduli._classical_table(f, p, kind, grid)[1]
            for d in deltas:
                endpoint = moduli._increment_norms(f, np.array([d]), p, kind, grid)[0]
                want[f.name, p, conjugate, d] = max(float(norms[t <= d].max()), float(endpoint))
        calls = []
        original = moduli._increment_norms
        monkeypatch.setattr(moduli, "_increment_norms", lambda *a: calls.append(a) or original(*a))
        for f, p, conjugate in cases:
            for d in deltas:
                assert classical_modulus(f, float(d), p, grid, conjugate) == want[f.name, p, conjugate, d]
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
                for conjugate in (True, False):
                    want = [classical_modulus(f, float(d), p, grid, conjugate) for d in deltas]
                    calls.clear()
                    got = classical_modulus(f, deltas, p, grid, conjugate)
                    assert np.array_equal(got, want), (f.name, p, conjugate)
                    assert len(calls) == 1 and np.array_equal(calls[0], deltas[np.isin(deltas, off)])
                    calls.clear()
                    classical_modulus(f, on, p, grid, conjugate)
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
        # measured worst case 1.64e-7 (sin3, delta = pi, where |psi| has unrefined
        # kinks at its roots); every other case is within 5e-15
        idx = list(range(0, grid.m, 37)) + [255, 256, 511, 512, 513, 767, 768, grid.m - 1]
        for f in corpus():
            for k in (0, 3, 11, 32, 300):
                delta = PI / (k + 1)
                xs, vals = pointwise_modulus_on_nodes(f, delta, kind, grid)
                err = max(abs(vals[i] - modulus(f, float(xs[i]), delta, kind, grid)) for i in idx)
                assert err <= (2e-7 if k == 0 else 1e-14), (f.name, k, err)


class TestLemma2:
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
