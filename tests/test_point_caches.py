"""The one-point functions of verify and modulus_profile against references built without their caches.

transform_value, lhs_theorem1, rhs_theorem1, rhs_theorem2 and lemma2_check
read the AB weights kept on A, one partial-sum table per (f, x) and one
modulus profile per (f, x, kind), each built once up to max(n, 512).  The references here add the weights in a loop over r, take the
partial sums from fresh coefficients and the profiles straight from modulus,
and every value must agree exactly (==).  The order checks run before any of
those caches is read, so a failing call adds nothing to them, and a
non-finite x is refused before any cache keyed by x is consulted.
"""

import dataclasses
import math
import re

import numpy as np
import pytest

from conjsum import conjugate, moduli, verify
from conjsum.conjugate import conjugate_at, conjugate_truncated, deviation_kernel_form
from conjsum.functions import DEFAULT_GRID, PI, DomainError, by_name, check_x, corpus
from conjsum.kernels import DEFAULT_COEFF_CUTOFF, fourier_coeffs, partial_sum_table
from conjsum.moduli import MODULUS_KINDS, lemma2_check, modulus, modulus_profile
from conjsum.summability import MatrixValidationError, ab_weights, cesaro, identity_matrix, nordlund
from conjsum.verify import lhs_theorem1, rhs_theorem1, rhs_theorem2, transform_value

NS = [0, 1, 8, 128, 512]
XS = [0.3, -2.2]
TOP = max(NS)


def ref_weights(A, B, n):
    weights = np.zeros(n + 1)
    for r in range(n + 1):
        weights[: r + 1] += A.row(n)[r] * B.row(r)
    return weights


def ref_profile(f, x, n, kind):
    return modulus(f, x, PI / (np.arange(n + 1) + 1.0), kind, DEFAULT_GRID)


def ref_averaged(values):
    return np.cumsum(values) / (np.arange(len(values)) + 1.0)


def ref_lemma2(f, x, n):
    plain, bar = ref_profile(f, x, n, "w_tilde"), ref_profile(f, x, n, "w_tilde_bar")
    plain_rhs = 2.0 * math.fsum(plain.tolist()) / (n + 1)
    bar_rhs = math.fsum(bar.tolist()) / (n + 1)
    return moduli.Lemma2Result(
        float(plain[n]) <= plain_rhs + moduli.LEMMA2_SLACK, float(plain[n]), plain_rhs,
        float(bar[n]) <= bar_rhs + moduli.LEMMA2_SLACK, float(bar[n]), bar_rhs,
    )


def matrix_pairs():
    C, I = cesaro(TOP), identity_matrix(TOP)
    p = (np.arange(TOP + 1.0) + 1.0) ** -0.75
    return {"cesaro/cesaro": (C, C), "cesaro/identity": (C, I), "identity/cesaro": (I, C),
            "nordlund/nordlund": (nordlund(p, TOP), nordlund(np.sqrt(p), TOP))}


def new_cache_sizes(*matrices):
    return (verify._partial_sums.cache_info().currsize, moduli._profile.cache_info().currsize,
            *(sum(map(len, M._ab_weights.values())) for M in matrices))


@pytest.mark.parametrize("f", corpus(), ids=lambda f: f.name)
def test_one_point_functions_match_cache_free_references(f):
    coeffs = fourier_coeffs(f, DEFAULT_COEFF_CUTOFF, DEFAULT_GRID)
    for x in XS:
        sums = {conj: partial_sum_table(coeffs, TOP, x, conj) for conj in (True, False)}
        profiles = {kind: ref_profile(f, x, TOP, kind) for kind in ("w_tilde", "w_tilde_bar")}
        full = conjugate_at(f, x)
        for label, (A, B) in matrix_pairs().items():
            for n in NS:
                weights = ref_weights(A, B, n)
                assert np.array_equal(ab_weights(A, B, n), weights), (label, n)
                for conj in (True, False):
                    want = math.fsum((weights * sums[conj][: n + 1]).tolist())
                    assert transform_value(f, A, B, n, x, DEFAULT_GRID, conj) == want, (label, n, conj)
                want = math.fsum((weights * sums[True][: n + 1]).tolist())
                truncated = conjugate_truncated(f, x, PI / (n + 1))
                assert lhs_theorem1(f, A, B, x, n, True) == abs(want - truncated)
                assert lhs_theorem1(f, A, B, x, n, False) == abs(want - full)
                bar = ref_averaged(profiles["w_tilde_bar"][: n + 1])
                assert rhs_theorem1(f, A, x, n) == float(np.dot(A.row(n), bar))
        for n in NS:
            assert rhs_theorem2(f, x, n) == float(np.mean(ref_averaged(profiles["w_tilde"][: n + 1])))
            assert lemma2_check(f, x, n) == ref_lemma2(f, x, n)


@pytest.mark.parametrize("kind", MODULUS_KINDS)
def test_profile_above_the_cutoff(kind):
    f = by_name("sawtooth")
    for n in (700, 8, DEFAULT_COEFF_CUTOFF, 701):
        profile = modulus_profile(f, 0.3, n, kind)
        assert profile.values.tobytes() == ref_profile(f, 0.3, n, kind).tobytes()
        assert len(profile.values) == n + 1 and not profile.values.flags.writeable


@pytest.mark.parametrize("kind", MODULUS_KINDS)
def test_averaged_profile_is_the_average_of_each_n(kind):
    # the cached running averages, read as a prefix, have the bits of averaging that n's own profile
    f = by_name("hat")
    for x in XS:
        for n in (700, 0, 1, 8, DEFAULT_COEFF_CUTOFF, 701):
            averaged = modulus_profile(f, x, n, kind).averaged
            assert averaged.tobytes() == ref_averaged(ref_profile(f, x, n, kind)).tobytes(), (x, n)
            assert len(averaged) == n + 1 and not averaged.flags.writeable


def test_transform_above_512_reads_its_own_coefficients():
    # every n <= 512 reads the N = 512 coefficients, and each n above 512 its own N = n set
    f, x, A = by_name("hat"), 0.3, cesaro(1000)
    for n in (1000, 8, DEFAULT_COEFF_CUTOFF, 513):
        sums = partial_sum_table(fourier_coeffs(f, max(n, DEFAULT_COEFF_CUTOFF), DEFAULT_GRID), n, x, True)
        assert transform_value(f, A, A, n, x) == math.fsum((ref_weights(A, A, n) * sums).tolist()), n


def test_transform_errors_keep_their_order_and_cache_nothing():
    f = by_name("hat")
    small, big = cesaro(8), cesaro(700)
    cases = [
        (small, 9, MatrixValidationError, "transform order n=9 is outside the matrix size (A: 8, B: 8)"),
        (small, 600, MatrixValidationError, "transform order n=600 is outside the matrix size (A: 8, B: 8)"),
        (big, 701, MatrixValidationError, "transform order n=701 is outside the matrix size (A: 700, B: 700)"),
        (small, -1, MatrixValidationError, "transform order n=-1 is outside the matrix size (A: 8, B: 8)"),
    ]
    for A, n, error, message in cases:
        before = new_cache_sizes(small, big)
        with pytest.raises(error) as info:
            transform_value(f, A, A, n, 0.77)
        assert str(info.value) == message
        assert new_cache_sizes(small, big) == before


def test_failing_profiles_cache_nothing():
    f = by_name("hat")
    before = new_cache_sizes()
    for n, kind, x in ((-2, "w_tilde", 0.4), (3, "w_hat", 0.4), (3, "w_tilde", math.nan)):
        with pytest.raises(ValueError):
            modulus_profile(f, x, n, kind)
    assert new_cache_sizes() == before


X_KEYED = (moduli._cumulative, moduli._profile, conjugate._table, conjugate._truncated_cached,
           conjugate._kernel_nodes, verify._partial_sums)

NON_FINITE_CALLS = {
    "transform_value": lambda f, C, x: transform_value(f, C, C, 4, x),
    "lhs_theorem1": lambda f, C, x: lhs_theorem1(f, C, C, x, 4, True),
    "rhs_theorem1": lambda f, C, x: rhs_theorem1(f, C, x, 4),
    "rhs_theorem2": lambda f, C, x: rhs_theorem2(f, x, 4),
    "lemma2_check": lambda f, C, x: lemma2_check(f, x, 4),
    "modulus": lambda f, C, x: modulus(f, x, 0.5, "w_tilde"),
    "modulus_profile": lambda f, C, x: modulus_profile(f, x, 4, "w"),
    "conjugate_at": lambda f, C, x: conjugate_at(f, x),
    "conjugate_truncated": lambda f, C, x: conjugate_truncated(f, x, 0.5),
    "deviation_kernel_form": lambda f, C, x: deviation_kernel_form(f, C, C, 4, x),
    "check_condition_2_511": lambda f, C, x: moduli.check_condition_2_511(f, x, 4),
}


def as_bytes(value):
    if dataclasses.is_dataclass(value):
        return tuple(as_bytes(getattr(value, field.name)) for field in dataclasses.fields(value))
    return np.asarray(value).tobytes()


@pytest.mark.parametrize("name", sorted(NON_FINITE_CALLS))
def test_far_x_is_reduced_by_the_period(name):
    # an x in [-pi, pi] is kept as it is; any other x up to 2^20 gives the bits of math.remainder(x, 2 pi)
    f, C = by_name("hat"), cesaro(8)
    for x in (2.0**20, -2.0**20, 1e6, 7.5, -4.0):
        reduced = math.remainder(x, 2 * PI)
        assert -PI <= reduced <= PI and check_x("x", x) == reduced
        assert as_bytes(NON_FINITE_CALLS[name](f, C, x)) == as_bytes(NON_FINITE_CALLS[name](f, C, reduced)), x
    assert [check_x("x", x) for x in (PI, -PI, 0.3, -1e-300)] == [PI, -PI, 0.3, -1e-300]


@pytest.mark.parametrize("x", [1e17, -1e308, math.nextafter(2.0**20, math.inf)])
@pytest.mark.parametrize("name", sorted(NON_FINITE_CALLS))
def test_x_beyond_the_bound_is_refused_before_any_cache(name, x):
    f, C = by_name("hat"), cesaro(8)
    before = [cache.cache_info() for cache in X_KEYED]
    with pytest.raises(DomainError, match=rf"^x must lie in \[-2\^20, 2\^20\], got {re.escape(str(x))}$"):
        NON_FINITE_CALLS[name](f, C, x)
    assert [cache.cache_info() for cache in X_KEYED] == before
    assert len(C._ab_weights) == 0


def test_out_of_range_order_fills_no_x_keyed_cache():
    f, C = by_name("hat"), cesaro(8)
    calls = (lambda: transform_value(f, C, C, 9, 0.77), lambda: lhs_theorem1(f, C, C, 0.77, 9, False),
             lambda: deviation_kernel_form(f, C, C, 9, 0.77))
    before = [cache.cache_info() for cache in X_KEYED]
    for call in calls:
        with pytest.raises(MatrixValidationError):
            call()
    assert [cache.cache_info() for cache in X_KEYED] == before


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", sorted(NON_FINITE_CALLS))
def test_non_finite_x_is_refused_before_any_cache(name, x):
    f, C = by_name("hat"), cesaro(8)
    before = [cache.cache_info() for cache in X_KEYED]
    with pytest.raises(DomainError, match=f"^x must be finite, got {x}$"):
        NON_FINITE_CALLS[name](f, C, x)
    assert [cache.cache_info() for cache in X_KEYED] == before
    assert len(C._ab_weights) == 0
