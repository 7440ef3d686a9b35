"""The one-point functions of verify and modulus_profile against references built without their caches.

transform_value, lhs_theorem1, rhs_theorem1, rhs_theorem2 and lemma2_check
read the AB weights kept on A, one partial-sum table per (f, x) and one
modulus profile per (f, x, kind), each built once up to max(n, 512), and
transform_value keeps each value it sums beside its table, per (A, B, n), as
rhs_theorem1 keeps its values on the profile record per (A, n),
rhs_theorem2 per n, conjugate_truncated and conjugate_at their
(value, estimate) pairs on the conjugate table of x per eps, and
deviation_kernel_form its pair of deviations on the cut record of (x, n) per
(A, B).
The references here add the weights in a loop over r, take the partial sums
from fresh coefficients and the profiles straight from modulus, and every
value, first call or kept, must agree exactly (==).  The order checks run
before any of those caches is read, so a failing call adds nothing to them,
and a non-finite x is refused before any cache keyed by x is consulted.
"""

import dataclasses
import gc
import math
import re

import numpy as np
import pytest

from conjsum import conjugate, moduli, verify
from conjsum.conjugate import conjugate_at, conjugate_truncated, deviation_kernel_form
from conjsum.base import ConvergenceError, _Kept
from conjsum.functions import (
    DEFAULT_GRID, PI, DomainError, GridSpec, PanelSums, PeriodicFunction, by_name, check_x, corpus, eval_psi,
)
from conjsum.kernels import DEFAULT_COEFF_CUTOFF, fourier_coeffs, partial_sum_table
from conjsum.moduli import MODULUS_KINDS, lemma2_check, modulus, modulus_profile
from conjsum.summability import MatrixValidationError, ab_tails, ab_weights, cesaro, identity_matrix, nordlund
from conjsum.verify import lhs_theorem1, rhs_theorem1, rhs_theorem2, transform_value
from test_conjugate import kernel_form_reference

NS = [0, 1, 8, 128, 512]
XS = [0.3, -2.2]
TOP = max(NS)


def ref_weights(A, B, n):
    weights = np.zeros(n + 1)
    for r in range(n + 1):
        weights[: r + 1] += A.row(n)[r] * B.row(r)
    return weights


def ref_profile(f, x, n, kind, grid=DEFAULT_GRID):
    return modulus(f, x, PI / (np.arange(n + 1) + 1.0), kind, grid)


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


def live_records(data_types=(np.ndarray, moduli.ModulusProfile, tuple)):
    """The live _Kept records whose data is of data_types: by default the partial-sum, profile and cut records.

    PanelSums picks the conjugate tables; a matrix's records and every record under a key hold None.
    """
    return [obj for obj in gc.get_objects() if isinstance(obj, _Kept) and isinstance(obj.data, data_types)]


def count_kept(node):
    """Every value in a _Kept tree."""
    return len(node.summed) + sum(map(count_kept, (node.below or {}).values()))


def kept_in(node, *matrices):
    """The values a record's _Kept tree keeps under a first key A among matrices."""
    below = node.below or {}
    return sum(count_kept(below[A]) for A in matrices if A in below)


def kept_values(*matrices):
    """How many values the live records keep with A among matrices.

    These are the transform values, the Theorem 1 right sides and the kernel-form pairs.
    """
    return sum(kept_in(record, *matrices) for record in live_records())


def kept_by_n():
    """How many values the live records keep by n alone: the Theorem 2 right sides."""
    return sum(len(record.summed) for record in live_records())


def kept_pairs():
    """How many (value, estimate) pairs the live conjugate tables keep by eps."""
    return sum(len(record.summed) for record in live_records(PanelSums))


def new_cache_sizes(*matrices):
    return (verify._partial_sums.cache_info().currsize, moduli._profile.cache_info().currsize, kept_values(*matrices),
            kept_by_n(), kept_pairs(), *(count_kept(kept) for M in matrices for kept in (M._ab_weights, M._ab_tails)))


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
                    assert transform_value(f, A, B, n, x, DEFAULT_GRID, conj) == want, (label, n, conj)  # kept
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


def test_kept_values_stay_with_their_partner_flag_and_grid():
    # every (grid, conjugate, B, n) gets its own reference, first call and kept, and the references all differ:
    # m = 8192 puts 1024 panels under the coefficients where the default grid puts 666, and the cusps of
    # sqrt|sin|, unlisted as breakpoints, make the two coefficient sets differ well above rounding
    f, x, top = PeriodicFunction("root-sine", lambda t: np.sqrt(np.abs(np.sin(t)))), 0.3, 64
    C, I = cesaro(top), identity_matrix(top)
    N = nordlund((np.arange(top + 1.0) + 1.0) ** -0.75, top)
    wants = {}
    for grid in (DEFAULT_GRID, GridSpec(m=8192)):
        coeffs = fourier_coeffs(f, DEFAULT_COEFF_CUTOFF, grid)
        for conj in (True, False):
            sums = partial_sum_table(coeffs, top, x, conj)
            for B in (C, I, N):
                for n in (5, top):
                    want = wants[grid, conj, B.name, n] = math.fsum((ref_weights(C, B, n) * sums[: n + 1]).tolist())
                    key = (grid.m, conj, B.name, n)
                    assert transform_value(f, C, B, n, x, grid, conj) == want, key
                    assert transform_value(f, C, B, n, x, grid, conj) == want, key
                    table = verify._partial_sums(f, x, grid, conj, DEFAULT_COEFF_CUTOFF)
                    assert table.under(C).under(B).summed[n] == want
    assert len(set(wants.values())) == len(wants)


def test_a_kept_value_is_returned_without_a_second_sum():
    f, x, C = by_name("hat"), 0.3, cesaro(8)
    table = verify._partial_sums(f, x, DEFAULT_GRID, False, DEFAULT_COEFF_CUTOFF)
    first = transform_value(f, C, C, 8, x, DEFAULT_GRID, False)
    table.under(C).under(C).summed[8] = marker = first + 1.0  # C is local, so the marker goes with it
    assert transform_value(f, C, C, 8, x, DEFAULT_GRID, False) is marker
    assert transform_value(f, C, C, 8, x) != marker  # the conjugate table keeps its own


def test_kept_values_go_with_either_matrix():
    f, x = by_name("hat"), 0.3
    C, I = cesaro(16), identity_matrix(16)
    table = verify._partial_sums(f, x, DEFAULT_GRID, True, DEFAULT_COEFF_CUTOFF)
    for A, B in ((C, C), (C, I), (I, C)):
        transform_value(f, A, B, 8, x)
    below = table.below
    assert (len(below[C].below), len(below[I].below), kept_in(table, C, I)) == (2, 1, 3)
    del A, B, I
    gc.collect()
    assert list(below) == [C] and list(below[C].below) == [C]
    del C
    gc.collect()
    assert len(below) == 0


def fresh_hat():
    """hat under a new identity, so its cache records are this test's alone."""
    hat = by_name("hat")
    return PeriodicFunction("hat", hat.eval, breakpoints=hat.breakpoints)


def test_a_kept_right_side_is_returned_without_a_second_sum():
    f, x, C = fresh_hat(), 0.3, cesaro(8)
    first1, first2 = rhs_theorem1(f, C, x, 8), rhs_theorem2(f, x, 8)
    assert rhs_theorem1(f, C, x, 8) is first1 and rhs_theorem2(f, x, 8) is first2  # the cold floats themselves
    bar, plain = (moduli._profile(f, x, kind, DEFAULT_GRID, DEFAULT_COEFF_CUTOFF)
                  for kind in ("w_tilde_bar", "w_tilde"))
    bar.under(C).summed[8] = marker1 = first1 + 1.0
    plain.summed[8] = marker2 = first2 + 1.0
    assert rhs_theorem1(f, C, x, 8) is marker1 and rhs_theorem2(f, x, 8) is marker2
    assert rhs_theorem1(f, cesaro(8), x, 8) == first1  # an equal A sums its own


def test_kept_right_sides_stay_with_their_matrix_kind_grid_and_order():
    # every (grid, A, n) of Theorem 1 and (grid, n) of Theorem 2 gets its own reference, first call and kept, and
    # the references all differ (the unlisted cusps of sqrt|sin| make the two grids' moduli differ)
    f, x, top = PeriodicFunction("root-sine", lambda t: np.sqrt(np.abs(np.sin(t)))), 0.3, 600
    C, I = cesaro(top), identity_matrix(top)
    N = nordlund((np.arange(top + 1.0) + 1.0) ** -0.75, top)
    ns = (5, 64, DEFAULT_COEFF_CUTOFF, 513, top)
    wants = {}
    for grid in (DEFAULT_GRID, GridSpec(m=8192)):
        for n in ns:
            plain, bar = (ref_averaged(ref_profile(f, x, n, kind, grid)) for kind in ("w_tilde", "w_tilde_bar"))
            want = wants[grid.m, "T2", n] = float(np.mean(plain))
            assert rhs_theorem2(f, x, n, grid) == want and rhs_theorem2(f, x, n, grid) == want, (grid.m, n)
            for A in (C, I, N):
                want = wants[grid.m, A.name, n] = float(np.dot(A.row(n), bar))
                assert rhs_theorem1(f, A, x, n, grid) == want and rhs_theorem1(f, A, x, n, grid) == want, (A, n)
        # each value sits in the record of its kind and of its top, max(n, 512)
        for record_top, kept_ns in ((DEFAULT_COEFF_CUTOFF, [5, 64, DEFAULT_COEFF_CUTOFF]), (513, [513]), (top, [top])):
            bar, plain = (moduli._profile(f, x, kind, grid, record_top) for kind in ("w_tilde_bar", "w_tilde"))
            assert list(bar.below) == [C, I, N] and bar.summed == {}
            assert [list(bar.below[A].summed) for A in (C, I, N)] == [kept_ns] * 3
            assert list(plain.summed) == kept_ns and plain.below is None
    assert len(set(wants.values())) == len(wants)


def test_kept_right_sides_go_with_their_matrix():
    f, x, C, I = fresh_hat(), 0.3, cesaro(16), identity_matrix(16)
    for A in (C, I):
        for n in (8, 16):
            rhs_theorem1(f, A, x, n)
    rhs_theorem2(f, x, 8)
    below = moduli._profile(f, x, "w_tilde_bar", DEFAULT_GRID, DEFAULT_COEFF_CUTOFF).below
    assert list(below) == [C, I] and kept_values(C, I) == 4
    del A, I
    gc.collect()
    assert list(below) == [C] and kept_values(C) == 2
    del C
    gc.collect()
    assert len(below) == 0
    assert list(moduli._profile(f, x, "w_tilde", DEFAULT_GRID, DEFAULT_COEFF_CUTOFF).summed) == [8]


def ref_pair(f, x, eps, grid=DEFAULT_GRID):
    """(f~(x, eps), its error estimate) from a fresh panel-sum table on the mesh of (f, x, grid); eps < pi."""

    def integrand(t):
        return eval_psi(f, x, t) * 0.5 / np.tan(0.5 * t)

    kronrod, gauss = PanelSums(integrand, conjugate._mesh(f, x, grid), from_top=True).at(np.array([eps]))
    return float(-kronrod[0] / PI), float(abs(kronrod[0] - gauss[0]) / PI)


def test_a_kept_pair_is_returned_without_a_second_table_read(monkeypatch):
    f, x, eps = fresh_hat(), 0.3, PI / 9
    first, full = conjugate_truncated(f, x, eps), conjugate_at(f, x)
    record = conjugate._table(f, x, DEFAULT_GRID)
    assert list(record.summed) == [eps, 0.0] and [record.summed[e][0] for e in (eps, 0.0)] == [first, full]
    record.summed[eps] = (marker1 := first + 1.0), 0.0
    record.summed[0.0] = (marker2 := full + 1.0), 0.0

    def read_again(*args):
        raise AssertionError("a kept pair was read from the table again")

    monkeypatch.setattr(conjugate, "_truncated", read_again)
    assert conjugate_truncated(f, x, eps) is marker1 and conjugate_at(f, x) is marker2


def test_clearing_the_table_cache_drops_its_pairs():
    f, x, eps = fresh_hat(), 0.3, 0.5
    first = conjugate_truncated(f, x, eps)
    record = conjugate._table(f, x, DEFAULT_GRID)
    record.summed[eps] = first + 1.0, 0.0
    conjugate._table.cache_clear()
    assert conjugate_truncated(f, x, eps) == first
    assert conjugate._table(f, x, DEFAULT_GRID) is not record
    assert list(conjugate._table(f, x, DEFAULT_GRID).summed) == [eps]


def test_kept_pairs_stay_with_their_function_point_eps_and_grid():
    # every (grid, f, x, eps) gets its own reference, first call and kept, and the references all differ: the
    # unlisted kinks of |sin|^3 and |cos|^3 make the two grids' values differ; eps = 0 is conjugate_at's pair
    wants = {}
    for grid in (DEFAULT_GRID, GridSpec(m=256, refinement=16)):
        for f in (PeriodicFunction("cube-sine", lambda t: np.abs(np.sin(t)) ** 3),
                  PeriodicFunction("cube-cosine", lambda t: np.abs(np.cos(t)) ** 3)):
            for x in (0.3, -2.2):
                for eps in (0.0, PI / 9, 0.5):
                    want = wants[grid.m, f.name, x, eps] = ref_pair(f, x, eps, grid)
                    for _ in range(2):
                        got = conjugate_at(f, x, grid) if eps == 0.0 else conjugate_truncated(f, x, eps, grid)
                        assert got == want[0], (grid.m, f.name, x, eps)
                    assert conjugate._table(f, x, grid).summed[eps] == want
    assert len({value for value, _ in wants.values()}) == len(wants)


def test_float_and_array_calls_give_the_same_bits():
    # the float call keeps its pair and the array call sums afresh: in either order they agree, eps = pi included
    f, eps = fresh_hat(), PI / (np.arange(64.0) + 1.0)
    calls = {"floats": lambda x: [conjugate_truncated(f, x, e) for e in eps.tolist()],
             "array": lambda x: conjugate_truncated(f, x, eps).tolist()}
    for x, order in ((0.3, ("floats", "array")), (-2.2, ("array", "floats"))):
        got = {name: calls[name](x) for name in order}
        assert got["array"] == got["floats"] and got["floats"][0] == 0.0, x
        assert all(type(value) is float for value in got["floats"])
        assert [conjugate._table(f, x, DEFAULT_GRID).summed[e][0] for e in eps.tolist()] == got["floats"]


def pair_bits(pairs):
    """The bits of a list of (value, estimate) pairs, so that 0.0 and -0.0 differ."""
    return np.array(pairs, dtype=float).tobytes()


BATCH_ORDERS = {
    "in order": list(range(65)),
    "shuffled": np.random.default_rng(7).permutation(np.r_[0:65, 511, 512, 4096]).tolist(),
    "repeats": [5, 0, 17, 5, 4096, 0, 17, 5],
}


@pytest.mark.parametrize("orders", BATCH_ORDERS, ids=list(BATCH_ORDERS))
@pytest.mark.parametrize("f", corpus(), ids=lambda f: f.name)
def test_a_batch_has_the_bits_of_the_one_eps_reads(f, orders):
    # the one-eps reads are the array path, which keeps nothing; n = 0 reads eps = pi, whose value is 0.0
    eps = [PI / (n + 1) for n in BATCH_ORDERS[orders]]
    for x in (0.3, -2.2, PI, 1e-9):
        conjugate._table.cache_clear()
        got = conjugate._kept_pairs(f, x, eps, DEFAULT_GRID)
        want = [tuple(float(a[0]) for a in conjugate._truncated(f, x, np.array([e]), DEFAULT_GRID)) for e in eps]
        assert pair_bits(got) == pair_bits(want), (f.name, orders, x)
        assert all(type(value) is float for pair in got for value in pair)
        kept = conjugate._table(f, x, DEFAULT_GRID).summed
        assert sorted(kept) == sorted(set(eps)) and [kept[e] for e in eps] == got
        assert conjugate_truncated(f, x, eps[-1]) is got[-1][0]  # a later float read is a lookup


def counted_truncated(monkeypatch):
    """The calls of conjugate._truncated from here on, as a one-item list."""
    calls, read = [0], conjugate._truncated

    def counting(*args):
        calls[0] += 1
        return read(*args)

    monkeypatch.setattr(conjugate, "_truncated", counting)
    return calls


@pytest.mark.parametrize("theorem_id", ["T1.51", "T2.trunc"])
def test_a_truncated_pointwise_grid_reads_once_per_x(monkeypatch, theorem_id):
    f, C, xs = fresh_hat(), cesaro(64), conjugate.default_x_grid()
    calls = counted_truncated(monkeypatch)
    cold = verify.pointwise_grid(theorem_id, f, C, C, [8, 0, 64, 8, 16], xs)
    assert calls[0] == len(xs)
    assert verify.pointwise_grid(theorem_id, f, C, C, [8, 0, 64, 8, 16], xs) == cold and calls[0] == len(xs)
    assert all(len(conjugate._table(f, x, DEFAULT_GRID).summed) == 4 for x in xs)


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
def test_a_truncated_norm_grid_reads_once_per_x(monkeypatch, p):
    f, C, I, xs = fresh_hat(), cesaro(128), identity_matrix(128), conjugate.default_x_grid()
    calls = counted_truncated(monkeypatch)
    cold = verify.norm_grid(f, C, I, [8, 16, 32, 64, 128], p, True)
    assert calls[0] == len(xs)
    assert verify.norm_grid(f, C, I, [8, 16, 32, 64, 128], p, True) == cold and calls[0] == len(xs)
    # the full deviations read each x's conjugate once, and their repeat nothing
    verify.norm_grid(f, C, I, [8, 16], p, False)
    verify.norm_grid(f, C, I, [8, 16], p, False)
    assert calls[0] == 2 * len(xs)


def test_a_kept_deviation_pair_is_returned_without_a_second_pass(monkeypatch):
    f, x, C, I = fresh_hat(), 0.3, cesaro(8), identity_matrix(8)
    first = deviation_kernel_form(f, C, I, 8, x)
    assert deviation_kernel_form(f, C, I, 8, x) is first  # the cold tuple itself
    kept = conjugate._kernel_cut(f, x, 8, DEFAULT_GRID).under(C).under(I).summed
    assert kept == {8: first}
    kept[8] = marker = (first[0] + 1.0, first[1] + 1.0)

    def pass_again(*args):
        raise AssertionError("a kept pair was summed again")

    monkeypatch.setattr(conjugate, "conj_kernel_mean_z", pass_again)
    assert deviation_kernel_form(f, C, I, 8, x) is marker
    with pytest.raises(AssertionError, match="summed again"):
        deviation_kernel_form(f, I, C, 8, x)  # the swapped pair has no pair of its own yet


def test_kept_deviation_pairs_stay_with_their_matrices_order_function_point_and_grid():
    # every (grid, f, x, A, B, n) gets the from-scratch reference's bits, first call and kept, and the references
    # all differ; n runs innermost, so a pair kept by n alone would be read back under the next (A, B)
    C, I = cesaro(16), identity_matrix(16)
    wants = {}
    for grid in (DEFAULT_GRID, GridSpec(m=256, refinement=16)):
        for f in (PeriodicFunction("cube-sine", lambda t: np.abs(np.sin(t)) ** 3),
                  PeriodicFunction("cube-cosine", lambda t: np.abs(np.cos(t)) ** 3)):
            for x in (0.3, -2.2):
                for A, B in ((C, C), (C, I), (I, I)):  # C I and I C are both C, so the pair (I, C) would equal (C, I)
                    for n in (3, 8):
                        key = (grid.m, f.name, x, A.name, B.name, n)
                        want = wants[key] = kernel_form_reference(f, A, B, n, x, grid)
                        for _ in range(2):
                            assert deviation_kernel_form(f, A, B, n, x, grid) == want, key
                        assert conjugate._kernel_cut(f, x, n, grid).under(A).under(B).summed == {n: want}, key
    assert len(set(wants.values())) == len(wants)


def test_kept_deviation_pairs_go_with_either_matrix():
    f, x = fresh_hat(), 0.3
    C, I = cesaro(8), identity_matrix(8)
    for A, B in ((C, C), (C, I), (I, C)):
        deviation_kernel_form(f, A, B, 4, x)
    below = conjugate._kernel_cut(f, x, 4, DEFAULT_GRID).below
    assert (len(below[C].below), len(below[I].below), kept_values(C, I)) == (2, 1, 3)
    del A, B, I  # I was A of one pair and B of another
    gc.collect()
    assert list(below) == [C] and list(below[C].below) == [C] and kept_values(C) == 1
    del C
    gc.collect()
    assert len(below) == 0


def test_refused_deviation_calls_keep_nothing():
    # each refusal, after the order check or at the conjugate's, keeps no pair and refuses again when repeated
    f, C, I = by_name("sawtooth"), cesaro(8), identity_matrix(8)
    cases = [
        (1e-9, ConvergenceError, "conjugate at x=1e-09: error estimate 0.536 exceeds 1e-08"),
        (-1e-9, ConvergenceError, "conjugate at x=-1e-09: error estimate 0.536 exceeds 1e-08"),
        (0.0, DomainError, "x=0.0 is a known singular point of sawtooth"),
        (math.nan, DomainError, "x must be finite, got nan"),
        (1e17, DomainError, "x must lie in [-2^20, 2^20], got 1e+17"),
    ]
    for x in (1e-9, -1e-9):  # conjugate_at keeps its own pair before it refuses, and A its tails at a valid order
        with pytest.raises(ConvergenceError):
            conjugate_at(f, x)
    for B in (C, I):
        ab_tails(C, B, 4)
    before = new_cache_sizes(C, I)
    for x, error, message in cases:
        for _ in range(2):
            for A, B in ((C, C), (C, I)):
                with pytest.raises(error) as info:
                    deviation_kernel_form(f, A, B, 4, x)
                assert (type(info.value), str(info.value)) == (error, message), x
    assert new_cache_sizes(C, I) == before and kept_values(C, I) == 0


def test_refused_right_sides_keep_nothing():
    # an order past A fails as ab_weights' does, before any cache lookup, where it used to fill a profile to
    # k = n and then fail in A.row(n); a negative n and a refused x fail as before
    f, C = by_name("hat"), cesaro(8)
    rhs_theorem1(f, C, 0.77, 8)
    rhs_theorem2(f, 0.77, 8)
    cases = [
        (lambda: rhs_theorem1(f, C, 0.3, 600), MatrixValidationError,
         "transform order n=600 is outside the matrix size (A: 8)"),
        (lambda: rhs_theorem1(f, C, 0.77, 9), MatrixValidationError,
         "transform order n=9 is outside the matrix size (A: 8)"),
        (lambda: rhs_theorem1(f, C, math.nan, 9), MatrixValidationError,
         "transform order n=9 is outside the matrix size (A: 8)"),
        (lambda: rhs_theorem1(f, C, 0.77, -1), ValueError, "n must be nonnegative"),
        (lambda: rhs_theorem2(f, 0.77, -1), ValueError, "n must be nonnegative"),
        (lambda: rhs_theorem1(f, C, math.nan, 4), DomainError, "x must be finite, got nan"),
        (lambda: rhs_theorem2(f, math.inf, 4), DomainError, "x must be finite, got inf"),
        (lambda: rhs_theorem2(f, 1e17, 4), DomainError, "x must lie in [-2^20, 2^20], got 1e+17"),
    ]
    before = (new_cache_sizes(C), x_keyed())
    for call, error, message in cases:
        with pytest.raises(error) as info:
            call()
        assert (type(info.value), str(info.value)) == (error, message)
    assert (new_cache_sizes(C), x_keyed()) == before


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


X_KEYED = (moduli._tables, moduli._profile, conjugate._table, conjugate._kernel_nodes, conjugate._kernel_cut,
           verify._partial_sums)


def x_keyed():
    """Each x-keyed cache's info, and the conjugate pairs, which the tables of x keep by eps."""
    return [cache.cache_info() for cache in X_KEYED], kept_pairs()

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
    before = x_keyed()
    with pytest.raises(DomainError, match=rf"^x must lie in \[-2\^20, 2\^20\], got {re.escape(str(x))}$"):
        NON_FINITE_CALLS[name](f, C, x)
    assert x_keyed() == before
    assert C._ab_weights.below is C._ab_tails.below is None and kept_values(C) == 0


def test_out_of_range_order_fills_no_x_keyed_cache():
    f, C = by_name("hat"), cesaro(8)
    calls = (lambda: transform_value(f, C, C, 9, 0.77), lambda: lhs_theorem1(f, C, C, 0.77, 9, False),
             lambda: deviation_kernel_form(f, C, C, 9, 0.77))
    before = x_keyed()
    for call in calls:
        with pytest.raises(MatrixValidationError):
            call()
    assert x_keyed() == before
    assert kept_values(C) == 0


def test_kept_orders_do_not_widen_the_range():
    # with every order of the pair kept, the hit path still refuses the others with the miss path's message
    f, C, I = by_name("hat"), cesaro(8), identity_matrix(8)
    for n in range(9):
        deviation_kernel_form(f, C, I, n, 0.77)
    before = (new_cache_sizes(C, I), x_keyed())
    for n in (-1, -9, 9, 600):
        message = re.escape(f"transform order n={n} is outside the matrix size (A: 8, B: 8)")
        for call in (ab_weights, ab_tails, lambda A, B, n: deviation_kernel_form(f, A, B, n, 0.77)):
            with pytest.raises(MatrixValidationError, match=f"^{message}$"):
                call(C, I, n)
    assert (new_cache_sizes(C, I), x_keyed()) == before


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", sorted(NON_FINITE_CALLS))
def test_non_finite_x_is_refused_before_any_cache(name, x):
    f, C = by_name("hat"), cesaro(8)
    before = x_keyed()
    with pytest.raises(DomainError, match=f"^x must be finite, got {x}$"):
        NON_FINITE_CALLS[name](f, C, x)
    assert x_keyed() == before
    assert C._ab_weights.below is C._ab_tails.below is None and kept_values(C) == 0
