"""The temporaries that grow with the order n stay bounded and change no bits.

ab_weights adds its triangle 64 columns at a time, starting each block at the
row where B's nonzero part begins, and _increment_norms samples the classical
increments moduli._INCREMENT_ROWS (32) t at a time.  Both must give the bits
of the one-shot expressions they replace:
(A.row(n)[:, None] * B.dense[:n+1, :n+1]).sum(axis=0) and one lp_norms call
over every t, the latter at any block size.  tracemalloc then bounds their
peaks at n = 4096, where the one-shot forms held 134 MB and about 160 MB.
Checker 2.21 bounds its columns 16 at a time, and tracemalloc bounds its peak
at n = 384 and n = 4096, where a full scan in two work buffers of n^2/4
floats would hold 67 MB.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from conjsum import moduli, summability
from conjsum.functions import DEFAULT_GRID, PI, TWO_PI, by_name, eval_psi, lp_norms

ORDERS = [0, 1, 63, 64, 65, 700, 4096]
MATRICES = {
    "cesaro": summability.cesaro,
    "identity": summability.identity_matrix,
    "delta0": summability.delta_at_zero,
}


def full_product(row, B, n):
    return (row[:, None] * B.dense[: n + 1, : n + 1]).sum(axis=0)


@pytest.mark.parametrize("n", ORDERS)
@pytest.mark.parametrize("name", sorted(MATRICES))
def test_ab_weights_match_the_full_product(name, n):
    M = MATRICES[name](n)
    assert summability.ab_weights(M, M, n).tobytes() == full_product(M.row(n), M, n).tobytes()


@pytest.mark.parametrize("n", ORDERS)
def test_ab_weights_match_the_full_product_for_a_norlund_pair(n):
    rng = np.random.default_rng(20 + n)
    A = summability.nordlund(rng.uniform(0.1, 2.0, n + 1), n)
    B = summability.nordlund(rng.uniform(0.1, 2.0, n + 1), n)
    got, row = summability.ab_weights(A, B, n), A.row(n).copy()
    del A  # at n = 4096 the full product alone is 134 MB; hold one matrix beside it
    assert got.tobytes() == full_product(row, B, n).tobytes()


def test_chunked_increment_norms_match_one_shot(monkeypatch):
    # each t's norm is its own row, so no block size changes a bit; 7 leaves a short last block
    t, sizes = PI / (np.arange(4097) + 1.0), sorted({1, 7, moduli._INCREMENT_ROWS, 256})
    x = moduli._x_nodes(DEFAULT_GRID)[None, :]
    for name in ("hat", "sawtooth"):
        f = by_name(name)
        increments = np.abs(eval_psi(f, x, t[:, None]))
        for p in (1.0, 2.0, 3.5, np.inf):
            one_shot = lp_norms(increments, p, TWO_PI / DEFAULT_GRID.m).tobytes()
            for rows in sizes:
                monkeypatch.setattr(moduli, "_INCREMENT_ROWS", rows)
                assert moduli._increment_norms(f, t, p, DEFAULT_GRID).tobytes() == one_shot, (name, p, rows)


def peak_mb(call) -> float:
    gc.collect()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_ab_weights_peak_at_4096():
    # measured 2.2 MB: one (n+1) x 64 block; the full product was 134 MB
    C = summability.cesaro(4096)
    assert peak_mb(lambda: summability.ab_weights(C, C, 4096)) < 4.0


def test_classical_modulus_peak_at_4096():
    # measured 1.6 MB at the default grid (m = 1024), one 32 x m block of increments and
    # its temporaries beside the 4097 deltas; 11 MB with 256 x m blocks, and one call
    # over every delta took 155-167 MB
    f = by_name("sawtooth")
    moduli._classical_table.cache_clear()
    assert peak_mb(lambda: moduli.classical_modulus(f, PI / (np.arange(4097) + 1.0), 2.0)) < 2.5


def test_check_2_21_peaks():
    # measured 0.31 MB at n = 384, under the 0.79 MB of a full scan in two n^2/4 buffers, and
    # 2.3 MB at n = 4096: a 16-column block of A's rows and its temporaries
    for n, bound in ((384, 0.79), (4096, 4.0)):
        C = summability.cesaro(n)
        assert peak_mb(lambda: summability.check_condition_2_21(C, C)) <= bound, n
