"""The array lookups of moduli against the per-delta loop they replaced.

``reference_average`` and ``reference_bar`` are the scalar queries that
``modulus_profile`` used to call once per delta.  They read the same cached
cumulative, so every value must agree to the last bit.
"""

import math

import numpy as np
import pytest

from conjsum import moduli
from conjsum.functions import by_name, corpus, gl_rule
from conjsum.moduli import (
    modulus_profile,
    pointwise_modulus_on_nodes,
    w_bar,
    w_plain,
    w_tilde,
    w_tilde_bar,
)

PI = math.pi
DEFAULT_X = [j * PI / 16 for j in range(-15, 16) if j]
# at a kink of f (0 and +-pi/2 for hat, 0 for sawtooth) and just beside one
KINK_X = [0.0, 1e-9, -1e-7, PI / 2 + 1e-9, -PI / 2 - 3e-8]
SCALAR_OPS = {"w": w_plain, "w_bar": w_bar, "w_tilde": w_tilde, "w_tilde_bar": w_tilde_bar}


def reference_integral_to(cum, t: float) -> float:
    if t <= 0.0:
        return 0.0
    if t >= cum.bounds[-1]:
        return float(cum.cum[-1])
    i = int(np.searchsorted(cum.bounds, t))
    if cum.bounds[i] == t:
        return float(cum.cum[i])
    nodes, weights = gl_rule(np.array([cum.bounds[i - 1], t]))
    return float(cum.cum[i - 1] + np.dot(weights, cum._abs(nodes)))


def reference_average(cum, delta: float) -> float:
    return reference_integral_to(cum, delta) / delta


def reference_bar(cum, delta: float) -> float:
    i = int(np.searchsorted(cum.bounds, delta, side="right"))
    best = reference_average(cum, delta)
    if i > 1:
        best = max(best, float(np.max(cum.cum[1:i] / cum.bounds[1:i])))
    return best


def reference_profile(f, x, n, kind, grid) -> np.ndarray:
    cum = moduli._cumulative(f, float(x), "psi" if "tilde" in kind else "phi", grid)
    query = reference_bar if kind.endswith("bar") else reference_average
    return np.array([query(cum, d) for d in PI / (np.arange(n + 1) + 1.0)])


@pytest.mark.parametrize("kind", moduli.MODULUS_KINDS)
def test_profiles_on_the_master_set(kind, grid):
    """n <= 257: every delta but pi/258 is a panel boundary."""
    for f in corpus():
        for x in DEFAULT_X[::2] + KINK_X:
            want = reference_profile(f, x, 257, kind, grid)
            for n in (0, 1, 128, 256, 257):
                got = modulus_profile(f, x, n, kind, grid).values
                assert np.array_equal(got, want[: n + 1]), (f.name, x, n)


@pytest.mark.parametrize("kind", moduli.MODULUS_KINDS)
def test_profiles_off_the_master_set(kind, grid):
    """n > 256 adds one batched Gauss-Legendre panel per delta below pi/257."""
    for f in corpus():
        for x in DEFAULT_X[2::15] + KINK_X[2:]:
            want = reference_profile(f, x, 1000, kind, grid)
            for n in (512, 1000):
                got = modulus_profile(f, x, n, kind, grid).values
                assert np.array_equal(got, want[: n + 1]), (f.name, x, n)


@pytest.mark.parametrize("kind", moduli.MODULUS_KINDS)
def test_single_delta_ops(kind, grid):
    deltas = [PI, PI / 7, 1.0, 0.123456789, 3e-9, PI / 300]
    op = SCALAR_OPS[kind]
    for f in corpus():
        for x in (DEFAULT_X[3], 0.0, PI / 2 + 1e-9):
            cum = moduli._cumulative(f, x, "psi" if "tilde" in kind else "phi", grid)
            query = reference_bar if kind.endswith("bar") else reference_average
            for d in deltas:
                assert op(f, x, d, grid) == query(cum, d), (f.name, x, d)


def test_node_table_built_once_per_function(grid):
    f = by_name("hat")
    moduli._node_table.cache_clear()
    for k in range(33):
        pointwise_modulus_on_nodes(f, PI / (k + 1), "w_tilde", grid)
    info = moduli._node_table.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 32, 1)
