"""The array lookups of moduli against the per-delta loop they replaced.

``reference_average`` and ``reference_bar`` are the scalar queries that
``modulus_profile`` used to call once per delta.  They read the same cached
cumulative, so every value must agree to the last bit.
"""

import math

import numpy as np
import pytest

from conjsum import moduli
from conjsum.functions import PanelSums, by_name, corpus, kronrod_panels
from conjsum.moduli import modulus, modulus_profile, pointwise_modulus_on_nodes

PI = math.pi
DEFAULT_X = [j * PI / 16 for j in range(-15, 16) if j]
# at a kink of f (0 and +-pi/2 for hat, 0 for sawtooth) and just beside one
KINK_X = [0.0, 1e-9, -1e-7, PI / 2 + 1e-9, -PI / 2 - 3e-8]


def reference_integral_to(cum, t: float) -> float:
    if t <= 0.0:
        return 0.0
    kronrod = cum.cum[0]
    if t >= cum.bounds[-1]:
        return float(kronrod[-1])
    i = int(np.searchsorted(cum.bounds, t))
    if cum.bounds[i] == t:
        return float(kronrod[i])
    nodes, weights = kronrod_panels(cum.bounds[i - 1 : i], np.array([t]))
    return float(kronrod[i - 1] + np.dot(weights[0, 0], cum.g(nodes)[0]))


def reference_average(cum, delta: float) -> float:
    return reference_integral_to(cum, delta) / delta


def reference_bar(cum, delta: float) -> float:
    i = int(np.searchsorted(cum.bounds, delta, side="right"))
    best = reference_average(cum, delta)
    if i > 1:
        best = max(best, float(np.max(cum.cum[0, 1:i] / cum.bounds[1:i])))
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
    """n > 256 adds one batched Kronrod panel per delta below pi/257."""
    for f in corpus():
        for x in DEFAULT_X[2::15] + KINK_X[2:]:
            want = reference_profile(f, x, 1000, kind, grid)
            for n in (512, 1000):
                got = modulus_profile(f, x, n, kind, grid).values
                assert np.array_equal(got, want[: n + 1]), (f.name, x, n)


@pytest.mark.parametrize("kind", moduli.MODULUS_KINDS)
def test_single_delta_ops(kind, grid):
    deltas = [PI, PI / 7, 1.0, 0.123456789, 3e-9, PI / 300]
    for f in corpus():
        for x in (DEFAULT_X[3], 0.0, PI / 2 + 1e-9):
            cum = moduli._cumulative(f, x, "psi" if "tilde" in kind else "phi", grid)
            query = reference_bar if kind.endswith("bar") else reference_average
            for d in deltas:
                assert modulus(f, x, d, kind, grid) == query(cum, d), (f.name, x, d)


@pytest.mark.parametrize("kind", ["psi", "phi"])
def test_node_values_are_the_one_x_kronrod_row(kind, grid):
    """Each x node reads what a one-x PanelSums on the node table's boundaries gives, on the master set and off it."""
    deltas = [PI, PI / 7, PI / 257, 1.0, 0.123456789, PI / 300]
    xs = moduli._x_nodes(grid)
    for f in (by_name("hat"), by_name("sin3")):
        bounds, _ = moduli._node_table(f, kind, grid)
        assert np.isin(deltas, bounds).tolist() == [True] * 3 + [False] * 3
        for delta in deltas:
            got = moduli._node_values(f, delta, kind, grid)
            for i in (0, 17, 511, 512, grid.m - 1):
                table = PanelSums(moduli._abs_increment(f, float(xs[i]), kind), bounds)
                assert got[i] == table.at(np.array([delta]))[0, 0] / delta, (f.name, delta, i)


def clear_node_caches():
    moduli._node_values.cache_clear()
    moduli._node_table.cache_clear()


def test_node_table_built_once_per_function(grid):
    f = by_name("hat")
    clear_node_caches()
    for k in range(33):
        pointwise_modulus_on_nodes(f, PI / (k + 1), "w_tilde", grid)
    info = moduli._node_table.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 32, 1)


def test_interleaved_functions_build_each_table_once(grid):
    """A walk that returns to a function reads its cached values, not a rebuilt table."""
    deltas = PI / (np.arange(33) + 1.0)
    clear_node_caches()
    walk = [(f, d) for f in (by_name("hat"), by_name("sawtooth"), by_name("hat")) for d in deltas.tolist()]
    got = [pointwise_modulus_on_nodes(f, d, "w_tilde", grid)[1] for f, d in walk]
    assert moduli._node_table.cache_info().misses == 2
    clear_node_caches()
    fresh = [pointwise_modulus_on_nodes(by_name("hat"), d, "w_tilde", grid)[1] for d in deltas.tolist()]
    assert all(np.array_equal(a, b) for a, b in zip(got[66:], fresh))
    assert not any(values.flags.writeable for values in got)
