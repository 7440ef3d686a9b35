"""Every lru_cache in conjsum: bounded, exercised here, and handing out read-only arrays.

A cached value is shared by every later caller, so an array a caller could
write into would corrupt each result read from that cache afterwards.  A new
cache fails ``test_every_cache_has_a_call`` until it gets an entry in CALLS.
The arrays a TriangularMatrix keeps (its prefix sums, AB weights and kernel
tails) and the profile prefixes modulus_profile hands out are shared the same
way.  An entry of verify._partial_sums, moduli._profile or conjugate._table is
a record, base._Kept: its read-only data and the values summed from it once,
by n or eps under zero, one or two weak matrix keys.  An entry of moduli._tables
is a record too, of the one-x modulus tables by x.  The matrix keeps its AB
weights and tails in two such records, by n under the weak key B.
"""

import dataclasses
import importlib
import math
import pkgutil

import numpy as np
import pytest

import conjsum
from conjsum import conjugate, functions, moduli, summability, verify
from conjsum.base import _Kept
from conjsum.functions import GridSpec, PanelSums, by_name

GRID = GridSpec(m=64, refinement=8)
HAT = by_name("hat")

CALLS = {
    "functions.graded_boundaries": lambda: functions.graded_boundaries(0.0, math.pi, GRID),
    "functions._clausen_coeffs": lambda: functions._clausen_coeffs(),
    "moduli._tables": lambda: moduli._tables(HAT, "psi", GRID),
    "moduli._node_table": lambda: moduli._node_table(HAT, "psi", GRID),
    "moduli._node_values": lambda: moduli._node_values(HAT, 0.5, "psi", GRID),
    "moduli._classical_table": lambda: moduli._classical_table(HAT, 2.0, GRID),
    "moduli._profile": lambda: moduli._profile(HAT, 0.3, "w_tilde_bar", GRID, 16),
    "conjugate._table": lambda: conjugate._table(HAT, 0.3, GRID),
    "conjugate._kernel_nodes": lambda: conjugate._kernel_nodes(HAT, 0.3, GRID),
    "conjugate._kernel_cut": lambda: conjugate._kernel_cut(HAT, 0.3, 5, GRID),
    "verify.coefficients": lambda: verify.coefficients(HAT, GRID, 16),
    "verify._partial_sums": lambda: verify._partial_sums(HAT, 0.3, GRID, True, 16),
}


def package_caches() -> dict:
    """Each lru_cache wrapper found as a module attribute, by its defining module and name."""
    found = {}
    for info in pkgutil.iter_modules(conjsum.__path__):
        for value in vars(importlib.import_module(f"conjsum.{info.name}")).values():
            if callable(value) and hasattr(value, "cache_info"):
                found[f"{value.__module__.removeprefix('conjsum.')}.{value.__qualname__}"] = value
    return found


def arrays_in(value):
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, tuple):
        for item in value:
            yield from arrays_in(item)
    elif isinstance(value, _Kept):
        yield from arrays_in(value.data)
        yield from arrays_in(tuple(value.summed.values()))
    elif isinstance(value, PanelSums):
        yield value.bounds
        yield value.cum
    elif dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            yield from arrays_in(getattr(value, field.name))


def test_every_cache_has_a_call():
    assert sorted(package_caches()) == sorted(CALLS)


@pytest.mark.parametrize("name", sorted(CALLS))
def test_cache_is_bounded(name):
    assert package_caches()[name].cache_parameters()["maxsize"] is not None


@pytest.mark.parametrize("name", sorted(CALLS))
def test_an_equal_grid_built_apart_hits_the_same_entry(name, monkeypatch):
    cache, original = package_caches()[name], GRID
    first = CALLS[name]()
    before = cache.cache_info()
    monkeypatch.setitem(globals(), "GRID", GridSpec(64, 8))  # the calls read GRID when they run
    assert GRID is not original and CALLS[name]() is first
    after = cache.cache_info()
    assert (after.hits, after.misses, after.currsize) == (before.hits + 1, before.misses, before.currsize)


@pytest.mark.parametrize("name", sorted(CALLS))
def test_cached_arrays_are_read_only(name):
    writeable = [array.shape for array in arrays_in(CALLS[name]()) if array.flags.writeable]
    assert writeable == []


def test_kept_modulus_tables_are_read_only():
    tables = moduli._cumulative(HAT, [0.3, -1.0], "psi", GRID)
    arrays = list(arrays_in(moduli._tables(HAT, "psi", GRID)))
    assert all(any(array is table.cum for array in arrays) for table in tables)
    assert [array.shape for array in arrays if array.flags.writeable] == []


def test_node_table_is_a_read_only_pair_of_kronrod_sums():
    bounds, cum = moduli._node_table(HAT, "psi", GRID)
    assert cum.shape == (GRID.m, len(bounds))  # one row of Kronrod sums per x node, no Gauss row
    assert not bounds.flags.writeable and not cum.flags.writeable
    with pytest.raises(ValueError):
        cum[0, 0] = 1.0


def test_shared_arrays_outside_the_caches_are_read_only():
    C, I = summability.cesaro(9), summability.identity_matrix(9)
    profile = moduli.modulus_profile(HAT, 0.3, 4, "w", GRID)
    arrays = [C.prefix_sums(4), summability.ab_weights(C, I, 4), summability.ab_tails(C, I, 4), profile.values,
              profile.averaged]
    assert [array.flags.writeable for array in arrays] == [False] * 5
    with pytest.raises(ValueError):
        arrays[1][0] = 1.0


def test_partial_sum_record_shows_its_read_only_sums():
    C = summability.cesaro(16)
    for n in (16, 8):
        verify.transform_value(HAT, C, C, n, 0.3, GRID)
    table = verify._partial_sums(HAT, 0.3, GRID, True, 512)  # every n <= 512 reads the top-512 entry
    assert list(table.below) == [C] and list(table.below[C].below) == [C]
    assert list(table.under(C).under(C).summed) == [16, 8] and table.summed == {}
    assert [array is table.data for array in arrays_in(table)] == [True]
    assert table.data.shape == (513,) and not table.data.flags.writeable


def test_profile_record_shows_its_read_only_arrays():
    C = summability.cesaro(16)
    for n in (16, 8):
        verify.rhs_theorem1(HAT, C, 0.3, n, GRID)
        verify.rhs_theorem2(HAT, 0.3, n, GRID)
    bar, plain = (moduli._profile(HAT, 0.3, kind, GRID, 512) for kind in ("w_tilde_bar", "w_tilde"))
    assert list(bar.below) == [C] and list(bar.under(C).summed) == [16, 8] and bar.summed == {}
    assert list(plain.summed) == [16, 8] and plain.below is None
    for record in (bar, plain):
        profile = record.data
        assert [array.shape for array in arrays_in(record)] == [(513,), (513,)]
        assert [array is a for array, a in zip(arrays_in(record), (profile.values, profile.averaged))] == [True] * 2
        assert not profile.values.flags.writeable and not profile.averaged.flags.writeable


def test_ab_weights_kept_per_partner_and_order():
    C, I = summability.cesaro(9), summability.identity_matrix(9)
    first = summability.ab_weights(C, C, 6)
    assert summability.ab_weights(C, C, 6) is first
    other = summability.ab_weights(C, I, 6)
    assert other is not first and not np.array_equal(other, first)
    assert summability.ab_weights(C, C, 5) is not first
    del I, other
    assert list(C._ab_weights.below) == [C]  # a partner's weights go with the partner


def test_ab_tails_kept_per_partner_and_order():
    C, I = summability.cesaro(9), summability.identity_matrix(9)
    first = summability.ab_tails(C, C, 6)
    assert summability.ab_tails(C, C, 6) is first and not first.flags.writeable
    other = summability.ab_tails(C, I, 6)
    assert other is not first and not np.array_equal(other, first)
    assert summability.ab_tails(C, C, 5) is not first
    del I, other
    assert list(C._ab_tails.below) == [C]  # a partner's tails go with the partner


def test_kernel_cut_reads_the_uncut_mesh():
    # each cut panel is the uncut panel its row names, or the fresh one after them that it names
    base = conjugate._kernel_nodes(HAT, 0.3, GRID)[0]
    for n in (0, 1, 2, 5, 31, 200):
        below, edge, row, unread, (nodes, *_) = conjugate._kernel_cut(HAT, 0.3, n, GRID).data
        bounds = conjugate._mesh(HAT, 0.3, GRID, cuts=[math.pi / (n + 1)])
        assert edge == bounds[below] and len(row) == len(bounds) - 1
        kept, fresh = row < len(base) - 1, row >= len(base) - 1
        assert np.array_equal(row[fresh], len(base) - 1 + np.arange(len(nodes))), n
        assert np.array_equal(base[row[kept]], bounds[:-1][kept])
        assert np.array_equal(base[row[kept] + 1], bounds[1:][kept])
        assert np.array_equal(unread, np.setdiff1d(np.arange(len(base) - 1), row[kept])), n
