"""Every lru_cache in conjsum: bounded, exercised here, and handing out read-only arrays.

A cached value is shared by every later caller, so an array a caller could
write into would corrupt each result read from that cache afterwards.  A new
cache fails ``test_every_cache_has_a_call`` until it gets an entry in CALLS.
The arrays a TriangularMatrix keeps (its prefix sums and AB weights) and the
profile prefixes modulus_profile hands out are shared the same way.
"""

import dataclasses
import importlib
import math
import pkgutil

import numpy as np
import pytest

import conjsum
from conjsum import conjugate, functions, moduli, summability, verify
from conjsum.functions import GridSpec, PanelSums, by_name

GRID = GridSpec(m=64, refinement=8)
HAT = by_name("hat")

CALLS = {
    "functions.graded_boundaries": lambda: functions.graded_boundaries(0.0, math.pi, GRID),
    "functions._clausen_coeffs": lambda: functions._clausen_coeffs(),
    "moduli._cumulative": lambda: moduli._cumulative(HAT, 0.3, "psi", GRID),
    "moduli._node_table": lambda: moduli._node_table(HAT, "psi", GRID),
    "moduli._node_values": lambda: moduli._node_values(HAT, 0.5, "psi", GRID),
    "moduli._classical_table": lambda: moduli._classical_table(HAT, 2.0, "psi", GRID),
    "moduli._profile": lambda: moduli._profile(HAT, 0.3, "w_tilde_bar", GRID, 16),
    "conjugate._table": lambda: conjugate._table(HAT, 0.3, GRID),
    "conjugate._truncated_cached": lambda: conjugate._truncated_cached(HAT, 0.3, 0.1, GRID),
    "conjugate._kernel_nodes": lambda: conjugate._kernel_nodes(HAT, 0.3, GRID),
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
def test_cached_arrays_are_read_only(name):
    writeable = [array.shape for array in arrays_in(CALLS[name]()) if array.flags.writeable]
    assert writeable == []


def test_shared_arrays_outside_the_caches_are_read_only():
    C, I = summability.cesaro(9), summability.identity_matrix(9)
    profile = moduli.modulus_profile(HAT, 0.3, 4, "w", GRID)
    arrays = [C.prefix_sums(4), summability.ab_weights(C, I, 4), profile.values, profile.averaged]
    assert [array.flags.writeable for array in arrays] == [False] * 4
    with pytest.raises(ValueError):
        arrays[1][0] = 1.0


def test_ab_weights_kept_per_partner_and_order():
    C, I = summability.cesaro(9), summability.identity_matrix(9)
    first = summability.ab_weights(C, C, 6)
    assert summability.ab_weights(C, C, 6) is first
    other = summability.ab_weights(C, I, 6)
    assert other is not first and not np.array_equal(other, first)
    assert summability.ab_weights(C, C, 5) is not first
    del I, other
    assert list(C._ab_weights) == [C]  # a partner's weights go with the partner
