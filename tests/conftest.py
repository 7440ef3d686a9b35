import pytest
from hypothesis import settings

from conjsum.functions import (
    DEFAULT_GRID, GridSpec, PanelSums, _insert_points, corpus, graded_boundaries, registry
)

# every property test draws the same examples on every run; each test keeps its own max_examples
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


def graded_integral(g, a, b, grid=DEFAULT_GRID, breakpoints=()):
    """Integral of g over [a, b] on the mesh graded toward a: the Kronrod total and |Kronrod - Gauss|."""
    bounds = _insert_points(graded_boundaries(a, b, grid), breakpoints)
    kronrod, gauss = PanelSums(g, bounds).cum[:, -1].tolist()
    return kronrod, abs(kronrod - gauss)


@pytest.fixture(scope="session")
def grid() -> GridSpec:
    return DEFAULT_GRID


@pytest.fixture(scope="session")
def funcs():
    return registry()


@pytest.fixture(scope="session")
def all_functions():
    return corpus()
