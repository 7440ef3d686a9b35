import pytest
from hypothesis import settings

from conjsum.functions import (
    DEFAULT_GRID, GridSpec, PanelSums, _insert_points, corpus, fine_rule, graded_boundaries, registry
)

# every property test draws the same examples on every run; each test keeps its own max_examples
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


def graded_integral(g, a, b, grid=DEFAULT_GRID, breakpoints=()):
    """Integral of g over [a, b] on the mesh graded toward a: the fine total and |fine - coarse|."""
    bounds = _insert_points(graded_boundaries(a, b, grid), breakpoints)
    fine = float(PanelSums(g, bounds, fine_rule).cum[-1])
    return fine, abs(fine - float(PanelSums(g, bounds).cum[-1]))


@pytest.fixture(scope="session")
def grid() -> GridSpec:
    return DEFAULT_GRID


@pytest.fixture(scope="session")
def funcs():
    return registry()


@pytest.fixture(scope="session")
def all_functions():
    return corpus()
