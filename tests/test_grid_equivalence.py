"""The (n, x) report grids of verify and the transform values against per-point reference loops.

The reference functions below are the earlier per-(n, x) implementations of
the transform, the pointwise and norm reports and the corollary decay, kept as
oracles and built only from the lower layers (partial_sum_table, the
conjugate, modulus, classical_modulus), with the AB weights added in a loop
over r: none of them reads the cached weights, partial sums or modulus
profiles that the grids and the one-point functions share.  Every BoundReport
field and every transform value must agree exactly (==): the grids read
prefixes of arrays whose elements do not depend on their length, and the
truncated conjugates of an x in one array call with the bits of the float
calls, so no arithmetic changes.
"""

import io
import math
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from conjsum import cli, conjugate
from conjsum.base import DomainError, SingularIntegrandError
from conjsum.conjugate import X_GRID_WEIGHT, conjugate_at, conjugate_truncated, default_x_grid
from conjsum.functions import (
    DEFAULT_GRID,
    PI,
    GridSpec,
    PeriodicFunction,
    by_name,
    graded_boundaries,
    kronrod_panels,
    sorted_unique,
)
from conjsum.kernels import DEFAULT_COEFF_CUTOFF, partial_sum_table
from conjsum.moduli import classical_modulus, modulus
from conjsum.summability import _check_transform_order, cesaro, exact_cumsum, identity_matrix, nordlund
from conjsum.verify import (
    BoundReport,
    coefficients,
    corollary_grid,
    lhs_theorem1,
    norm_grid,
    pointwise_grid,
    ratio_of,
    transform_value,
)

SRC = Path(__file__).resolve().parents[1] / "src"
N_TOP = 40


# ---------------------------------------------------------------------------
# references: one (n, x) at a time


def ref_weights(A, B, n):
    weights = np.zeros(n + 1)
    for r in range(n + 1):
        weights[: r + 1] += A.row(n)[r] * B.row(r)
    return weights


def ref_transform(f, A, B, n, x, grid, conjugate=True):
    _check_transform_order(A, B, n)  # the order must name a row of A and of B
    sums = partial_sum_table(coefficients(f, grid, max(n, DEFAULT_COEFF_CUTOFF)), n, x, conjugate)
    return math.fsum((ref_weights(A, B, n) * sums).tolist())


def ref_lhs(f, A, B, x, n, truncated, grid):
    value = ref_transform(f, A, B, n, x, grid)
    if truncated:
        target = conjugate_truncated(f, x, PI / (n + 1), grid)
    else:
        target = conjugate_at(f, x, grid)
    return abs(value - target)


def ref_averaged(values):
    return np.cumsum(values) / (np.arange(len(values)) + 1.0)


def ref_profile(f, x, n, kind, grid):
    return modulus(f, x, PI / (np.arange(n + 1) + 1.0), kind, grid)


def ref_rhs(theorem_id, f, A, x, n, grid):
    if theorem_id in ("T1.51", "T1.5"):
        values = ref_profile(f, x, n, "w_tilde_bar", grid)
        return float(np.dot(A.row(n), ref_averaged(values)))
    values = ref_profile(f, x, n, "w_tilde", grid)
    if theorem_id == "R1.6":
        row = A.row(n)
        inner = ref_averaged(values)
        tails = np.concatenate(([0.0], exact_cumsum(row[1:])))
        weights = row + tails / np.arange(1.0, n + 2.0)
        return float(np.cumsum(weights * inner)[-1] + inner[n])
    return float(np.mean(ref_averaged(values)))


def ref_pointwise(theorem_id, f, A, B, x, n, grid):
    truncated = theorem_id in ("T1.51", "T2.trunc")
    lhs = ref_lhs(f, A, B, x, n, truncated, grid)
    rhs = ref_rhs(theorem_id, f, A, x, n, grid)
    metadata = {"function": f.name, "matrix_a": A.name, "matrix_b": B.name}
    return BoundReport(theorem_id, n, x, lhs, rhs, ratio_of(lhs, rhs), metadata)


def ref_norm(f, A, B, n, p, truncated, grid, theorem_id):
    devs = np.array([ref_lhs(f, A, B, x, n, truncated, grid) for x in default_x_grid()])
    if math.isinf(p):
        lhs = float(devs.max())
    else:
        lhs = float((X_GRID_WEIGHT * np.sum(devs**p)) ** (1.0 / p))
    omegas = np.array([classical_modulus(f, PI / (k + 1), p, grid) for k in range(n + 1)])
    rhs = float(np.dot(A.row(n), ref_averaged(omegas)))
    metadata = {"function": f.name, "matrix_a": A.name, "matrix_b": B.name, "p": p, "truncated": truncated}
    return BoundReport(theorem_id, n, None, lhs, rhs, ratio_of(lhs, rhs), metadata)


def ref_corollary(f, A, B, ns, x, grid):
    devs = [ref_lhs(f, A, B, x, n, False, grid) for n in ns]
    reports = []
    for i, (n, dev) in enumerate(zip(ns, devs)):
        prev = devs[i - 1] if i else dev
        metadata = {"function": f.name, "matrix_a": A.name, "matrix_b": B.name}
        reports.append(BoundReport("COR", n, x, dev, prev, ratio_of(dev, prev), metadata))
    return reports


def spiked_at(x, eps):
    """sin, but NaN at the middle node of the partial panel that the truncated conjugate at (x, eps) reads."""
    bounds = conjugate._mesh(PeriodicFunction("sine", np.sin), x, DEFAULT_GRID)
    above = bounds[np.searchsorted(bounds, eps, side="right")]
    node = kronrod_panels(np.array([eps]), np.array([above]))[0][0, 7]
    return PeriodicFunction("spiked", lambda u: np.where(u == x + node, np.nan, np.sin(u)))


def outcome(fn, *args):
    """The result, or the type and message of the error raised."""
    try:
        return fn(*args)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


# ---------------------------------------------------------------------------
# cases


def matrix_pair(label):
    if label == "cesaro/cesaro":
        return cesaro(N_TOP), cesaro(N_TOP)
    if label == "cesaro/identity":
        return cesaro(N_TOP), identity_matrix(N_TOP)
    weights = (np.arange(N_TOP + 1.0) + 1.0) ** -0.75
    return nordlund(weights, N_TOP), nordlund(np.sqrt(weights), N_TOP)


PAIRS = ["cesaro/cesaro", "cesaro/identity", "nordlund/nordlund"]
X_SETS = {"default": default_x_grid(), "single": [0.3]}
N_LIST = [0, 1, 5, N_TOP]


@pytest.mark.parametrize("xs", X_SETS, ids=list(X_SETS))
@pytest.mark.parametrize("pair", PAIRS)
@pytest.mark.parametrize("theorem_id", ["T1.51", "T1.5", "R1.6", "T2", "T2.trunc"])
def test_pointwise_grid_matches_loop(theorem_id, pair, xs):
    f = by_name("hat" if theorem_id in ("T1.5", "T2") else "sawtooth")
    A, B = matrix_pair(pair)
    got = pointwise_grid(theorem_id, f, A, B, N_LIST, X_SETS[xs], DEFAULT_GRID)
    want = [ref_pointwise(theorem_id, f, A, B, x, n, DEFAULT_GRID) for n in N_LIST for x in X_SETS[xs]]
    assert got == want
    n, x = N_LIST[2], X_SETS[xs][-1]
    assert lhs_theorem1(f, A, B, x, n, theorem_id in ("T1.51", "T2.trunc"), DEFAULT_GRID) == want[
        3 * len(X_SETS[xs]) - 1
    ].lhs


@pytest.mark.parametrize("truncated", [True, False], ids=["truncated", "full"])
@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
@pytest.mark.parametrize("theorem_id", ["T3", "T4"])
def test_norm_grid_matches_loop(theorem_id, p, truncated):
    f = by_name("sin3" if theorem_id == "T3" else "sawtooth")
    A, B = matrix_pair("cesaro/cesaro" if theorem_id == "T3" else "cesaro/identity")
    ns = [0, 1, 9]
    got = norm_grid(f, A, B, ns, p, truncated, DEFAULT_GRID, theorem_id)
    want = [ref_norm(f, A, B, n, p, truncated, DEFAULT_GRID, theorem_id) for n in ns]
    assert got == want


def test_norm_grid_nordlund_pair():
    f = by_name("hat")
    A, B = matrix_pair("nordlund/nordlund")
    got = norm_grid(f, A, B, [0, 1, 7], 2.0, False, DEFAULT_GRID, "T3")
    assert got == [ref_norm(f, A, B, n, 2.0, False, DEFAULT_GRID, "T3") for n in (0, 1, 7)]


@pytest.mark.parametrize("xs", X_SETS, ids=list(X_SETS))
@pytest.mark.parametrize("pair", PAIRS)
def test_corollary_grid_matches_loop(pair, xs):
    f = by_name("sin3")
    A, B = matrix_pair(pair)
    got = corollary_grid(f, A, B, N_LIST, X_SETS[xs], DEFAULT_GRID)
    want = [r for x in X_SETS[xs] for r in ref_corollary(f, A, B, N_LIST, x, DEFAULT_GRID)]
    assert got == want


@pytest.mark.parametrize("conjugate", [True, False], ids=["conjugate", "plain"])
@pytest.mark.parametrize("pair", PAIRS)
def test_transform_grid_matches_loop(pair, conjugate):
    """transform_value over the (n, x) grid of the transform command, n outer."""
    f = by_name("hat")
    A, B = matrix_pair(pair)
    for xs in X_SETS.values():
        got = [[transform_value(f, A, B, n, x, DEFAULT_GRID, conjugate) for x in xs] for n in N_LIST]
        want = [[ref_transform(f, A, B, n, x, DEFAULT_GRID, conjugate) for x in xs] for n in N_LIST]
        assert got == want


def test_errors_follow_the_loop_order():
    """Past the matrix rows and at a singular point, the first failing (n, x) decides."""
    f = by_name("sawtooth")
    A, B = cesaro(700), cesaro(700)
    xs = [0.3, 0.0]
    for ns in ([8, 600, 800], [600, 800], [0, 701]):
        for theorem_id in ("T1.5", "T1.51", "R1.6"):
            want = outcome(lambda: [ref_pointwise(theorem_id, f, A, B, x, n, DEFAULT_GRID) for n in ns for x in xs])
            assert outcome(pointwise_grid, theorem_id, f, A, B, ns, xs, DEFAULT_GRID) == want
        want = outcome(lambda: [ref_norm(f, A, B, n, 1.0, True, DEFAULT_GRID, "T3") for n in ns])
        assert outcome(norm_grid, f, A, B, ns, 1.0, True, DEFAULT_GRID, "T3") == want
        want = outcome(lambda: [r for x in xs for r in ref_corollary(f, A, B, ns, x, DEFAULT_GRID)])
        assert outcome(corollary_grid, f, A, B, ns, xs, DEFAULT_GRID) == want
    assert outcome(pointwise_grid, "T1.5", f, A, B, [8, 800], xs, DEFAULT_GRID)[1] == (
        "x=0.0 is a known singular point of sawtooth"
    )
    past = "transform order n=800 is outside the matrix size (A: 700, B: 700)"
    assert outcome(pointwise_grid, "T1.51", f, A, B, [8, 800], xs, DEFAULT_GRID)[1] == past
    assert outcome(norm_grid, f, A, B, [0, 8, 800], 1.0, True, DEFAULT_GRID, "T3")[1] == past
    # a negative order fails in its own transform, not in the truncated conjugates of an earlier order
    negative = "transform order n=-1 is outside the matrix size (A: 700, B: 700)"
    assert outcome(pointwise_grid, "T1.51", f, A, B, [8, -1], xs, DEFAULT_GRID)[1] == negative
    assert outcome(norm_grid, f, A, B, [8, -1], 1.0, True, DEFAULT_GRID, "T3")[1] == negative
    # R1.6 builds the weights of n after its first transform, so an order past A fails there
    assert outcome(pointwise_grid, "R1.6", f, cesaro(4), cesaro(4), [2, 8], [0.3], DEFAULT_GRID)[1] == (
        "transform order n=8 is outside the matrix size (A: 4, B: 4)"
    )
    # a truncated grid reads each x's conjugates for every order in one pass before its loop.  Where a later
    # order's read fails, that pass keeps no pair and the grid fails at that order, as the loop does, keeping the
    # pairs that the loop's one-eps reads of the orders before it keep; a non-finite x after x0 still fails first
    x0, ns = default_x_grid()[15], [8, 0, 40, 16]
    spiked = SingularIntegrandError, "integrand is not finite at a quadrature node"
    cases = [("T1.51", [x0, 0.5], spiked, [PI / 9, PI]), ("T2.trunc", [0.5, x0], spiked, [PI / 9, PI]),
             ("T1.51", [x0, math.nan], (DomainError, "x must be finite, got nan"), [PI / 9]),
             ("T3", default_x_grid(), spiked, [PI / 9, PI])]
    for theorem_id, xs, error, kept in cases:
        got, want = (spiked_at(x0, PI / 41) for _ in range(2))  # the same function, under two identities
        if theorem_id == "T3":
            outcomes = (outcome(norm_grid, got, A, B, ns, 1.0, True, DEFAULT_GRID, "T3"),
                        outcome(lambda: [ref_norm(want, A, B, n, 1.0, True, DEFAULT_GRID, "T3") for n in ns]))
        else:
            outcomes = (outcome(pointwise_grid, theorem_id, got, A, B, ns, xs, DEFAULT_GRID),
                        outcome(lambda: [ref_pointwise(theorem_id, want, A, B, x, n, DEFAULT_GRID)
                                         for n in ns for x in xs]))
        assert outcomes[0] == outcomes[1] == error, (theorem_id, xs)
        assert [sorted(conjugate._table(g, x0, DEFAULT_GRID).summed) for g in (got, want)] == [kept, kept]


# ---------------------------------------------------------------------------
# the graded mesh cache


def ref_graded_boundaries(a, b, grid):
    length = b - a
    pieces = [np.array([b])]
    per_gap_budget = max(2, grid.m // 16)
    for j in range(grid.refinement):
        hi = a + length * 2.0 ** (-j)
        lo = a + length * 2.0 ** (-(j + 1))
        parts = max(2, int(math.ceil(per_gap_budget * 2.0 ** (-j))))
        pieces.append(np.linspace(hi, lo, parts + 1)[1:])
    pieces.append(np.array([a]))
    return np.unique(np.concatenate(pieces)[::-1])


@pytest.mark.parametrize("grid", [DEFAULT_GRID, GridSpec(m=64, refinement=5), GridSpec(m=2048, refinement=30)])
def test_graded_boundaries_cached_and_read_only(grid):
    for a in [0.0, PI / 513, PI / 9, 1e-9, 0.5]:
        first = graded_boundaries(a, PI, grid)
        want = ref_graded_boundaries(a, PI, grid)
        assert first.tobytes() == want.tobytes()
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = 1.0
        assert graded_boundaries(a, PI, grid) is first


def test_sorted_unique_matches_np_unique():
    rng = np.random.default_rng(5)
    for size in (1, 2, 17, 300):
        values = rng.integers(-40, 40, size) / 10.0  # repeats, and no -0.0
        assert sorted_unique(values).tobytes() == np.unique(values).tobytes()
    assert sorted_unique(np.array([PI, 0.0, PI, 1e-300])).tolist() == [0.0, 1e-300, PI]


# ---------------------------------------------------------------------------
# a fresh interpreter prints what a warm one prints

POINTWISE = ["verify", "--theorem", "R1.6", "--function", "hat", "--matrix-a", "cesaro",
             "--matrix-b", "identity", "--n-list", "0", "3", "17", "--x", "0.7"]


def test_fresh_process_matches_warm_in_process_run():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    fresh = subprocess.run([sys.executable, "-m", "conjsum.cli", *POINTWISE], env=env,
                           capture_output=True, timeout=300)
    assert fresh.returncode == 0, fresh.stderr
    warmers = [
        ["verify", "--theorem", "T1.51", "--function", "hat", "--n-list", "3", "40", "--x", "0.7"],
        ["verify", "--theorem", "T2", "--function", "hat", "--n-list", "17", "64"],
        ["transform", "--function", "hat", "--n-list", "0", "17", "--x", "0.7"],
    ]
    out = io.StringIO()
    with redirect_stdout(out):
        for args in warmers:
            assert cli.main(args) == 0
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(POINTWISE) == 0
    assert out.getvalue().encode("utf-8") == fresh.stdout
