"""Pointwise and classical moduli of continuity, L^p norms, averaged-moduli facts, condition (2.511).

Every pointwise modulus is a lookup in the Kronrod sums of |psi_x| (or
|phi_x|) anchored at 0, over panels of (0, pi].  The master panel boundaries
are a uniform grid, a dyadic cascade toward 0 and every delta = pi/(k+1) up
to k = 256.  Two tables hold them:

- ``_cumulative`` (one table per x): a ``PanelSums`` on the master set with
  m/2 uniform panels, plus psi's jump locations and the refined roots of the
  signed increment, so the integrand is smooth inside every panel.  It takes a
  list of x and builds those not yet kept as one batch, with one
  ``_bisect_roots`` call over the sign changes of all of them.
  verify.pointwise_grid and the moduli command ask for their whole x list, so
  a command bisects once; a single x is a batch of one.  The tables are kept
  by x in the base._Kept record of (f, kind, grid), ``_tables``.
- ``_node_table`` (every uniform x node of ``lp_norm``): the master set alone,
  with at most 512 uniform panels, since the kinks move with x.  It is a
  read-only (bounds, cum) pair of the Kronrod sums only, 8*m*P bytes for P
  boundaries (P = 792 at the default grid: 6.5 MB at m = 1024, about 104 MB
  at the largest m).  It is only the build step for a first-time
  (f, delta): the most recent table alone is kept, and the cache is
  ``_node_values``, one read-only length-m vector per (f, delta), at most
  256 * 8*m bytes (2 MB at m = 1024, under a third of one table).

``modulus(f, x, delta, kind)`` is the one pointwise entry point, for a float
delta or an array of them (each with the float's bits).  A delta on the
boundary set reads cum[i] / delta; any other delta adds one partial panel from
the boundary below it, a one-panel ``PanelSums`` in the node table.
``modulus_profile`` reads prefixes of one cached ``ModulusProfile`` per
(f, x, kind, grid, max(n, 512)), the data of a base._Kept record (``_profile``)
that also keeps the right-hand sides verify sums from it.
``classical_modulus`` is the L^p modulus of psi_x alone, the paper's norm one.

The sup over 0 < t <= delta in the bar and classical moduli is one helper,
``_sup_up_to``: the running maximum over a fixed t-set (the master boundaries,
or ``_classical_t_set``) read at the last t <= delta, joined with the value at
a delta off that set.  The discretized sup is a lower bound on the true one.  Because the t-sets are
nested across delta, bar moduli are nondecreasing in delta by construction.
Bound checks that put bar moduli on the right-hand side only get stricter
from under-reporting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import NamedTuple

import numpy as np

from .base import DEFAULT_GRID, MODULUS_KINDS, DomainError, GridSpec, _Kept
from .functions import (
    PI,
    TWO_PI,
    PanelSums,
    PeriodicFunction,
    _insert_points,
    check_exponent,
    check_x,
    check_half_period,
    eval_phi,
    eval_psi,
    graded_boundaries,
    lp_norms,
    psi_breakpoints,
    sorted_unique,
)
from .kernels import DEFAULT_COEFF_CUTOFF

# The node table is built 8 x nodes at a time (8*15*P doubles per sample array,
# 0.76 MB at P = 792), and its uniform part stops at 512 panels so that its size
# is linear in m; the classical increments are sampled 32 t at a time (8*32*m
# bytes per array, 256 kB at m = 1024, which stays in cache: of the block sizes
# 8 to 256, 32 built a 389-t table fastest, in 6-9 ms against 14-18 ms for 256
# on 2 cores).  A (f, kind, grid) record keeps its latest 256 one-x tables.
_TABLE_ROWS = 8
_TABLE_MAX_PANELS = 512
_TABLES_KEPT = 256
_INCREMENT_ROWS = 32

_INCREMENTS = {"psi": eval_psi, "phi": eval_phi}


class ModulusProfile(NamedTuple):
    """Modulus values at delta = pi/(k+1), k = 0..n, and their running averages."""

    values: np.ndarray
    averaged: np.ndarray


def _abs_increment(f: PeriodicFunction, x, kind: str):
    """t -> |psi_x(t)| (or |phi_x(t)|); x is a float or an array that broadcasts against t."""
    increment = _INCREMENTS[kind]
    return lambda t: np.abs(increment(f, x, t))


def _bisect_roots(g, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Roots of g in each bracket [lo, hi] of a sign change, 52 halvings each; every step is elementwise.

    The sides are compared by np.sign, since a product of two increments below about 1e-162 underflows to 0.
    """
    slo = np.sign(g(lo))
    for _ in range(52):
        mid = 0.5 * (lo + hi)
        sm = np.sign(g(mid))
        left = slo * sm <= 0.0
        hi = np.where(left, mid, hi)
        lo = np.where(left, lo, mid)
        slo = np.where(left, slo, sm)
    return 0.5 * (lo + hi)


def _master_bounds(panels: int, refinement: int, breaks=()) -> np.ndarray:
    """Uniform panels of (0, pi] cut at the dyadic cascade, every pi/(k+1) up to k = 256, and breaks."""
    return _insert_points(
        np.linspace(0.0, PI, panels + 1),
        np.concatenate([PI * 2.0 ** (-np.arange(1.0, refinement + 17.0)), PI / (np.arange(257.0) + 1.0), breaks]),
    )


def _average(table: PanelSums, deltas: np.ndarray) -> np.ndarray:
    """(1/delta) times the Kronrod integral over (0, delta]."""
    return table.at(deltas)[0] / deltas


def _running_max(values: np.ndarray) -> np.ndarray:
    """Entry k is the largest of values[:k] (values >= 0), so entry 0 is 0."""
    return np.maximum.accumulate(np.concatenate(([0.0], values)))


def _sup_up_to(t: np.ndarray, running: np.ndarray, deltas: np.ndarray, endpoint) -> np.ndarray:
    """Sup over t <= delta and delta itself: running[k] is the max at t[:k], endpoint(d) the values off t."""
    k = np.searchsorted(t, deltas, side="right")
    values = running[k]
    off = t[k - 1] != deltas  # k = 0 reads the largest t, which lies above delta
    if off.any():
        values[off] = np.maximum(values[off], endpoint(deltas[off]))
    return values


def _bar(table: PanelSums, deltas: np.ndarray) -> np.ndarray:
    """Largest average over the boundaries up to delta and delta itself."""
    t = table.bounds[1:]
    return _sup_up_to(t, _running_max(table.cum[0, 1:] / t), deltas, partial(_average, table))


@lru_cache(maxsize=16)
def _tables(f: PeriodicFunction, kind: str, grid: GridSpec) -> _Kept:
    """The one-x tables of (f, kind, grid) that _cumulative built: summed maps x to its PanelSums."""
    return _Kept()


def _cumulative(f: PeriodicFunction, xs, kind: str, grid: GridSpec) -> list[PanelSums]:
    """The table of each checked x of xs: master boundaries plus psi's jumps and the roots of the increment.

    The x not yet kept are built as one batch: a single _bisect_roots call refines the sign changes of all of them,
    each at its own x.  Every step is elementwise, so a table has the bits of a batch of one.  A record keeps its
    latest _TABLES_KEPT x, so the lru of records holds at most 16 * 256 = 4096 tables.
    """
    kept = _tables(f, kind, grid).summed
    cold = [x for x in dict.fromkeys(xs) if x not in kept]
    if cold:
        increment = _INCREMENTS[kind]
        meshes = [_master_bounds(grid.m // 2, grid.refinement, psi_breakpoints(f, x)) for x in cold]
        signs = [np.sign(increment(f, x, bounds[1:])) for x, bounds in zip(cold, meshes)]  # products may underflow
        flips = [np.flatnonzero(s[:-1] * s[1:] < 0.0) for s in signs]  # between bounds[i + 1] and bounds[i + 2]
        lo, hi = (np.concatenate([bounds[i + j] for bounds, i in zip(meshes, flips)]) for j in (1, 2))
        at = np.repeat(cold, [len(i) for i in flips])  # the x of each sign change
        roots = _bisect_roots(partial(increment, f, at), lo, hi) if len(at) else at
        for x, bounds, r in zip(cold, meshes, np.split(roots, np.cumsum([len(i) for i in flips])[:-1])):
            kept[x] = PanelSums(_abs_increment(f, x, kind), _insert_points(bounds, r))
    tables = [kept[x] for x in xs]
    while len(kept) > _TABLES_KEPT:  # the oldest first
        del kept[next(iter(kept))]
    return tables


@lru_cache(maxsize=1)
def _node_table(f: PeriodicFunction, kind: str, grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Every uniform x node on the master boundaries only, the build step of _node_values: (bounds, Kronrod cum)."""
    x = _x_nodes(grid)[:, None, None, None]  # a unit axis for the rule axis
    bounds = _master_bounds(min(grid.m // 2, _TABLE_MAX_PANELS), grid.refinement)
    cum = np.empty((grid.m, len(bounds)))
    for s in range(0, grid.m, _TABLE_ROWS):
        cum[s : s + _TABLE_ROWS] = PanelSums(_abs_increment(f, x[s : s + _TABLE_ROWS], kind), bounds).cum[:, 0]
    bounds.flags.writeable = cum.flags.writeable = False
    return bounds, cum


@lru_cache(maxsize=256)
def _node_values(f: PeriodicFunction, delta: float, kind: str, grid: GridSpec) -> np.ndarray:
    """The node table's averages at one delta, read-only: 8*m bytes, against 8*m*P for the table."""
    bounds, cum = _node_table(f, kind, grid)
    i = int(np.searchsorted(bounds, delta, side="right")) - 1
    values = cum[:, i]
    if bounds[i] != delta:  # add the partial panel [bounds[i], delta]: a one-panel table's Kronrod total
        g = _abs_increment(f, _x_nodes(grid)[:, None, None, None], kind)
        values = values + PanelSums(g, np.array([bounds[i], delta])).cum[:, 0, 1]
    values = values / delta
    values.flags.writeable = False
    return values


def modulus(f: PeriodicFunction, x: float, delta, kind: str, grid: GridSpec = DEFAULT_GRID):
    """Modulus of the given kind at x: a float for a float delta, one value per delta for an array.

    w_tilde and w average |psi_x| and |phi_x| over (0, delta]; the bar kinds take the sup over 0 < t <= delta.
    """
    if kind not in MODULUS_KINDS:
        raise ValueError(f"kind must be one of {MODULUS_KINDS}, got {kind!r}")
    delta = check_half_period("delta", delta)
    table = _cumulative(f, [check_x("x", x)], "psi" if "tilde" in kind else "phi", grid)[0]
    values = (_bar if kind.endswith("bar") else _average)(table, np.atleast_1d(delta))
    return float(values[0]) if isinstance(delta, float) else values


def _averaged_modulus(values: np.ndarray) -> np.ndarray:
    """inner_r = (1/(r+1)) sum_{k<=r} values[k]; np.cumsum adds in index order, so a prefix keeps its bits."""
    return np.cumsum(values) / (np.arange(len(values)) + 1.0)


@lru_cache(maxsize=1024)
def _profile(f: PeriodicFunction, x: float, kind: str, grid: GridSpec, top: int) -> _Kept:
    """The ModulusProfile to k = top, read-only (16*(top+1) bytes), kept with what is summed from it.

    summed holds verify.rhs_theorem2's values by n, and under(A).summed verify.rhs_theorem1's.
    """
    values = modulus(f, x, PI / (np.arange(top + 1) + 1.0), kind, grid)
    averaged = _averaged_modulus(values)
    values.flags.writeable = averaged.flags.writeable = False
    return _Kept(ModulusProfile(values, averaged))


def modulus_profile(f: PeriodicFunction, x: float, n: int, kind: str, grid: GridSpec = DEFAULT_GRID) -> ModulusProfile:
    """Modulus of the chosen kind at delta = pi/(k+1) for k = 0..n, and its running averages.

    Read-only prefixes of the cached profile to k = max(n, 512), so every n <= 512 shares one profile per (f, x, kind).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    profile = _profile(f, check_x("x", x), kind, grid, max(n, DEFAULT_COEFF_CUTOFF)).data
    return ModulusProfile(profile.values[: n + 1], profile.averaged[: n + 1])


# ---------------------------------------------------------------------------
# classical (L^p) moduli and norms


def _x_nodes(grid: GridSpec) -> np.ndarray:
    return -PI + TWO_PI / grid.m * np.arange(grid.m)


def lp_norm(g, p: float, grid: GridSpec = DEFAULT_GRID) -> float:
    """Quadrature L^p norm of g over [-pi, pi]; p = inf is the grid maximum."""
    check_exponent("p", p)
    return float(lp_norms(np.abs(np.asarray(g(_x_nodes(grid)), dtype=float)), p, TWO_PI / grid.m))


def _classical_t_set() -> np.ndarray:
    pieces = [
        PI * 2.0 ** (-np.arange(21.0)),
        np.linspace(0.0, PI, 257)[1:],
        PI / (np.arange(129.0) + 1.0),
    ]
    return sorted_unique(np.concatenate(pieces))


def _increment_norms(f: PeriodicFunction, t: np.ndarray, p: float, grid: GridSpec) -> np.ndarray:
    """L^p norm in x of psi_x(t) at each t; each t's norm is its own row, so the chunks change no bits."""
    x, h, rows = _x_nodes(grid)[None, :], TWO_PI / grid.m, _INCREMENT_ROWS
    norms = [lp_norms(np.abs(eval_psi(f, x, t[s : s + rows, None])), p, h) for s in range(0, len(t), rows)]
    return np.concatenate(norms)


@lru_cache(maxsize=256)
def _classical_table(f: PeriodicFunction, p: float, grid: GridSpec):
    """The t-set and the running max of the norms at its t, read-only."""
    t = _classical_t_set()
    table = t, _running_max(_increment_norms(f, t, p, grid))
    for array in table:
        array.flags.writeable = False
    return table


def classical_modulus(f: PeriodicFunction, delta, p: float, grid: GridSpec = DEFAULT_GRID):
    """sup over 0 < t <= delta of the L^p norm in x of psi_x(t), shaped like delta.

    A delta on the t-set reads the table; all others share one _increment_norms call.
    """
    delta = check_half_period("delta", delta)
    check_exponent("p", p)
    t, running = _classical_table(f, float(p), grid)
    values = _sup_up_to(t, running, np.atleast_1d(delta), lambda d: _increment_norms(f, d, p, grid))
    return float(values[0]) if isinstance(delta, float) else values


def pointwise_modulus_on_nodes(
    f: PeriodicFunction, delta: float, kind: str, grid: GridSpec = DEFAULT_GRID
) -> tuple[np.ndarray, np.ndarray]:
    """w~_x(delta) (or w_x) at the uniform x quadrature nodes, for one float delta.

    The nodes and weight 2*pi/m are lp_norm's: lp_norms(values, p, 2*pi/m)
    is the L^p norm in x.  The values are cached per (f, delta), read-only,
    and the node table is built only for a delta not yet cached.  The table
    does not split panels at psi's kinks; at the default grid the absolute
    error against modulus(..., "w_tilde") stays below 2e-7 on the corpus.
    """
    if kind not in ("w", "w_tilde"):
        raise ValueError(f"batched evaluation supports plain kinds only, got {kind!r}")
    delta = check_half_period("delta", delta)
    if not isinstance(delta, float):
        raise DomainError(f"delta must be a single value, got an array of shape {delta.shape}")
    return _x_nodes(grid), _node_values(f, delta, "psi" if kind == "w_tilde" else "phi", grid)


@dataclass(frozen=True)
class Lemma2Result:
    plain_pass: bool
    plain_lhs: float
    plain_rhs: float
    bar_pass: bool
    bar_lhs: float
    bar_rhs: float


LEMMA2_SLACK = 1e-9


def lemma2_check(
    f: PeriodicFunction, x: float, n: int, grid: GridSpec = DEFAULT_GRID
) -> Lemma2Result:
    """Averaged-modulus inequalities with their exact constants 2 and 1.

    Plain: w~(pi/(n+1)) <= 2 * mean of w~(pi/(r+1)), r = 0..n.
    Bar:   the same with constant 1 for the sup modulus.
    """
    plain = modulus_profile(f, x, n, "w_tilde", grid).values
    bar = modulus_profile(f, x, n, "w_tilde_bar", grid).values
    plain_lhs = float(plain[n])
    plain_rhs = 2.0 * math.fsum(plain.tolist()) / (n + 1)
    bar_lhs = float(bar[n])
    bar_rhs = math.fsum(bar.tolist()) / (n + 1)
    return Lemma2Result(
        plain_pass=plain_lhs <= plain_rhs + LEMMA2_SLACK,
        plain_lhs=plain_lhs,
        plain_rhs=plain_rhs,
        bar_pass=bar_lhs <= bar_rhs + LEMMA2_SLACK,
        bar_lhs=bar_lhs,
        bar_rhs=bar_rhs,
    )


def check_condition_2_511(
    f: PeriodicFunction, x: float, n: int, grid: GridSpec = DEFAULT_GRID
) -> float:
    """Ratio of (1/pi) int_0^{pi/(n+1)} |psi_x(t)|/t dt to the plain modulus there.

    0/0 is reported as 1; a vanishing modulus against a positive integral
    means the condition fails and the ratio is infinite, as it is at a known
    singular point of f, where the integral diverges.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    x = check_x("x", x)
    if f.is_singular_at(x):
        return math.inf
    h = PI / (n + 1)

    def integrand(t):
        return np.abs(eval_psi(f, x, t)) / t

    bounds = _insert_points(graded_boundaries(0.0, h, grid), psi_breakpoints(f, x))
    lhs = float(PanelSums(integrand, bounds).cum[0, -1]) / PI  # the Kronrod total
    rhs = modulus(f, x, h, "w_tilde", grid)
    tiny = 1e-13
    if rhs < tiny:
        return 1.0 if lhs < tiny else math.inf
    return lhs / rhs
