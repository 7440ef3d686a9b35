"""Pointwise and classical moduli of continuity, L^p norms, averaged-moduli facts.

Every pointwise modulus is a lookup in a ``PanelSums`` of |psi_x| (or
|phi_x|) anchored at 0, over panels of (0, pi].  The master panel boundaries
are a uniform grid, a dyadic cascade toward 0 and every delta = pi/(k+1) up
to k = 256.  Two tables hold them:

- ``_cumulative`` (one x): the master set with m/2 uniform panels, plus psi's
  jump locations and the refined roots of the signed increment, so the
  integrand is smooth inside every panel.
- ``_node_table`` (every uniform x node of ``lp_norm``): the master set alone,
  with at most 512 uniform panels, since the kinks move with x.  It holds
  8*m*P bytes for P boundaries (P = 792 at the default grid: 6.5 MB at
  m = 1024, about 104 MB at the largest m).  Only the most recent table is
  kept: callers walk delta one function at a time.

``modulus(f, x, delta, kind)`` is the one pointwise entry point, for a float
delta or an array of them (each with the float's bits).  A delta on the
boundary set reads cum[i] / delta; any other delta adds one 8-node
Gauss-Legendre panel from the boundary below it.

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

import numpy as np

from .functions import (
    DEFAULT_GRID,
    PI,
    TWO_PI,
    DomainError,
    GridSpec,
    PanelSums,
    PeriodicFunction,
    eval_phi,
    eval_psi,
    psi_breakpoints,
    sorted_unique,
)

MODULUS_KINDS = ("w", "w_bar", "w_tilde", "w_tilde_bar")

# The node table is built 32 x nodes at a time (1.6 MB per sample array), and
# its uniform part stops at 512 panels so that its size is linear in m.
_TABLE_ROWS = 32
_TABLE_MAX_PANELS = 512

_INCREMENTS = {"psi": eval_psi, "phi": eval_phi}


@dataclass(frozen=True)
class ModulusProfile:
    """Modulus values at delta = pi/(k+1), k = 0..n, for one x."""

    kind: str
    values: np.ndarray
    x: float

    @property
    def deltas(self) -> np.ndarray:
        return PI / (np.arange(len(self.values)) + 1.0)


def _abs_increment(f: PeriodicFunction, x, kind: str):
    """t -> |psi_x(t)| (or |phi_x(t)|); x is a float or an array that broadcasts against t."""
    increment = _INCREMENTS[kind]
    return lambda t: np.abs(increment(f, x, t))


def _bisect_roots(g, lo: np.ndarray, hi: np.ndarray, iters: int = 52) -> np.ndarray:
    glo = np.asarray(g(lo), dtype=float)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        gm = np.asarray(g(mid), dtype=float)
        left = glo * gm <= 0.0
        hi = np.where(left, mid, hi)
        lo = np.where(left, lo, mid)
        glo = np.where(left, glo, gm)
    return 0.5 * (lo + hi)


def _panel_bounds(pieces: list[np.ndarray]) -> np.ndarray:
    bounds = sorted_unique(np.concatenate(pieces))
    return bounds[np.concatenate([[True], np.diff(bounds) > 1e-15])]


def _master_pieces(panels: int, refinement: int) -> list[np.ndarray]:
    return [
        np.linspace(0.0, PI, panels + 1),
        PI * 2.0 ** (-np.arange(1.0, refinement + 17.0)),
        PI / (np.arange(257.0) + 1.0),
    ]


def _average(table: PanelSums, deltas: np.ndarray) -> np.ndarray:
    """(1/delta) times the integral over (0, delta], one row per x if the table has an x axis."""
    return table.at(deltas) / deltas


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
    return _sup_up_to(t, _running_max(table.cum[1:] / t), deltas, partial(_average, table))


@lru_cache(maxsize=4096)
def _cumulative(f: PeriodicFunction, x: float, kind: str, grid: GridSpec) -> PanelSums:
    """One x: master boundaries plus psi's jumps and the roots of the increment."""
    signed = partial(_INCREMENTS[kind], f, x)
    breaks = np.asarray(psi_breakpoints(f, x), dtype=float)
    bounds = _panel_bounds(_master_pieces(grid.m // 2, grid.refinement) + [breaks])
    vals = np.asarray(signed(bounds[1:]), dtype=float)
    flips = np.nonzero(vals[:-1] * vals[1:] < 0.0)[0]
    if len(flips):
        bounds = _panel_bounds([bounds, _bisect_roots(signed, bounds[1:][flips], bounds[2:][flips])])
    return PanelSums(_abs_increment(f, x, kind), bounds)


@lru_cache(maxsize=1)
def _node_table(f: PeriodicFunction, kind: str, grid: GridSpec) -> PanelSums:
    """Every uniform x node at once, on the master boundaries only."""
    x = _x_nodes(grid)[:, None, None]
    bounds = _panel_bounds(_master_pieces(min(grid.m // 2, _TABLE_MAX_PANELS), grid.refinement))
    cum = np.empty((grid.m, len(bounds)))
    for s in range(0, grid.m, _TABLE_ROWS):
        cum[s : s + _TABLE_ROWS] = PanelSums(_abs_increment(f, x[s : s + _TABLE_ROWS], kind), bounds).cum
    return PanelSums(_abs_increment(f, x, kind), bounds, cum=cum)


def _check_delta(delta) -> np.ndarray:
    """delta as an array, after one range test that names the first delta outside (0, pi]."""
    delta = np.asarray(delta, dtype=float)
    if delta.ndim == 0 and 0.0 < float(delta) <= PI:
        return delta  # a valid single delta, tested without array ufuncs
    ok = (delta > 0.0) & (delta <= PI)
    if not ok.all():
        raise DomainError(f"delta must lie in (0, pi], got {delta[~ok].flat[0]}")
    return delta


def modulus(f: PeriodicFunction, x: float, delta, kind: str, grid: GridSpec = DEFAULT_GRID):
    """Modulus of the given kind at x: a float for a float delta, one value per delta for an array.

    w_tilde and w average |psi_x| and |phi_x| over (0, delta]; the bar kinds take the sup over 0 < t <= delta.
    """
    if kind not in MODULUS_KINDS:
        raise ValueError(f"kind must be one of {MODULUS_KINDS}, got {kind!r}")
    delta = _check_delta(delta)
    table = _cumulative(f, float(x), "psi" if "tilde" in kind else "phi", grid)
    values = (_bar if kind.endswith("bar") else _average)(table, np.atleast_1d(delta))
    return float(values[0]) if delta.ndim == 0 else values


def modulus_profile(f: PeriodicFunction, x: float, n: int, kind: str, grid: GridSpec = DEFAULT_GRID) -> ModulusProfile:
    """Modulus of the chosen kind at delta = pi/(k+1) for k = 0..n."""
    return ModulusProfile(kind, modulus(f, x, PI / (np.arange(n + 1) + 1.0), kind, grid), float(x))


# ---------------------------------------------------------------------------
# classical (L^p) moduli and norms


def _x_nodes(grid: GridSpec) -> np.ndarray:
    return -PI + TWO_PI / grid.m * np.arange(grid.m)


def _check_p(p: float):
    if not p >= 1:
        raise DomainError(f"p must satisfy 1 <= p <= inf, got {p}")


def _lp_norms(values: np.ndarray, p: float, grid: GridSpec) -> np.ndarray:
    """L^p norms over the last axis of values >= 0 sampled on the uniform x nodes."""
    h = TWO_PI / grid.m
    if math.isinf(p):
        return values.max(axis=-1)
    if p == 1:
        return h * values.sum(axis=-1)
    if p == 2:
        return np.sqrt(h * np.sum(values**2, axis=-1))
    return (h * np.sum(values**p, axis=-1)) ** (1.0 / p)


def lp_norm(g, p: float, grid: GridSpec = DEFAULT_GRID) -> float:
    """Quadrature L^p norm of g over [-pi, pi]; p = inf is the grid maximum."""
    _check_p(p)
    return float(_lp_norms(np.abs(np.asarray(g(_x_nodes(grid)), dtype=float)), p, grid))


def _classical_t_set() -> np.ndarray:
    pieces = [
        PI * 2.0 ** (-np.arange(21.0)),
        np.linspace(0.0, PI, 257)[1:],
        PI / (np.arange(129.0) + 1.0),
    ]
    return sorted_unique(np.concatenate(pieces))


def _increment_norms(f: PeriodicFunction, t: np.ndarray, p: float, kind: str, grid: GridSpec) -> np.ndarray:
    """L^p norm in x of the increment at each t."""
    return _lp_norms(np.abs(_INCREMENTS[kind](f, _x_nodes(grid)[None, :], t[:, None])), p, grid)


@lru_cache(maxsize=256)
def _classical_table(f: PeriodicFunction, p: float, kind: str, grid: GridSpec):
    """The t-set, the norm at each t and their running max."""
    t = _classical_t_set()
    norms = _increment_norms(f, t, p, kind, grid)
    return t, norms, _running_max(norms)


def classical_modulus(f: PeriodicFunction, delta, p: float, grid: GridSpec = DEFAULT_GRID, conjugate: bool = True):
    """sup over 0 < t <= delta of the L^p norm in x of psi (phi if conjugate=False), shaped like delta.

    A delta on the t-set reads the table; all others share one _increment_norms call.
    """
    delta = _check_delta(delta)
    _check_p(p)
    kind = "psi" if conjugate else "phi"
    t, _, running = _classical_table(f, float(p), kind, grid)
    values = _sup_up_to(t, running, np.atleast_1d(delta), lambda d: _increment_norms(f, d, p, kind, grid))
    return float(values[0]) if delta.ndim == 0 else values


def pointwise_modulus_on_nodes(
    f: PeriodicFunction, delta: float, kind: str, grid: GridSpec = DEFAULT_GRID
) -> tuple[np.ndarray, np.ndarray]:
    """w~_x(delta) (or w_x) at the uniform x quadrature nodes, read from the node table.

    Shares the x nodes with lp_norm, so norms of the pointwise modulus are a
    plain composition.  The table does not split panels at psi's kinks; at
    the default grid the absolute error against modulus(..., "w_tilde") stays below 2e-7 on
    the corpus.
    """
    if kind not in ("w", "w_tilde"):
        raise ValueError(f"batched evaluation supports plain kinds only, got {kind!r}")
    delta = _check_delta(delta)
    table = _node_table(f, "psi" if kind == "w_tilde" else "phi", grid)
    return _x_nodes(grid), _average(table, np.atleast_1d(delta))[:, 0]


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


__all__ = [
    "ModulusProfile",
    "MODULUS_KINDS",
    "Lemma2Result",
    "LEMMA2_SLACK",
    "modulus",
    "modulus_profile",
    "classical_modulus",
    "lp_norm",
    "pointwise_modulus_on_nodes",
    "lemma2_check",
]
