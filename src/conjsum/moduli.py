"""Pointwise and classical moduli of continuity, L^p norms, averaged-moduli facts.

Every pointwise modulus is a lookup in a cumulative integral of |psi_x| (or
|phi_x|) over panels of (0, pi].  The master panel boundaries are a uniform
grid, a dyadic cascade toward 0 and every delta = pi/(k+1) up to k = 256.
Two tables hold them:

- ``_cumulative`` (one x): the master set with m/2 uniform panels, plus psi's
  jump locations and the refined roots of the signed increment, so the
  integrand is smooth inside every panel.
- ``_node_table`` (every uniform x node of ``lp_norm``): the master set alone,
  with at most 512 uniform panels, since the kinks move with x.  It holds
  8*m*P bytes for P boundaries (P = 792 at the default grid: 6.5 MB at
  m = 1024, about 104 MB at the largest m).  Only the most recent table is
  kept: callers walk delta one function at a time.

A delta on the boundary set reads cum[i] / delta; any other delta adds one
8-node Gauss-Legendre panel from the boundary below it.

The sup over 0 < t <= delta in the bar and classical moduli is discretized
over that master set (plus the endpoint delta itself); the discretized sup is
a lower bound on the true one.  Because the t-sets are nested across delta,
bar moduli are nondecreasing in delta by construction.  Bound checks that put
bar moduli on the right-hand side only get stricter from under-reporting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Optional

import numpy as np

from .functions import (
    DEFAULT_GRID,
    PI,
    TWO_PI,
    DomainError,
    GridSpec,
    PeriodicFunction,
    eval_phi,
    eval_psi,
    gl_panels,
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
    """Modulus values at delta = pi/(k+1), k = 0..n, for one x (None for classical)."""

    kind: str
    values: np.ndarray
    x: Optional[float]

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


def _cumulate(absval, bounds: np.ndarray) -> np.ndarray:
    """Integrals of absval over (0, bounds[i]] for every i, one row per x if absval has an x axis."""
    nodes, weights = gl_panels(bounds[:-1], bounds[1:])
    samples = absval(nodes)
    if not np.all(np.isfinite(samples)):
        raise DomainError("modulus integrand is not finite")
    panel = (weights * samples).sum(axis=-1)
    return np.concatenate([np.zeros(panel.shape[:-1] + (1,)), np.cumsum(panel, axis=-1)], axis=-1)


class _AbsCumulative:
    """Cumulative integral of |increment| at panel boundaries, queried by arrays of delta.

    ``cum[..., i]`` integrates over (0, bounds[i]]; a leading axis, if any,
    runs over x.  ``absval`` maps a (k, 8) node array to |increment| with the
    same leading axis.  Queries take deltas in (0, pi].
    """

    def __init__(self, absval, bounds: np.ndarray, cum: np.ndarray):
        self._abs = absval
        self.bounds = bounds
        self.cum = cum

    def average(self, deltas) -> np.ndarray:
        """(1/delta) times the integral over (0, delta]."""
        deltas = np.asarray(deltas, dtype=float)
        i = np.minimum(np.searchsorted(self.bounds, deltas), len(self.bounds) - 1)
        total = self.cum[..., i]
        off = np.flatnonzero(self.bounds[i] != deltas)
        if len(off):
            below = i[off] - 1
            nodes, weights = gl_panels(self.bounds[below], deltas[off])
            # vecdot adds each panel in np.dot's order, so a delta gives the same bits in any batch
            total[..., off] = self.cum[..., below] + np.vecdot(weights, self._abs(nodes))
        return total / deltas

    def bar(self, deltas) -> np.ndarray:
        """Largest average over the boundaries up to delta and delta itself."""
        deltas = np.asarray(deltas, dtype=float)
        prefix_max = np.maximum.accumulate(self.cum[..., 1:] / self.bounds[1:], axis=-1)
        last = np.searchsorted(self.bounds, deltas, side="right") - 2
        interior = np.where(last >= 0, prefix_max[..., np.maximum(last, 0)], 0.0)
        return np.maximum(self.average(deltas), interior)


@lru_cache(maxsize=4096)
def _cumulative(f: PeriodicFunction, x: float, kind: str, grid: GridSpec) -> _AbsCumulative:
    """One x: master boundaries plus psi's jumps and the roots of the increment."""
    signed = partial(_INCREMENTS[kind], f, x)
    breaks = np.asarray(psi_breakpoints(f, x), dtype=float)
    bounds = _panel_bounds(_master_pieces(grid.m // 2, grid.refinement) + [breaks])
    vals = np.asarray(signed(bounds[1:]), dtype=float)
    flips = np.nonzero(vals[:-1] * vals[1:] < 0.0)[0]
    if len(flips):
        bounds = _panel_bounds([bounds, _bisect_roots(signed, bounds[1:][flips], bounds[2:][flips])])
    absval = _abs_increment(f, x, kind)
    return _AbsCumulative(absval, bounds, _cumulate(absval, bounds))


@lru_cache(maxsize=1)
def _node_table(f: PeriodicFunction, kind: str, grid: GridSpec) -> _AbsCumulative:
    """Every uniform x node at once, on the master boundaries only."""
    x = _x_nodes(grid)[:, None, None]
    bounds = _panel_bounds(_master_pieces(min(grid.m // 2, _TABLE_MAX_PANELS), grid.refinement))
    cum = np.empty((grid.m, len(bounds)))
    for s in range(0, grid.m, _TABLE_ROWS):
        cum[s : s + _TABLE_ROWS] = _cumulate(_abs_increment(f, x[s : s + _TABLE_ROWS], kind), bounds)
    return _AbsCumulative(_abs_increment(f, x, kind), bounds, cum)


def _check_delta(delta: float):
    if not (0.0 < delta <= PI):
        raise DomainError(f"delta must lie in (0, pi], got {delta}")


def _lookup(f: PeriodicFunction, x: float, deltas: np.ndarray, kind: str, grid: GridSpec) -> np.ndarray:
    cum = _cumulative(f, float(x), "psi" if "tilde" in kind else "phi", grid)
    return cum.bar(deltas) if kind.endswith("bar") else cum.average(deltas)


def _at(f: PeriodicFunction, x: float, delta: float, kind: str, grid: GridSpec) -> float:
    _check_delta(delta)
    return float(_lookup(f, x, np.array([delta]), kind, grid)[0])


def w_tilde(f: PeriodicFunction, x: float, delta: float, grid: GridSpec = DEFAULT_GRID) -> float:
    """(1/delta) int_0^delta |psi_x(u)| du."""
    return _at(f, x, delta, "w_tilde", grid)


def w_plain(f: PeriodicFunction, x: float, delta: float, grid: GridSpec = DEFAULT_GRID) -> float:
    """(1/delta) int_0^delta |phi_x(u)| du."""
    return _at(f, x, delta, "w", grid)


def w_tilde_bar(f: PeriodicFunction, x: float, delta: float, grid: GridSpec = DEFAULT_GRID) -> float:
    """sup over 0 < t <= delta of the psi average (discretized, includes t=delta)."""
    return _at(f, x, delta, "w_tilde_bar", grid)


def w_bar(f: PeriodicFunction, x: float, delta: float, grid: GridSpec = DEFAULT_GRID) -> float:
    """sup over 0 < t <= delta of the phi average (discretized, includes t=delta)."""
    return _at(f, x, delta, "w_bar", grid)


def modulus_profile(
    f: PeriodicFunction, x: float, n: int, kind: str, grid: GridSpec = DEFAULT_GRID
) -> ModulusProfile:
    """Modulus of the chosen kind at delta = pi/(k+1) for k = 0..n."""
    if kind not in MODULUS_KINDS:
        raise ValueError(f"kind must be one of {MODULUS_KINDS}, got {kind!r}")
    values = _lookup(f, x, PI / (np.arange(n + 1) + 1.0), kind, grid)
    return ModulusProfile(kind=kind, values=values, x=float(x))


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
    t = _classical_t_set()
    return t, _increment_norms(f, t, p, kind, grid)


def classical_modulus(
    f: PeriodicFunction,
    delta: float,
    p: float,
    grid: GridSpec = DEFAULT_GRID,
    conjugate: bool = True,
) -> float:
    """sup over 0 < t <= delta of the L^p norm in x of psi (phi if conjugate=False)."""
    _check_delta(delta)
    _check_p(p)
    kind = "psi" if conjugate else "phi"
    t, norms = _classical_table(f, float(p), kind, grid)
    k = int(np.searchsorted(t, delta, side="right"))  # t[:k] <= delta
    best = float(norms[:k].max()) if k else 0.0
    if k and t[k - 1] == delta:
        return best  # delta is a node, whose norm the table already holds
    endpoint = float(_increment_norms(f, np.array([delta]), p, kind, grid)[0])
    return max(best, endpoint)


def pointwise_modulus_on_nodes(
    f: PeriodicFunction, delta: float, kind: str, grid: GridSpec = DEFAULT_GRID
) -> tuple[np.ndarray, np.ndarray]:
    """w~_x(delta) (or w_x) at the uniform x quadrature nodes, read from the node table.

    Shares the x nodes with lp_norm, so norms of the pointwise modulus are a
    plain composition.  The table does not split panels at psi's kinks; at
    the default grid the absolute error against w_tilde stays below 2e-7 on
    the corpus.
    """
    if kind not in ("w", "w_tilde"):
        raise ValueError(f"batched evaluation supports plain kinds only, got {kind!r}")
    _check_delta(delta)
    table = _node_table(f, "psi" if kind == "w_tilde" else "phi", grid)
    return _x_nodes(grid), table.average(np.array([delta]))[:, 0]


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
    "w_tilde",
    "w_plain",
    "w_tilde_bar",
    "w_bar",
    "modulus_profile",
    "classical_modulus",
    "lp_norm",
    "pointwise_modulus_on_nodes",
    "lemma2_check",
]
