"""Pointwise and classical moduli of continuity, L^p norms, averaged-moduli facts.

All pointwise moduli at one (f, x) are served from a single cached cumulative
integral of |psi_x| (or |phi_x|) over a master panelization of (0, pi].  The
panel boundaries include a uniform grid, a dyadic cascade toward 0, every
delta = pi/(k+1) up to k = 256, psi's jump locations and the refined roots of
the signed increment, so the integrand is smooth inside every panel.

The sup over 0 < t <= delta in the bar and classical moduli is discretized
over that master set (plus the endpoint delta itself); the discretized sup is
a lower bound on the true one.  Because the t-sets are nested across delta,
bar moduli are nondecreasing in delta by construction.  Bound checks that put
bar moduli on the right-hand side only get stricter from under-reporting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .functions import (
    DEFAULT_GRID,
    PI,
    TWO_PI,
    DomainError,
    GridSpec,
    PeriodicFunction,
    gl_rule,
    graded_boundaries,
    psi_breakpoints,
)

MODULUS_KINDS = ("w", "w_bar", "w_tilde", "w_tilde_bar")


@dataclass(frozen=True)
class ModulusProfile:
    """Modulus values at delta = pi/(k+1), k = 0..n, for one x (None for classical)."""

    kind: str
    values: np.ndarray
    x: Optional[float]

    @property
    def deltas(self) -> np.ndarray:
        return PI / (np.arange(len(self.values)) + 1.0)


def _increment(f: PeriodicFunction, x: float, kind: str):
    fx2 = 2.0 * float(f(np.asarray(x)))
    if kind == "psi":
        return lambda t: f(x + t) - f(x - t)
    return lambda t: f(x + t) + f(x - t) - fx2


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


class _AbsCumulative:
    """Cumulative integral of |increment| with queryable partial integrals."""

    def __init__(self, f: PeriodicFunction, x: float, kind: str, grid: GridSpec):
        signed = _increment(f, x, kind)
        self._abs = lambda t: np.abs(signed(np.asarray(t, dtype=float)))

        pieces = [
            np.linspace(0.0, PI, grid.m // 2 + 1),
            PI * 2.0 ** (-np.arange(1.0, grid.refinement + 17.0)),
            PI / (np.arange(257.0) + 1.0),
            np.asarray(psi_breakpoints(f, x), dtype=float),
        ]
        bounds = np.unique(np.concatenate(pieces))
        bounds = bounds[np.concatenate([[True], np.diff(bounds) > 1e-15])]

        vals = np.asarray(signed(bounds[1:]), dtype=float)
        flips = np.nonzero(vals[:-1] * vals[1:] < 0.0)[0]
        if len(flips):
            roots = _bisect_roots(signed, bounds[1:][flips], bounds[2:][flips])
            bounds = np.unique(np.concatenate([bounds, roots]))
            bounds = bounds[np.concatenate([[True], np.diff(bounds) > 1e-15])]

        nodes, weights = gl_rule(bounds)
        samples = self._abs(nodes)
        if not np.all(np.isfinite(samples)):
            raise DomainError("modulus integrand is not finite")
        panel = (weights * samples).reshape(len(bounds) - 1, -1).sum(axis=1)
        self.bounds = bounds
        self.cum = np.concatenate([[0.0], np.cumsum(panel)])

    def integral_to(self, t: float) -> float:
        if t <= 0.0:
            return 0.0
        if t >= self.bounds[-1]:
            return float(self.cum[-1])
        i = int(np.searchsorted(self.bounds, t))
        if self.bounds[i] == t:
            return float(self.cum[i])
        nodes, weights = gl_rule(np.array([self.bounds[i - 1], t]))
        return float(self.cum[i - 1] + np.dot(weights, self._abs(nodes)))

    def average(self, delta: float) -> float:
        return self.integral_to(delta) / delta

    def bar(self, delta: float) -> float:
        i = int(np.searchsorted(self.bounds, delta, side="right"))
        best = self.average(delta)
        if i > 1:
            interior = float(np.max(self.cum[1:i] / self.bounds[1:i]))
            best = max(best, interior)
        return best


@lru_cache(maxsize=4096)
def _cumulative(f: PeriodicFunction, x: float, kind: str, grid: GridSpec) -> _AbsCumulative:
    return _AbsCumulative(f, x, kind, grid)


def _check_delta(delta: float):
    if not (0.0 < delta <= PI):
        raise DomainError(f"delta must lie in (0, pi], got {delta}")


def w_tilde(f: PeriodicFunction, x: float, delta: float, grid: GridSpec = DEFAULT_GRID) -> float:
    """(1/delta) int_0^delta |psi_x(u)| du."""
    _check_delta(delta)
    return _cumulative(f, float(x), "psi", grid).average(delta)


def w_plain(f: PeriodicFunction, x: float, delta: float, grid: GridSpec = DEFAULT_GRID) -> float:
    """(1/delta) int_0^delta |phi_x(u)| du."""
    _check_delta(delta)
    return _cumulative(f, float(x), "phi", grid).average(delta)


def w_tilde_bar(f: PeriodicFunction, x: float, delta: float, grid: GridSpec = DEFAULT_GRID) -> float:
    """sup over 0 < t <= delta of the psi average (discretized, includes t=delta)."""
    _check_delta(delta)
    return _cumulative(f, float(x), "psi", grid).bar(delta)


def w_bar(f: PeriodicFunction, x: float, delta: float, grid: GridSpec = DEFAULT_GRID) -> float:
    """sup over 0 < t <= delta of the phi average (discretized, includes t=delta)."""
    _check_delta(delta)
    return _cumulative(f, float(x), "phi", grid).bar(delta)


def modulus_profile(
    f: PeriodicFunction, x: float, n: int, kind: str, grid: GridSpec = DEFAULT_GRID
) -> ModulusProfile:
    """Modulus of the chosen kind at delta = pi/(k+1) for k = 0..n."""
    if kind not in MODULUS_KINDS:
        raise ValueError(f"kind must be one of {MODULUS_KINDS}, got {kind!r}")
    inc_kind = "psi" if "tilde" in kind else "phi"
    cum = _cumulative(f, float(x), inc_kind, grid)
    deltas = PI / (np.arange(n + 1) + 1.0)
    if kind.endswith("bar"):
        values = np.array([cum.bar(d) for d in deltas])
    else:
        values = np.array([cum.average(d) for d in deltas])
    return ModulusProfile(kind=kind, values=values, x=float(x))


# ---------------------------------------------------------------------------
# classical (L^p) moduli and norms


def _x_nodes(grid: GridSpec) -> np.ndarray:
    return -PI + TWO_PI / grid.m * np.arange(grid.m)


def lp_norm(g, p: float, grid: GridSpec = DEFAULT_GRID) -> float:
    """Quadrature L^p norm of g over [-pi, pi]; p = inf is the grid maximum."""
    if not p >= 1:
        raise DomainError(f"p must satisfy 1 <= p <= inf, got {p}")
    nodes = _x_nodes(grid)
    values = np.abs(np.asarray(g(nodes), dtype=float))
    if math.isinf(p):
        return float(values.max())
    h = TWO_PI / grid.m
    if p == 1:
        return float(h * values.sum())
    if p == 2:
        return float(math.sqrt(h * float(np.dot(values, values))))
    return float((h * np.sum(values**p)) ** (1.0 / p))


def _classical_t_set() -> np.ndarray:
    pieces = [
        PI * 2.0 ** (-np.arange(21.0)),
        np.linspace(0.0, PI, 257)[1:],
        PI / (np.arange(129.0) + 1.0),
    ]
    return np.unique(np.concatenate(pieces))


def _increment_norms(f: PeriodicFunction, t: np.ndarray, p: float, kind: str, grid: GridSpec) -> np.ndarray:
    x = _x_nodes(grid)
    if kind == "psi":
        values = np.abs(f(x[None, :] + t[:, None]) - f(x[None, :] - t[:, None]))
    else:
        fx = np.asarray(f(x), dtype=float)
        values = np.abs(f(x[None, :] + t[:, None]) + f(x[None, :] - t[:, None]) - 2.0 * fx)
    h = TWO_PI / grid.m
    if math.isinf(p):
        return values.max(axis=1)
    if p == 1:
        return h * values.sum(axis=1)
    if p == 2:
        return np.sqrt(h * np.sum(values**2, axis=1))
    return (h * np.sum(values**p, axis=1)) ** (1.0 / p)


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
    if not p >= 1:
        raise DomainError(f"p must satisfy 1 <= p <= inf, got {p}")
    kind = "psi" if conjugate else "phi"
    t, norms = _classical_table(f, float(p), kind, grid)
    mask = t <= delta
    best = float(norms[mask].max()) if np.any(mask) else 0.0
    endpoint = float(_increment_norms(f, np.array([delta]), p, kind, grid)[0])
    return max(best, endpoint)


def pointwise_modulus_on_nodes(
    f: PeriodicFunction, delta: float, kind: str, grid: GridSpec = DEFAULT_GRID
) -> tuple[np.ndarray, np.ndarray]:
    """w~_x(delta) (or w_x) sampled at the uniform x quadrature nodes, batched.

    Shares the x nodes with lp_norm, so norms of the pointwise modulus are a
    plain composition.  Kink refinement is skipped here; the t panels are
    graded toward 0, which keeps the absolute error around 1e-7 on the corpus.
    """
    if kind not in ("w", "w_tilde"):
        raise ValueError(f"batched evaluation supports plain kinds only, got {kind!r}")
    _check_delta(delta)
    x = _x_nodes(grid)
    t_grid = GridSpec(m=min(grid.m, 512), refinement=grid.refinement)
    nodes, weights = gl_rule(graded_boundaries(0.0, delta, t_grid))
    if kind == "w_tilde":
        values = np.abs(f(x[:, None] + nodes[None, :]) - f(x[:, None] - nodes[None, :]))
    else:
        fx = np.asarray(f(x), dtype=float)
        values = np.abs(
            f(x[:, None] + nodes[None, :]) + f(x[:, None] - nodes[None, :]) - 2.0 * fx[:, None]
        )
    return x, (values @ weights) / delta


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
