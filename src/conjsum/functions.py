"""2*pi-periodic test functions, the shared quadrature engine and the corpus.

The engine is the embedded Gauss-Kronrod 7/15 pair (``kronrod_panels``: one
set of 15 nodes, a Kronrod and a Gauss row of weights), the one panel rule of
every integral; the dyadically graded meshes of ``graded_boundaries`` for
integrands with a 1/t-type feature at the left endpoint; and ``PanelSums``:
running sums of the Kronrod and Gauss panel integrals from one anchored end of
a mesh.  The conjugate (anchored at pi), the moduli (anchored at 0) and
check_condition_2_511 (a total) all integrate through it, on meshes that
``_insert_points`` merges: the one rule for cutting panels at extra points,
which drops a boundary within 1e-15 of the one below it but keeps both ends.
``eval_psi`` and ``eval_phi`` are the one definition of the increments psi_x
and phi_x; x may be an array that broadcasts against t.  ``lp_norms`` is the
one discrete L^p norm over x, and ``check_exponent`` the one test of its
exponent; ``check_x`` is the one test of a point x.  The exceptions and
GridSpec live in ``base`` and are importable from here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .base import (DEFAULT_GRID, MAX_GRID_M, MAX_GRID_REFINEMENT, DomainError, GridSpec, SingularIntegrandError,
                   UnknownNameError)

PI = math.pi
TWO_PI = 2.0 * math.pi
MAX_ABS_X = 2.0**20  # the largest |x| that check_x reduces by the period

# QUADPACK qk15 (Piessens et al., 1983) from the centre out, written out so no process imports numpy.polynomial:
# the Kronrod nodes, the Kronrod weights, and the weights of the 7-node Gauss rule that they embed at the even
# entries (0 at the Kronrod-only nodes)
_k15_half_nodes = np.array([0.0, 0.20778495500789848, 0.4058451513773972, 0.5860872354676911, 0.7415311855993945,
                            0.8648644233597691, 0.9491079123427585, 0.9914553711208126])
_k15_half_weights = np.array([0.20948214108472782, 0.20443294007529889, 0.19035057806478542, 0.1690047266392679,
                              0.14065325971552592, 0.10479001032225019, 0.06309209262997856, 0.022935322010529224])
_g7_half_weights = np.array([0.4179591836734694, 0.0, 0.3818300505051189, 0.0, 0.27970539148927664, 0.0,
                             0.1294849661688697, 0.0])
_k15_nodes = np.concatenate((-_k15_half_nodes[:0:-1], _k15_half_nodes))
_k15_weights = np.stack([np.concatenate((half[:0:-1], half)) for half in (_k15_half_weights, _g7_half_weights)])


def check_half_period(name: str, value):
    """value as a float, or an array if it has an axis, after one range test naming the first entry outside (0, pi]."""
    if isinstance(value, float) and 0.0 < value <= PI:
        return value  # a valid single float, tested without array ufuncs
    value = np.asarray(value, dtype=float)
    ok = (value > 0.0) & (value <= PI)
    if not ok.all():
        raise DomainError(f"{name} must lie in (0, pi], got {value[~ok].flat[0]}")
    return float(value) if value.ndim == 0 else value


def check_x(name: str, x) -> float:
    """x as a float in [-pi, pi], after a test that it is finite and |x| <= MAX_ABS_X; run before any cache keyed by x.

    An x in [-pi, pi] keeps its bits.  Any other x is reduced by math.remainder(x, TWO_PI), which is exact with
    respect to the double TWO_PI; that lies 2.45e-16 below 2 pi, so the reduced x is off by about |x| * 3.9e-17,
    at most 4.1e-11 at |x| = MAX_ABS_X.  A larger |x| is refused: the offset would reach O(1) (3.9 at 1e17), and
    unreduced, x + t rounds back to x there, so psi_x would vanish.
    """
    if not math.isfinite(x := float(x)):
        raise DomainError(f"{name} must be finite, got {x}")
    if abs(x) > MAX_ABS_X:
        raise DomainError(f"{name} must lie in [-2^20, 2^20], got {x}")
    return math.remainder(x, TWO_PI) if abs(x) > PI else x


def check_exponent(name: str, p):
    """p unchanged, after a test that 1 <= p <= inf (NaN fails)."""
    if not p >= 1:
        raise DomainError(f"{name} must satisfy 1 <= p <= inf, got {p}")
    return p


@dataclass(frozen=True)
class KnownCoefficients:
    """Closed-form Fourier coefficients: a0 plus a generator nu -> (a_nu, b_nu)."""

    a0: float
    pair: Callable[[int], tuple[float, float]]


@dataclass(frozen=True)
class KnownConjugate:
    eval: Callable[[np.ndarray], np.ndarray]
    singular_points: tuple[float, ...] = ()   # mod 2*pi


@dataclass(eq=False)
class PeriodicFunction:
    """A named, evaluable 2*pi-periodic real function.

    ``breakpoints`` lists the points in (-pi, pi] where f or f' is
    discontinuous; the quadrature engine splits panels there.
    """

    name: str
    eval: Callable[[np.ndarray], np.ndarray]
    known_coeffs: Optional[KnownCoefficients] = None
    known_conjugate: Optional[KnownConjugate] = None
    breakpoints: tuple[float, ...] = ()

    def __call__(self, x):
        return self.eval(np.asarray(x, dtype=float))

    def is_singular_at(self, x: float) -> bool:
        """Whether x lies within 1e-12, taken mod 2*pi, of a known singular point of the conjugate."""
        if self.known_conjugate is None:
            return False
        for s in self.known_conjugate.singular_points:
            d = (x - s) % TWO_PI
            if min(d, TWO_PI - d) < 1e-12:
                return True
        return False


def eval_psi(f: PeriodicFunction, x: float, t):
    """Odd increment psi_x(t) = f(x+t) - f(x-t)."""
    t = np.asarray(t, dtype=float)
    out = f(x + t) - f(x - t)
    return float(out) if out.ndim == 0 else out


def eval_phi(f: PeriodicFunction, x: float, t):
    """Even second difference phi_x(t) = f(x+t) + f(x-t) - 2 f(x)."""
    t = np.asarray(t, dtype=float)
    out = f(x + t) + f(x - t) - 2.0 * f(x)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# quadrature engine


def kronrod_panels(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Kronrod 15 nodes, one row per panel [lo[k], hi[k]], and weights of shape (2, panels, 15).

    Weight row 0 is the 15-node Kronrod rule (exact to degree 22), row 1 the embedded 7-node Gauss rule (degree 13),
    so one evaluation of the integrand gives both sums; their difference is the error estimate of the Gauss sum,
    a cautious one of the Kronrod sum.
    """
    half = 0.5 * (hi - lo)[:, None]
    mid = 0.5 * (hi + lo)[:, None]
    return mid + half * _k15_nodes, half * _k15_weights[:, None, :]


def panel_integrals(weights: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Each panel's integral from its row of rule weights and of integrand values, which must all be finite."""
    if not np.all(np.isfinite(values)):
        raise SingularIntegrandError("integrand is not finite at a quadrature node")
    # vecdot adds each panel in np.dot's order, so a panel gives the same bits in any batch
    return np.vecdot(weights, values)


def running_sums(panels: np.ndarray, from_top: bool) -> np.ndarray:
    """Sums of the panel integrals (last axis) from the anchored end to each boundary: 0 at the anchor."""
    zero = np.zeros(panels.shape[:-1] + (1,))
    if from_top:
        return np.concatenate((np.cumsum(panels[..., ::-1], axis=-1)[..., ::-1], zero), axis=-1)
    return np.concatenate((zero, np.cumsum(panels, axis=-1)), axis=-1)


class PanelSums:
    """Integrals of g from one anchored end of a mesh to each boundary, and to any t.

    ``cum[..., r, i]`` integrates g over [bounds[0], bounds[i]], or over
    [bounds[i], bounds[-1]] when ``from_top``, with the Kronrod rule (r = 0)
    or the embedded Gauss rule (r = 1) of ``kronrod_panels``; ``at`` gives
    both sums on the same axis.  The sums run from the anchor, so a short
    integral beside it is never a total minus a long one.  g maps a
    (panels, 15) array of t to its values, with a leading x axis if g has one,
    which must then end in a unit axis for the rule axis.  Tables are shared
    through caches, so ``bounds`` and ``cum`` are made read-only.
    """

    def __init__(self, g, bounds: np.ndarray, from_top: bool = False):
        self.g, self.bounds, self.from_top = g, bounds, from_top
        self.cum = running_sums(self._integrals(bounds[:-1], bounds[1:]), from_top)
        bounds.flags.writeable = self.cum.flags.writeable = False

    def _integrals(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        nodes, weights = kronrod_panels(lo, hi)
        return panel_integrals(weights, self.g(nodes))

    def at(self, t) -> np.ndarray:
        """The integral between the anchor and each t in [bounds[0], bounds[-1]].

        A t on a boundary reads cum there; any other t adds the partial panel
        between it and the panel's boundary on the anchor's side.
        """
        t = np.asarray(t, dtype=float)
        i = np.searchsorted(self.bounds, t, side="right") - 1
        out = self.cum[..., i]
        off = np.flatnonzero(self.bounds[i] != t)
        if len(off):
            below = i[off]
            if self.from_top:
                out[..., off] = self.cum[..., below + 1] + self._integrals(t[off], self.bounds[below + 1])
            else:
                out[..., off] = self.cum[..., below] + self._integrals(self.bounds[below], t[off])
        return out


def lp_norms(values: np.ndarray, p: float, h: float) -> np.ndarray:
    """Discrete L^p norms over the last axis of values >= 0 at nodes of weight h; p = inf is the maximum.

    Each row is scaled by the power of two that puts its largest entry in [1, 2), so no row underflows to 0.  That
    keeps the unscaled bits at p = 1 and p = 2, where the root is the correctly rounded sqrt, so a row has the same
    bits alone and in a batch (numpy's scalar pow(s, 0.5) would not).  Every p <= 1000 stays finite on conjsum's rows
    (N <= 2^14 entries, N h <= 2 pi); a larger p may overflow to inf, not 0.
    """
    if math.isinf(p):
        return values.max(axis=-1)
    e = np.frexp(values.max(axis=-1))[1] - 1  # the row maximum is 2^e times a number in [1, 2)
    s = h * np.sum(np.ldexp(values, -e[..., None]) ** p, axis=-1)
    return np.ldexp(np.sqrt(s) if p == 2.0 else s ** (1.0 / p), e)


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """The distinct values in increasing order, as np.unique gives them for finite floats.

    np.unique's first call imports numpy.ma, about 15 ms of every CLI process.
    Equal values are kept once, so inputs must not hold both 0.0 and -0.0.
    """
    out = np.sort(values)
    return out[np.concatenate(([True], out[1:] != out[:-1]))]


def _insert_points(boundaries: np.ndarray, points: Sequence[float]) -> np.ndarray:
    """boundaries (sorted) with the points inside them added, less each boundary within 1e-15 above the one below it.

    Both ends stay: a point within 1e-15 below the last boundary is dropped instead.
    """
    points = np.asarray(points, dtype=float)
    extra = points[(boundaries[0] < points) & (points < boundaries[-1])]
    if not len(extra):
        return boundaries
    merged = sorted_unique(np.concatenate([boundaries, extra]))
    inner = (np.diff(merged[:-1]) > 1e-15) & (merged[-1] - merged[1:-1] > 1e-15)
    return merged[np.concatenate([[True], inner, [True]])]


@lru_cache(maxsize=256)
def graded_boundaries(a: float, b: float, grid: GridSpec) -> np.ndarray:
    """Panel boundaries on [a, b] graded dyadically toward a, built once per (a, b, grid).

    Gap j spans [a + (b-a) 2^-(j+1), a + (b-a) 2^-j]; wide gaps get
    proportionally more panels so oscillatory integrands stay resolved.
    The cached array is shared, so it is read-only.
    """
    length = b - a
    pieces = [np.array([b])]
    per_gap_budget = max(2, grid.m // 16)
    for j in range(grid.refinement):
        hi = a + length * 2.0 ** (-j)
        lo = a + length * 2.0 ** (-(j + 1))
        parts = max(2, int(math.ceil(per_gap_budget * 2.0 ** (-j))))
        pieces.append(np.linspace(hi, lo, parts + 1)[1:])
    pieces.append(np.array([a]))
    bounds = sorted_unique(np.concatenate(pieces))
    bounds.flags.writeable = False
    return bounds


# ---------------------------------------------------------------------------
# corpus


def _mod_two_pi(v: np.ndarray) -> np.ndarray:
    """np.mod(v, TWO_PI), bit for bit, by one compare-and-add when every entry lies in [-TWO_PI, 2 TWO_PI).

    There np.mod's fmod is exact and leaves at most one rounded add, the one made here.  Below -TWO_PI np.mod
    rounds twice and above 2 TWO_PI the subtraction is no longer exact, so such an array, or one holding NaN or
    an infinity, goes to np.mod itself.
    """
    if not (v.size and -TWO_PI <= v.min() and v.max() < 2.0 * TWO_PI):
        return np.mod(v, TWO_PI)
    out = (v < 0.0) * TWO_PI  # in place from here: one float temporary besides the result
    out += v
    out -= (v >= TWO_PI) * TWO_PI
    return out


def _wrap_symmetric(x: np.ndarray) -> np.ndarray:
    """Reduce to (-pi, pi]."""
    return PI - _mod_two_pi(PI - x)


def _sawtooth(x: np.ndarray) -> np.ndarray:
    y = _mod_two_pi(x)
    return np.where(y == 0.0, 0.0, 0.5 * (PI - y))


def _sawtooth_conjugate(x: np.ndarray) -> np.ndarray:
    y = _mod_two_pi(x)
    return np.log(2.0 * np.sin(0.5 * y))


_HAT_HALF_WIDTH = PI / 2.0


def _hat(x: np.ndarray) -> np.ndarray:
    y = _wrap_symmetric(x)
    return np.maximum(0.0, 1.0 - np.abs(y) / _HAT_HALF_WIDTH)


def _hat_pair(nu: int) -> tuple[float, float]:
    w = _HAT_HALF_WIDTH
    return 2.0 * (1.0 - math.cos(nu * w)) / (PI * w * nu * nu), 0.0


@lru_cache(maxsize=1)
def _clausen_coeffs() -> np.ndarray:
    """|B_2k| / (2k (2k+1)!) for k = 1..30, from exact Bernoulli numbers (Akiyama-Tanigawa)."""
    from fractions import Fraction  # 10 ms of import that only this series needs

    a, bernoulli = [], []
    for m in range(61):
        a.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
        bernoulli.append(a[0])
    coeffs = np.array([float(abs(bernoulli[m]) / (m * math.factorial(m + 1))) for m in range(2, 61, 2)])
    coeffs.flags.writeable = False
    return coeffs


def _clausen2(t: np.ndarray) -> np.ndarray:
    """Cl_2(t) = sum sin(nu t)/nu^2 = t - t ln|t| + sum_k c_k t^(2k+1) for t in (-pi, pi].

    The series converges for |t| < 2 pi; after reduction to (-pi, pi] its 30th
    term is below 1e-20.
    """
    t = _wrap_symmetric(t)
    t2 = t * t
    series = np.zeros_like(t)
    for c in _clausen_coeffs()[::-1]:
        series = series * t2 + c
    return t - t * np.log(np.abs(np.where(t == 0.0, 1.0, t))) + t * t2 * series


def _hat_conjugate(x: np.ndarray) -> np.ndarray:
    """sum a_nu sin(nu x) for the hat's a_nu = 2(1 - cos(nu w))/(pi w nu^2)."""
    w = _HAT_HALF_WIDTH
    return 2.0 / (PI * w) * (_clausen2(x) - 0.5 * _clausen2(x + w) - 0.5 * _clausen2(x - w))


def _single_mode_pair(mode: int, sine: bool):
    def pair(nu: int) -> tuple[float, float]:
        if nu != mode:
            return 0.0, 0.0
        return (0.0, 1.0) if sine else (1.0, 0.0)

    return pair


def _build_corpus() -> list[PeriodicFunction]:
    funcs = [
        PeriodicFunction(
            name="const",
            eval=lambda x: np.ones_like(np.asarray(x, dtype=float)),
            known_coeffs=KnownCoefficients(a0=2.0, pair=lambda nu: (0.0, 0.0)),
            known_conjugate=KnownConjugate(eval=lambda x: np.zeros_like(np.asarray(x, dtype=float))),
        ),
        PeriodicFunction(
            name="sin",
            eval=np.sin,
            known_coeffs=KnownCoefficients(a0=0.0, pair=_single_mode_pair(1, sine=True)),
            known_conjugate=KnownConjugate(eval=lambda x: -np.cos(x)),
        ),
        PeriodicFunction(
            name="cos",
            eval=np.cos,
            known_coeffs=KnownCoefficients(a0=0.0, pair=_single_mode_pair(1, sine=False)),
            known_conjugate=KnownConjugate(eval=np.sin),
        ),
        PeriodicFunction(
            name="sin3",
            eval=lambda x: np.sin(3.0 * x),
            known_coeffs=KnownCoefficients(a0=0.0, pair=_single_mode_pair(3, sine=True)),
            known_conjugate=KnownConjugate(eval=lambda x: -np.cos(3.0 * x)),
        ),
        PeriodicFunction(
            name="sawtooth",
            eval=_sawtooth,
            known_coeffs=KnownCoefficients(a0=0.0, pair=lambda nu: (0.0, 1.0 / nu)),
            known_conjugate=KnownConjugate(eval=_sawtooth_conjugate, singular_points=(0.0,)),
            breakpoints=(0.0,),
        ),
        PeriodicFunction(
            name="hat",
            eval=_hat,
            known_coeffs=KnownCoefficients(a0=0.5, pair=_hat_pair),
            known_conjugate=KnownConjugate(eval=_hat_conjugate),
            breakpoints=(-_HAT_HALF_WIDTH, 0.0, _HAT_HALF_WIDTH),
        ),
    ]
    return funcs


_CORPUS = _build_corpus()
_REGISTRY = {f.name: f for f in _CORPUS}


def corpus() -> list[PeriodicFunction]:
    """The built-in test functions (shared instances, safe to cache against)."""
    return list(_CORPUS)


def registry() -> dict[str, PeriodicFunction]:
    return dict(_REGISTRY)


def by_name(name: str) -> PeriodicFunction:
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise UnknownNameError(f"unknown function {name!r}; registry has: {known}") from None


def psi_breakpoints(f: PeriodicFunction, x: float) -> list[float]:
    """t in (0, pi) where u -> f(x+u) or u -> f(x-u) hits a breakpoint of f."""
    out = set()
    for b in f.breakpoints:
        for t0 in ((b - x) % TWO_PI, (x - b) % TWO_PI):
            for cand in (t0, t0 - TWO_PI, TWO_PI - t0):
                if 0.0 < cand < PI:
                    out.add(cand)
    return sorted(out)
