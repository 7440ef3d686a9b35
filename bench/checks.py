"""Correctness checks of every workload's outputs.

Values are compared with the independent references in ``oracles``; where no
reference exists, with properties the method must have (finite nonnegative
bounds, ratio = lhs/rhs, Lemma 2, Eq. (81), bar >= plain, monotone in delta).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy import optimize

import oracles

PI = math.pi
CONJ_TOL = 1e-6        # conjugate limits: today's eps-walk reaches about 1.2e-8
VALUE_TOL = 1e-9       # truncated conjugates, coefficients, transforms, sin moduli
KERNEL_TOL = 1e-6      # kernel-form deviations against the direct ones
CHECKER_RTOL = 1e-12   # checker constants against closed forms / extended precision
RATIO_ZERO_TOL = 1e-11  # the program's documented 0/0 threshold for ratios
LEMMA2_SLACK = 1e-9
EQ81_RTOL = 1e-6


def default_x_grid() -> list[float]:
    pos = [j * PI / 16 for j in range(1, 16)]
    return sorted(-v for v in pos) + pos


@lru_cache(maxsize=None)
def _truncated(name: str, x: float, eps: float) -> float:
    return oracles.conjugate_truncated(name, x, eps)


@lru_cache(maxsize=None)
def _matrix(name: str, n_max: int) -> np.ndarray:
    return oracles.dense(name, n_max)


def _deviation(name, a_name, b_name, n, x, truncated, n_max) -> float:
    """|T~_{n,A,B} f(x) - f~(x)| (truncated at pi/(n+1) if asked), from the oracles."""
    value = oracles.transform(name, _matrix(a_name, n_max), _matrix(b_name, n_max), n, x)
    target = _truncated(name, x, PI / (n + 1)) if truncated else oracles.conjugate(name, x)
    return abs(value - target)


# the sup over 0 < t <= delta of (1 - cos t)/t is reached at its one critical point
_T_STAR = optimize.brentq(lambda t: t * math.sin(t) - (1.0 - math.cos(t)), 1.0, 3.0)


class Report:
    """Collects failed checks and the largest conjugate error seen."""

    def __init__(self):
        self.problems: list[str] = []
        self.conj_max_err = 0.0

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)

    def near(self, got: float, want: float, tol: float, what: str) -> float:
        err = abs(got - want)
        self.expect(err <= tol, f"{what}: got {got!r}, want {want!r}, |diff| {err:.2e} > {tol:.0e}")
        return err

    def conjugate(self, got: float, want: float, what: str) -> None:
        self.conj_max_err = max(self.conj_max_err, self.near(got, want, CONJ_TOL, what))

    def bound(self, lhs: float, rhs: float, ratio: float, what: str) -> None:
        """lhs, rhs and ratio finite and >= 0, ratio = lhs/rhs under the 0/0 rule."""
        self.expect(all(math.isfinite(v) and v >= 0.0 for v in (lhs, rhs, ratio)),
                    f"{what}: lhs {lhs!r}, rhs {rhs!r}, ratio {ratio!r} not finite and >= 0")
        if lhs < RATIO_ZERO_TOL and rhs < RATIO_ZERO_TOL:
            want = 0.0
        elif rhs < RATIO_ZERO_TOL:
            want = math.inf
        else:
            want = lhs / rhs
        self.expect(ratio == want or abs(ratio - want) <= 1e-12 * abs(want),
                    f"{what}: ratio {ratio!r} is not lhs/rhs = {want!r}")


# ---------------------------------------------------------------------------
# CLI outputs: rows are dicts of the printed fields


def _f(row, key) -> float:
    return float(row[key])


def check_pointwise(rep: Report, rows: list[dict], theorem: str, n_max: int) -> None:
    truncated = theorem in ("T1.51", "T2.trunc")
    previous = {}
    for row in rows:
        name, n, x = row["function"], int(row["n"]), _f(row, "x")
        lhs, rhs, ratio = _f(row, "lhs"), _f(row, "rhs"), _f(row, "ratio")
        what = f"verify {theorem} {name} n={n} x={x:.6g}"
        rep.bound(lhs, rhs, ratio, what)
        want = _deviation(name, row["matrix_a"], row["matrix_b"], n, x, truncated, n_max)
        rep.near(lhs, want, VALUE_TOL if truncated else CONJ_TOL, what + " lhs")
        if theorem == "COR":
            rep.expect(rhs == previous.get(x, lhs), what + ": rhs is not the previous deviation")
            previous[x] = lhs
    rep.expect(len(rows) > 0, f"verify {theorem}: no rows")


def check_norm(rep: Report, rows: list[dict], truncated: bool, n_max: int) -> None:
    xs = default_x_grid()
    for row in rows:
        name, n, p = row["function"], int(row["n"]), _f(row, "p")
        lhs, rhs, ratio = _f(row, "lhs"), _f(row, "rhs"), _f(row, "ratio")
        what = f"verify {row['theorem']} {name} p={p} n={n}"
        rep.bound(lhs, rhs, ratio, what)
        devs = np.array([_deviation(name, row["matrix_a"], row["matrix_b"], n, x, truncated, n_max) for x in xs])
        want = devs.max() if math.isinf(p) else (PI / 16 * np.sum(devs**p)) ** (1.0 / p)
        rep.near(lhs, float(want), VALUE_TOL if truncated else CONJ_TOL, what + " lhs")
    rep.expect(len(rows) > 0, "verify norm: no rows")


def check_coeffs(rep: Report, rows: list[dict]) -> None:
    name = rows[0]["function"]
    a0, a, b = oracles.coefficients(name, len(rows) - 1)
    for row in rows:
        nu = int(row["nu"])
        want_a, want_b = (a0, 0.0) if nu == 0 else (a[nu - 1], b[nu - 1])
        rep.near(_f(row, "a"), want_a, VALUE_TOL, f"coeffs {name} a_{nu}")
        rep.near(_f(row, "b"), want_b, VALUE_TOL, f"coeffs {name} b_{nu}")


def check_conjugate(rep: Report, rows: list[dict]) -> None:
    for row in rows:
        name, x, eps = row["function"], _f(row, "x"), _f(row, "eps")
        what = f"conjugate {name} x={x:.6g}"
        rep.conjugate(_f(row, "conjugate"), oracles.conjugate(name, x), what)
        rep.near(_f(row, "conjugate_truncated"), _truncated(name, x, eps), VALUE_TOL, f"{what} eps={eps:.3g}")
    rep.expect(len(rows) > 0, "conjugate: no rows")


def check_transform(rep: Report, rows: list[dict], n_max: int) -> None:
    for row in rows:
        name, n, x = row["function"], int(row["n"]), _f(row, "x")
        A, B = _matrix(row["matrix_a"], n_max), _matrix(row["matrix_b"], n_max)
        rep.near(_f(row, "value"), oracles.transform(name, A, B, n, x), VALUE_TOL, f"transform {name} n={n} x={x:.6g}")
    rep.expect(len(rows) > 0, "transform: no rows")


def _check_sin_moduli(rep: Report, x: float, deltas: np.ndarray, plain, bar, what: str) -> None:
    """Against w~_x(delta) = 2|cos x|(1 - cos delta)/delta and its sup over t <= delta."""
    closed = oracles.w_tilde_sin(x, deltas)
    sup = oracles.w_tilde_sin(x, np.minimum(deltas, _T_STAR))
    if plain is not None:
        rep.expect(bool(np.all(np.abs(plain - closed) <= VALUE_TOL)), f"{what}: w_tilde differs from the closed form")
    rep.expect(bool(np.all(bar >= closed - VALUE_TOL) and np.all(bar <= sup + VALUE_TOL)),
               f"{what}: w_tilde_bar outside [closed form, its sup]")


def _check_bar(rep: Report, bar: np.ndarray, what: str) -> None:
    """Bar moduli nondecreasing in delta, i.e. nonincreasing along k."""
    rep.expect(bool(np.all(np.diff(bar) <= 0.0)), f"{what}: bar modulus decreases as delta grows")


def check_moduli(rep: Report, rows: list[dict]) -> None:
    by_x: dict[float, list] = {}
    for row in rows:
        by_x.setdefault(_f(row, "x"), []).append((int(row["k"]), _f(row, "delta"), _f(row, "value")))
    for x, entries in by_x.items():
        entries.sort()
        ks = np.array([e[0] for e in entries])
        deltas = np.array([e[1] for e in entries])
        values = np.array([e[2] for e in entries])
        what = f"moduli {rows[0]['function']} {rows[0]['kind']} x={x:.6g}"
        rep.expect(bool(np.all(deltas == PI / (ks + 1.0))), f"{what}: deltas are not pi/(k+1)")
        _check_bar(rep, values, what)
        if rows[0]["function"] == "sin":
            _check_sin_moduli(rep, x, deltas, None, values, what)
    rep.expect(len(rows) > 0, "moduli: no rows")


def check_matrix(rep: Report, rows: list[dict], want: dict[str, float], exact: tuple[str, ...]) -> None:
    """Checker constants against want; those named in exact must match to the last bit."""
    got = {row["condition"]: _f(row, "min_constant") for row in rows}
    rep.expect(set(got) == set(want), f"check-matrix conditions {sorted(got)} != {sorted(want)}")
    for cond, value in want.items():
        if cond not in got:
            continue
        what = f"check-matrix {rows[0]['matrix_a']}/{rows[0]['matrix_b']} {cond}"
        if cond in exact:
            rep.expect(got[cond] == value, f"{what}: got {got[cond]!r}, want exactly {value!r}")
        else:
            rep.near(got[cond], value, CHECKER_RTOL * max(1.0, abs(value)), what)


# ---------------------------------------------------------------------------
# library-sweep outputs


def check_sweep(rep: Report, result: dict) -> None:
    xs = result["x"]
    rep.expect(result["same_every_pass"], "library-sweep: a pass gave different outputs from the first")
    for key, out in result["outputs"].items():
        group, name = key.split("/")
        if group == "conjugate":
            for x, value in zip(xs, out):
                rep.conjugate(value, oracles.conjugate(name, x), f"conjugate_at {name} x={x:.6g}")
        elif group == "moduli":
            for x, (plain, bar) in zip(xs, out):
                plain, bar = np.array(plain), np.array(bar)
                what = f"modulus_profile {name} x={x:.6g}"
                counts = np.arange(1.0, len(plain) + 1.0)
                rep.expect(bool(np.all(plain <= 2.0 * np.cumsum(plain) / counts + LEMMA2_SLACK)),
                           f"{what}: Lemma 2 (plain)")
                rep.expect(bool(np.all(bar <= np.cumsum(bar) / counts + LEMMA2_SLACK)), f"{what}: Lemma 2 (bar)")
                rep.expect(bool(np.all(bar >= plain - 1e-12)), f"{what}: bar modulus below plain")
                _check_bar(rep, bar, what)
                if name == "sin":
                    _check_sin_moduli(rep, x, PI / counts, plain, bar, what)
        elif group == "ratio-sweep":
            rows = [row for rows_at_x in out for row in rows_at_x]
            n_max = max(int(row[1]) for row in rows)
            for label, n, x, lhs_t, lhs_f, rhs, ratio_t, ratio_f in rows:
                b_name = "cesaro" if label.endswith("C/C") else "identity"
                what = f"ratio sweep {label} {name} n={n} x={x:.6g}"
                rep.bound(lhs_t, rhs, ratio_t, what + " truncated")
                rep.bound(lhs_f, rhs, ratio_f, what + " full")
                rep.near(lhs_t, _deviation(name, "cesaro", b_name, n, x, True, n_max), VALUE_TOL,
                         what + " truncated lhs")
                rep.near(lhs_f, _deviation(name, "cesaro", b_name, n, x, False, n_max), CONJ_TOL, what + " full lhs")
        elif group == "eq81":
            for k, p, lhs, rhs in (row for rows_at_k in out for row in rows_at_k):
                what = f"Eq. (81) {name} k={k} p={p}"
                if rhs <= 1e-12:
                    rep.expect(lhs <= 1e-12, f"{what}: lhs {lhs!r} with a vanishing classical modulus")
                else:
                    rep.expect(lhs <= rhs * (1 + EQ81_RTOL), f"{what}: lhs {lhs!r} > rhs {rhs!r}")
        elif group == "kernel-form":
            for n, x, dev_t, dev_f, direct_t, direct_f in (row for rows_at_x in out for row in rows_at_x):
                what = f"deviation_kernel_form {name} n={n} x={x:.6g}"
                rep.near(dev_t, direct_t, KERNEL_TOL, what + " truncated")
                rep.near(dev_f, direct_f, KERNEL_TOL, what + " full")
