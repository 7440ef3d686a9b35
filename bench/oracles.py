"""Independent references for the benchmark's correctness checks.

Nothing here imports conjsum.  Every value comes from a closed form, from
Clausen's function through mpmath, from scipy's adaptive quadrature, or from
numpy extended precision (``np.longdouble``), so a fault in the program's
quadrature, kernels or checkers cannot also hide in its reference.

Conventions follow the program's documented ones: f = a0/2 + sum(a_nu cos +
b_nu sin), the conjugate partial sum is sum(a_nu sin nu x - b_nu cos nu x),
and psi_x(t) = f(x+t) - f(x-t).
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy import integrate

PI = math.pi
TWO_PI = 2.0 * math.pi
HAT_W = PI / 2.0


# ---------------------------------------------------------------------------
# the corpus, written out again


def f_value(name: str, x: float) -> float:
    if name == "const":
        return 1.0
    if name == "sin":
        return math.sin(x)
    if name == "cos":
        return math.cos(x)
    if name == "sin3":
        return math.sin(3.0 * x)
    if name == "sawtooth":
        y = x % TWO_PI
        return 0.0 if y == 0.0 else 0.5 * (PI - y)
    if name == "hat":
        y = PI - (PI - x) % TWO_PI
        return max(0.0, 1.0 - abs(y) / HAT_W)
    raise KeyError(name)


def coefficients(name: str, N: int) -> tuple[float, np.ndarray, np.ndarray]:
    """Closed-form (a0, a_1..a_N, b_1..b_N)."""
    nu = np.arange(1, N + 1, dtype=float)
    a, b = np.zeros(N), np.zeros(N)
    a0 = 0.0
    if name == "const":
        a0 = 2.0
    elif name == "sin":
        b[0] = 1.0
    elif name == "cos":
        a[0] = 1.0
    elif name == "sin3":
        b[2] = 1.0
    elif name == "sawtooth":
        b = 1.0 / nu
    elif name == "hat":
        a0 = 0.5
        a = 2.0 * (1.0 - np.cos(nu * HAT_W)) / (PI * HAT_W * nu * nu)
    else:
        raise KeyError(name)
    return a0, a, b


def conjugate(name: str, x: float) -> float:
    """The conjugate function f~(x)."""
    if name == "const":
        return 0.0
    if name == "sin":
        return -math.cos(x)
    if name == "cos":
        return math.sin(x)
    if name == "sin3":
        return -math.cos(3.0 * x)
    if name == "sawtooth":
        return math.log(2.0 * math.sin(0.5 * (x % TWO_PI)))
    if name == "hat":
        cl2 = lambda t: float(mpmath.clsin(2, t))
        return 2.0 / (PI * HAT_W) * (cl2(x) - 0.5 * cl2(x + HAT_W) - 0.5 * cl2(x - HAT_W))
    raise KeyError(name)


def _sine_mode_integral(m: int, eps: float) -> float:
    """int_eps^pi sin(m t) cot(t/2)/2 dt, from the expansion 1/2 + sum cos(kt) + cos(mt)/2."""
    return (PI - eps) / 2.0 - math.fsum(math.sin(k * eps) / k for k in range(1, m)) - math.sin(m * eps) / (2 * m)


def _breakpoints(name: str) -> tuple[float, ...]:
    return {"sawtooth": (0.0,), "hat": (-HAT_W, 0.0, HAT_W)}.get(name, ())


def conjugate_truncated(name: str, x: float, eps: float) -> float:
    """-(1/pi) int_eps^pi psi_x(t) cot(t/2)/2 dt."""
    if name == "const":
        return 0.0
    mode = {"sin": 1, "cos": 1, "sin3": 3}.get(name)
    if mode is not None:
        integral = _sine_mode_integral(mode, eps)
        if name == "cos":
            return 2.0 / PI * math.sin(x) * integral
        return -2.0 / PI * math.cos(mode * x) * integral
    cuts = set()
    for b in _breakpoints(name):
        for t0 in ((b - x) % TWO_PI, (x - b) % TWO_PI):
            if eps < t0 < PI:
                cuts.add(t0)

    def g(t):
        return (f_value(name, x + t) - f_value(name, x - t)) * 0.5 / math.tan(0.5 * t)

    value, _ = integrate.quad(g, eps, PI, points=sorted(cuts) or None, limit=400, epsabs=1e-13, epsrel=1e-12)
    return -value / PI


def conj_partial_sums(name: str, n: int, x: float) -> np.ndarray:
    """S~_k f(x) for k = 0..n from the closed-form coefficients."""
    _, a, b = coefficients(name, n)
    nu = np.arange(1, n + 1, dtype=float)
    terms = a * np.sin(nu * x) - b * np.cos(nu * x)
    return np.concatenate([[0.0], np.cumsum(terms)])


def w_tilde_sin(x: float, delta: np.ndarray) -> np.ndarray:
    """(1/delta) int_0^delta |sin(x+t) - sin(x-t)| dt = 2|cos x| (1 - cos delta)/delta."""
    return 2.0 * abs(math.cos(x)) * (1.0 - np.cos(delta)) / delta


# ---------------------------------------------------------------------------
# summability matrices, dense, and their checker constants


def dense(name: str, n_max: int) -> np.ndarray:
    if name == "cesaro":
        return np.tril(np.ones((n_max + 1, n_max + 1))) / (np.arange(n_max + 1) + 1.0)[:, None]
    if name == "identity":
        return np.eye(n_max + 1)
    raise KeyError(name)


def from_rows(rows) -> np.ndarray:
    out = np.zeros((len(rows), len(rows)))
    for i, row in enumerate(rows):
        out[i, : len(row)] = row
    return out


def transform(name: str, A: np.ndarray, B: np.ndarray, n: int, x: float) -> float:
    """Sum_r sum_k a_{n,r} b_{r,k} S~_k f(x)."""
    weights = A[n, : n + 1] @ B[: n + 1, : n + 1]
    return math.fsum((weights * conj_partial_sums(name, n, x)).tolist())


def checker_constants(A: np.ndarray, B: np.ndarray) -> dict[str, float]:
    """Conditions 2.1, 2.2, 2.21, 3.2, remark1 and remark2 in extended precision.

    Written from the definitions as whole-array expressions over np.longdouble,
    so it shares neither code nor summation order with the program.
    """
    A = A.astype(np.longdouble)
    B = B.astype(np.longdouble)
    N = A.shape[0] - 1
    idx = np.arange(N + 1)
    lower = idx[:, None] >= idx[None, :]
    prefix = np.cumsum(A, axis=1)
    # R[r, l] = b_{r, r-l}: each row of B read backwards from its diagonal
    R = np.where(lower, B[idx[:, None], np.maximum(idx[:, None] - idx[None, :], 0)], 0)
    sq = (idx[:N] + 1.0).astype(np.longdouble) ** 2
    c21 = max((idx + 1) * np.diag(A))
    with np.errstate(divide="ignore", invalid="ignore"):
        c22 = np.where(lower, prefix / ((idx + 1) * A), 0).max()
    c221 = np.longdouble(0)
    for n in range(1, N + 1):
        a = A[n, : n + 1]
        nums = np.abs(a[:n, None] * R[:n, :n] - a[1:, None] * R[1 : n + 1, :n]) * lower[:n, :n]
        c221 = max(c221, (nums.max(axis=1) * sq[:n] / a[:n]).max())
    diffs = np.abs(R[:N, :N] - R[1:, :N]) * lower[:N, :N]
    c32 = (diffs * sq[:, None]).max()
    remark1 = max((np.where(lower, prefix, 0) / (idx + 1.0)).sum(axis=1))
    suffix = np.cumsum(diffs[:, ::-1], axis=1)[:, ::-1]
    remark2 = suffix.sum(axis=0)[1:].max() if N >= 2 else np.longdouble(0)
    values = {"2.1": c21, "2.2": c22, "2.21": c221, "3.2": c32, "remark1": remark1, "remark2": remark2}
    return {k: float(v) for k, v in values.items()}


def cesaro_constants(b_name: str, N: int) -> dict[str, float]:
    """Closed forms for A = Cesaro and B = Cesaro or identity at size N."""
    if b_name == "cesaro":
        # |1/(r+1) - 1/(r+2)| (r+1)^2 peaks at r = N-1; remark2 peaks at s = 1
        ratio = N / (N + 1.0)
        remark2 = float(mpmath.fsum(mpmath.mpf(r) / ((r + 1) * (r + 2)) for r in range(1, N)))
        return {"2.1": 1.0, "2.2": 1.0, "2.21": ratio, "3.2": ratio, "remark1": 1.0, "remark2": remark2}
    if b_name == "identity":
        return {"2.1": 1.0, "2.2": 1.0, "2.21": 0.0, "3.2": 0.0, "remark1": 1.0, "remark2": 0.0}
    raise KeyError(b_name)
