"""The library-sweep workload: one warm process driving conjsum's Python API.

Usage: python3 bench/sweep.py <result.json> <seed> <seconds> <trace 0|1> <quick 0|1>

An op is one call group at one point: one x for the pointwise parts, one k
for Eq. (81).  A block is one part for one corpus function.

The first pass fills the caches and is not timed; it alone also evaluates
conjugate_at at every x, which later passes would only look up in its cache.
Timed passes follow, as
``timing.timed_passes`` schedules them; with trace 1 each round is an
untraced pass and then a traced one.  Every pass must give the same outputs
as the first; the first pass's outputs are written for the parent to check
against the oracles.
"""

from __future__ import annotations

import json
import math
import random
import sys
import time

import timing
import tracing
from conjsum import conjugate, functions, moduli, summability, verify

PI = math.pi
FULL = {"n": (8, 16, 32, 64, 128), "k_max": 32, "profile_n": 128, "kernel_n": (1, 2, 4, 8, 16, 32)}
QUICK = {"n": (4, 8), "k_max": 3, "profile_n": 8, "kernel_n": (1, 2)}
MARK_EVERY_S = timing.CAL_REF_S / timing.CAL_SHARE  # 0.2 s: points take 5% of op time


def x_points(seed: int, quick: bool) -> list[float]:
    """The default 30-point grid j*pi/16 shifted by a seeded offset in [-pi/64, pi/64]."""
    shift = random.Random(seed).uniform(-PI / 64, PI / 64)
    js = (-13, -5, 3, 11) if quick else [j for j in range(-15, 16) if j]
    return [j * PI / 16 + shift for j in js]


def _conjugate(f, xs, size):
    """conjugate_at at each x."""
    return [lambda x=x: conjugate.conjugate_at(f, x) for x in xs]


def _moduli(f, xs, size):
    """modulus_profile of w_tilde and w_tilde_bar at each x."""
    n = size["profile_n"]
    return [lambda x=x: [moduli.modulus_profile(f, x, n, kind).values.tolist() for kind in ("w_tilde", "w_tilde_bar")]
            for x in xs]


def _ratio_sweep(f, xs, size):
    """Theorem 1/2 ratios at each x, over n and four (rhs, A, B) choices, truncated and full lhs."""
    top = max(size["n"])
    C, I = summability.cesaro(top), summability.identity_matrix(top)
    choices = (("T1 C/C", "T1", C, C), ("T1 C/I", "T1", C, I), ("T2 C/I", "T2", C, I), ("T2 C/C", "T2", C, C))

    def at(x):
        rows = []
        for label, rhs_kind, A, B in choices:
            for n in size["n"]:
                rhs = verify.rhs_theorem1(f, A, x, n) if rhs_kind == "T1" else verify.rhs_theorem2(f, x, n)
                lhs_t = verify.lhs_theorem1(f, A, B, x, n, True)
                lhs_f = verify.lhs_theorem1(f, A, B, x, n, False)
                rows.append([label, n, x, lhs_t, lhs_f, rhs, verify.ratio_of(lhs_t, rhs), verify.ratio_of(lhs_f, rhs)])
        return rows

    return [lambda x=x: at(x) for x in xs]


def _eq81(f, xs, size):
    """At each k, L^p norms of the batched pointwise modulus next to the classical modulus."""
    h = 2 * PI / functions.DEFAULT_GRID.m

    def at(k):
        delta = PI / (k + 1)
        _, vals = moduli.pointwise_modulus_on_nodes(f, delta, "w_tilde")
        rows = []
        for p in (1.0, 2.0, math.inf):
            lhs = float(vals.max()) if math.isinf(p) else float((h * (vals**p).sum()) ** (1.0 / p))
            rows.append([k, p, lhs, moduli.classical_modulus(f, delta, p)])
        return rows

    return [lambda k=k: at(k) for k in range(size["k_max"] + 1)]


def _kernel_form(f, xs, size):
    """deviation_kernel_form next to the same deviations computed directly, over n, per (A/B, x)."""
    top = max(size["kernel_n"])
    pairs = ((summability.cesaro(top),) * 2, (summability.identity_matrix(top),) * 2)

    def at(A, B, x):
        rows = []
        for n in size["kernel_n"]:
            dev_t, dev_f = conjugate.deviation_kernel_form(f, A, B, n, x)
            value = verify.transform_value(f, A, B, n, x)
            direct_t = value - conjugate.conjugate_truncated(f, x, PI / (n + 1))
            direct_f = value - conjugate.conjugate_at(f, x)
            rows.append([n, x, dev_t, dev_f, direct_t, direct_f])
        return rows

    return [lambda A=A, B=B, x=x: at(A, B, x) for A, B in pairs for x in (xs[0], xs[-1])]


WARMUP_GROUPS = (("conjugate", _conjugate),)
GROUPS = (("moduli", _moduli), ("ratio-sweep", _ratio_sweep), ("eq81", _eq81), ("kernel-form", _kernel_form))


def blocks(groups, xs, size) -> list[tuple[str, list]]:
    """Every (group, function) block with its ops, function by function.

    The median op latency falls among the ratio-sweep ops.  Spread over the
    pass in six blocks, they meet six stretches of the host's speed, so the
    part of a slow spell that the calibration misses averages out.
    """
    return [(f"{group}/{f.name}", ops(f, xs, size)) for f in functions.corpus() for group, ops in groups]


def one_pass(work, cal: timing.Calibrated):
    """Every op once; outputs per block and each op's start and raw seconds.

    A calibration point follows every MARK_EVERY_S of op time and every block.
    """
    outputs, starts, raw = {}, [], []
    since_mark = 0.0
    for key, ops in work:
        results = []
        for op in ops:
            start = time.perf_counter()
            results.append(op())
            starts.append(start)
            raw.append(time.perf_counter() - start)
            since_mark += raw[-1]
            if since_mark >= MARK_EVERY_S:
                cal.mark()
                since_mark = 0.0
        outputs[key] = results
        cal.mark()
        since_mark = 0.0
    return outputs, starts, raw


def main() -> int:
    out_path, seed, seconds, trace, quick = sys.argv[1:6]
    seconds, trace, quick = float(seconds), trace == "1", quick == "1"
    xs = x_points(int(seed), quick)
    size = QUICK if quick else FULL
    warmup, work = blocks(WARMUP_GROUPS + GROUPS, xs, size), blocks(GROUPS, xs, size)
    cal = timing.Calibrated()
    first, _, _ = one_pass(warmup, cal)
    tracer = tracing.Tracer()
    same = True

    def run_pass(traced: bool) -> dict:
        nonlocal same
        if traced:
            tracer.reset()
            tracer.instrument()
        try:
            outputs, starts, raw = one_pass(work, cal)
        finally:
            tracer.restore()
        same &= all(first[key] == out for key, out in outputs.items())
        spans = [{"spans": tracer.summary()}] if traced else []
        return {"traced": traced, "starts": starts, "raw": raw, "spans": spans}

    passes = timing.timed_passes(run_pass, seconds, trace)
    for p in passes:
        p["scaled"] = cal.scale(p.pop("starts"), p["raw"])
    result = {
        "x": xs,
        "outputs": first,
        "same_every_pass": same,
        "attempted": sum(len(ops) for _, ops in warmup) + len(passes) * sum(len(ops) for _, ops in work),
        "passes": passes,
        "caches": tracing.cache_info(),
        "calibrations": cal.seconds(),
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
