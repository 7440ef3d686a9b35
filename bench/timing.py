"""Timing shared by the runner and the library-sweep child.

The reference machine is a 2-core VM on a shared host.  Other tenants' load
makes its CPU slower, by up to a third, for seconds to minutes at a time, so
a raw time says as much about the neighbours as about conjsum.  To take that
out, the benchmark times a fixed pure-Python loop (a calibration point) after
every op (in the library sweep, after every block and every 0.2 s of its
small ops), and scales each op's time by CAL_REF_S over the mean of the
points taken within WINDOW_S of the op's middle.  A reported second is therefore a
second at the reference machine's usual speed.

One 10 ms point varies by 15% on its own, so single points before and after
an op track the host badly; averaged over two seconds, they follow the op
times of the library-sweep workload with a correlation of 0.85.  The loop is
independent of conjsum, so a change to the program moves the scaled times
exactly as it moves the raw ones.  Raw times are printed on stderr beside the
scaled ones.

The loop uses the standard library only: the runner has to stay small, since
the peak RSS of a child it spawns counts the memory of the runner.
"""

from __future__ import annotations

import math
import time
from typing import Callable

CAL_REF_S = 0.0100  # calibration_s() on the reference machine when quiet-to-typical
CAL_SHARE = 0.05  # calibration time after an op, as a share of the op's time
WINDOW_S = 1.0


def calibration_s() -> float:
    """Seconds taken by a fixed loop of float math, modulo and dict inserts."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(60000):
        acc += math.sin(i) * (i % 7)
    table = {}
    for i in range(20000):
        table[i] = str(i)
    return time.perf_counter() - start


class Calibrated:
    """Calibration points over a run, and the scale they give at any moment of it."""

    def __init__(self):
        self.points: list[tuple[float, float]] = []  # (perf_counter at the point, loop seconds)
        self.mark()

    def mark(self, after_s: float = 0.0) -> None:
        """Take one point, or as many as make CAL_SHARE of an op that took after_s."""
        for _ in range(max(1, round(CAL_SHARE * after_s / CAL_REF_S))):
            start = time.perf_counter()
            seconds = calibration_s()
            self.points.append((start + seconds / 2, seconds))

    def factor(self, at: float) -> float:
        """CAL_REF_S over the mean point within WINDOW_S of ``at`` (of the two nearest, if fewer)."""
        near = [v for t, v in self.points if abs(t - at) <= WINDOW_S]
        if len(near) < 2:
            near = [v for _, v in sorted(self.points, key=lambda p: abs(p[0] - at))[:2]]
        return CAL_REF_S * len(near) / sum(near)

    def scale(self, starts: list[float], raws: list[float]) -> list[float]:
        """Each raw time in reference seconds; call once the run's points are all taken."""
        return [raw * self.factor(start + raw / 2) for start, raw in zip(starts, raws)]

    def seconds(self) -> list[float]:
        return [v for _, v in self.points]


def timed_passes(run_pass: Callable[[bool], dict], seconds: float, trace: bool) -> list[dict]:
    """Whole rounds of passes until the next round would end after ``seconds``.

    A round is one untraced pass, followed by a traced one when ``trace`` is
    set.  Untraced runs make a second round as long as it would end within
    1.5 * ``seconds``, so that each op has two samples without a slow host
    stretching a run without bound.  Every run ends on a whole pass and
    repeats the same op list.
    """
    passes: list[dict] = []
    start = time.perf_counter()
    min_rounds = 1 if trace else 2
    rounds = 0
    while True:
        round_start = time.perf_counter()
        for traced in ((False, True) if trace else (False,)):
            passes.append(run_pass(traced))
        rounds += 1
        now = time.perf_counter()
        next_end = now - start + (now - round_start)
        if next_end > (1.5 * seconds if rounds < min_rounds else seconds):
            return passes
