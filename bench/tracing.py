"""Spans around conjsum's public functions, for the benchmark's traced run.

``instrument`` replaces each listed function with a timing wrapper at every
module that looks it up (the defining module and each consumer that imported
it by name), and ``restore`` puts the originals back.  Spans are kept in
memory; ``summary`` folds them into per-name calls, self time and counts.
A span's self time is its duration minus the time of the spans it caused.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time

import numpy as np

# span name -> (lookup sites as "module.attr" or "module.Class.method", count)
# A count is a function of (args, kwargs, result) giving the work done.
SPANS = {
    "functions.integrate_graded": (
        "functions.integrate_graded conjugate.integrate_graded summability.integrate_graded", None),
    "functions.gl_rule": ("functions.gl_rule kernels.gl_rule moduli.gl_rule", "nodes"),
    "functions.graded_boundaries": ("functions.graded_boundaries moduli.graded_boundaries", None),
    "functions.f_eval": ("functions.PeriodicFunction.__call__", "points"),
    "kernels.fourier_coeffs": ("kernels.fourier_coeffs verify.fourier_coeffs", None),
    "kernels.partial_sum_table": ("kernels.partial_sum_table summability.partial_sum_table", None),
    "kernels.conj_dirichlet_matrix": (
        "kernels.conj_dirichlet_matrix conjugate.conj_dirichlet_matrix", "elements"),
    "conjugate.conjugate_at": ("conjugate.conjugate_at verify.conjugate_at", None),
    "conjugate.conjugate_truncated": ("conjugate.conjugate_truncated verify.conjugate_truncated", None),
    "conjugate.deviation_kernel_form": ("conjugate.deviation_kernel_form", None),
    "moduli.modulus_profile": ("moduli.modulus_profile verify.modulus_profile", None),
    "moduli.pointwise_modulus_on_nodes": ("moduli.pointwise_modulus_on_nodes", None),
    "moduli.classical_modulus": ("moduli.classical_modulus verify.classical_modulus", None),
    "summability.ab_weights": ("summability.ab_weights conjugate.ab_weights", None),
    "summability.check_2_2": ("summability.check_condition_2_2", None),
    "summability.check_2_21": ("summability.check_condition_2_21", None),
    "summability.check_remark1": ("summability.check_remark1_condition", None),
    "summability.check_remark2": ("summability.check_remark2_condition", None),
    "summability.matrix_build": ("summability.TriangularMatrix.__init__", None),
    "verify.pointwise_report": ("verify.pointwise_report", None),
    "verify.norm_report": ("verify.norm_report", None),
    "cli.write": ("cli._write_rows", "bytes"),
}

# the five lru_caches, by the name the per-layer metrics use
CACHES = {
    "truncated": "conjugate._truncated_cached",
    "limit": "conjugate._conjugate_cached",
    "cumulative": "moduli._cumulative",
    "classical": "moduli._classical_table",
    "coefficients": "verify.coefficients",
}


class CountingStdout:
    """Forwards writes to the real stdout and counts their UTF-8 bytes."""

    def __init__(self, inner):
        self.inner = inner
        self.pending = 0

    def write(self, text):
        self.pending += len(text.encode("utf-8"))
        return self.inner.write(text)

    def take(self) -> int:
        out, self.pending = self.pending, 0
        return out

    def __getattr__(self, name):
        return getattr(self.inner, name)


def _written_bytes(args, kwargs, result) -> int:
    out = kwargs.get("out", args[2] if len(args) > 2 else None)
    if out:
        return os.path.getsize(out)
    stdout = sys.stdout
    return stdout.take() if isinstance(stdout, CountingStdout) else 0


COUNTS = {
    "nodes": lambda args, kwargs, result: len(result[0]),
    "points": lambda args, kwargs, result: int(np.size(args[1])),
    "elements": lambda args, kwargs, result: int(np.size(result)),
    "bytes": _written_bytes,
}


def _resolve(site: str):
    module, *path = site.split(".")
    owner = importlib.import_module(f"conjsum.{module}")
    for name in path[:-1]:
        owner = getattr(owner, name)
    return owner, path[-1]


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, str | None, float, float]] = []  # name, parent, duration, self
        self.counts: dict[str, int] = {}
        self._stack: list[list] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, count):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                spans.append((name, parent, duration, duration - frame[1]))
            if count is not None:
                counts[name] = counts.get(name, 0) + COUNTS[count](args, kwargs, result)
            return result

        return traced

    def instrument(self) -> None:
        """Wrap every site in SPANS; a site the program no longer has is skipped."""
        for name, (sites, count) in SPANS.items():
            wrapped = {}
            for site in sites.split():
                try:
                    owner, attr = _resolve(site)
                    original = getattr(owner, attr)
                except AttributeError:
                    continue
                if id(original) not in wrapped:
                    wrapped[id(original)] = self._wrap(name, original, count)
                self._patched.append((owner, attr, original))
                setattr(owner, attr, wrapped[id(original)])

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def summary(self) -> dict:
        """Per span name: calls, self seconds, callers and the counted work."""
        out: dict[str, dict] = {}
        for name, parent, _, self_s in self.spans:
            entry = out.setdefault(name, {"calls": 0, "self_s": 0.0, "parents": {}})
            entry["calls"] += 1
            entry["self_s"] += self_s
            key = parent or "-"
            entry["parents"][key] = entry["parents"].get(key, 0) + 1
        for name, value in self.counts.items():
            out.setdefault(name, {"calls": 0, "self_s": 0.0, "parents": {}})["count"] = value
        return out

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()


def cache_info() -> dict[str, list[int]]:
    """[hits, misses] of each of the five caches; a cache the program lacks reads [0, 0]."""
    out = {}
    for label, site in CACHES.items():
        try:
            owner, attr = _resolve(site)
            info = getattr(owner, attr).cache_info()
        except AttributeError:
            out[label] = [0, 0]
            continue
        out[label] = [info.hits, info.misses]
    return out
