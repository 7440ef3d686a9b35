#!/usr/bin/env python3
"""conjsum benchmark: cold CLI commands, a warm library sweep and the matrix checkers.

Usage, from the repository root:

    python3 bench/run.py --workload cli-verify --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --quick       # every workload and check, tiny sizes

Workloads are named in BENCHMARK.json.  A run measures the set-up time, then
repeats whole passes over the workload's fixed op list for --seconds, checks
every output against the references in ``oracles`` and prints one JSON object
as its last line: the end-to-end metrics with --trace 0, the per-layer
metrics from instrumented passes with --trace 1.  Times are scaled by a
calibration loop (see ``timing``).  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import timing

BLAS_PIN = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_SPAWNS = 5  # before the passes, and again after them


class BenchError(RuntimeError):
    """The benchmark could not run: no program, a child that crashed, a bad spec."""


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "CONJSUM_GRID_M"}
    env.update(BLAS_PIN)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return env


@dataclass
class Child:
    code: int
    start: float
    seconds: float
    maxrss_kb: int
    stdout: bytes


def run_child(argv: list[str], work: Path, tag: str) -> Child:
    """Run python3 <argv> with stdout and stderr in files; wait and take its rusage."""
    out_path, err_path = work / f"{tag}.out", work / f"{tag}.err"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    out_fd, err_fd = os.open(out_path, flags, 0o644), os.open(err_path, flags, 0o644)
    pid = None
    try:
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *argv], child_env(),
                             file_actions=[(os.POSIX_SPAWN_DUP2, out_fd, 1), (os.POSIX_SPAWN_DUP2, err_fd, 2)])
        _, status, usage = os.wait4(pid, 0)
        seconds = time.perf_counter() - start
        pid = None
    finally:
        if pid is not None:  # interrupted while waiting: stop the child before leaving
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        os.close(out_fd)
        os.close(err_fd)
    code = os.waitstatus_to_exitcode(status)
    if code not in (0, 1, 2):
        raise BenchError(f"{' '.join(argv)} exited {code}: {err_path.read_text()[-2000:]}")
    return Child(code, start, seconds, usage.ru_maxrss, out_path.read_bytes())


def measure_setup(work: Path, cal: timing.Calibrated) -> list[Child]:
    """Fresh interpreters importing conjsum.cli, each followed by a calibration point."""
    argv = ["-c", "import conjsum.cli"]
    run_child(argv, work, "setup")  # compiles bytecode on a fresh checkout
    children = []
    for _ in range(SETUP_SPAWNS):
        children.append(run_child(argv, work, "setup"))
        if children[-1].code != 0:
            raise BenchError(f"importing conjsum.cli failed from {SRC}")
        cal.mark()
    return children


# ---------------------------------------------------------------------------
# CLI workloads


@dataclass
class Op:
    name: str
    args: list[str]
    kind: str
    expect_code: int = 0


def cli_verify_ops(quick: bool, work: Path) -> list[Op]:
    n_list = ["4", "8"] if quick else ["8", "16", "32", "64", "128", "256", "512"]
    n_norm = ["4", "8"] if quick else ["8", "16", "32", "64", "128"]
    ops = []
    # each theorem once; every (function, A/B pair) pairing appears once
    for theorem, fn, b, fmt in (("T1.51", "sawtooth", "cesaro", "csv"), ("T1.5", "hat", "identity", "json"),
                                ("R1.6", "sin3", "cesaro", "csv"), ("T2", "sawtooth", "identity", "csv"),
                                ("T2.trunc", "hat", "cesaro", "csv"), ("COR", "sin3", "identity", "json")):
        ops.append(Op(f"verify {theorem} {fn} cesaro/{b}",
                      ["verify", "--theorem", theorem, "--function", fn, "--matrix-a", "cesaro",
                       "--matrix-b", b, "--n-list", *n_list, "--format", fmt], "pointwise"))
    # each theorem at each p; truncated and full alternate
    for theorem, fn, p, truncated in (("T3", "sawtooth", "1", True), ("T3", "hat", "2", False),
                                      ("T3", "sin3", "inf", True), ("T4", "sawtooth", "inf", False),
                                      ("T4", "hat", "1", True), ("T4", "sin3", "2", False)):
        b = "cesaro" if theorem == "T3" else "identity"
        ops.append(Op(f"verify {theorem} {fn} p={p}{' truncated' if truncated else ''}",
                      ["verify", "--theorem", theorem, "--function", fn, "--matrix-a", "cesaro", "--matrix-b", b,
                       "--p", p, "--n-list", *n_norm] + (["--truncated"] if truncated else []),
                      "norm-truncated" if truncated else "norm"))
    ops += [
        Op("coeffs sawtooth", ["coeffs", "--function", "sawtooth", "--n", "16" if quick else "512",
                               "--out", str(work / "coeffs.csv")], "coeffs"),
        Op("conjugate hat", ["conjugate", "--function", "hat", "--format", "json"], "conjugate"),
        Op("transform sin3 cesaro/identity", ["transform", "--function", "sin3", "--matrix-a", "cesaro",
                                              "--matrix-b", "identity", "--n-list", *n_list, "--format", "json"],
           "transform"),
        Op("moduli sin w_tilde_bar", ["moduli", "--function", "sin", "--kind", "w_tilde_bar",
                                      "--n", "8" if quick else "256"], "moduli"),
    ]
    ops.append(Op(ops[0].name + " (again)", ops[0].args, "repeat"))
    return ops


def nordlund_rows(seed: int, n_max: int) -> list[list[float]]:
    """a_{n,k} = p_{n-k} / (p_0 + ... + p_n) with p_k = (k+1)^beta, beta seeded in [-0.75, 0.75]."""
    beta = random.Random(seed).uniform(-0.75, 0.75)
    p = [(k + 1.0) ** beta for k in range(n_max + 1)]
    return [[p[n - k] / math.fsum(p[: n + 1]) for k in range(n + 1)] for n in range(n_max + 1)]


def check_matrix_ops(work: Path, rows: list[list[float]]) -> list[Op]:
    n = str(len(rows) - 1)
    nordlund, nan_row = work / "nordlund.json", work / "nan-row.json"
    nordlund.write_text(json.dumps({"name": "nordlund", "rows": rows}))
    nan_row.write_text(json.dumps({"name": "nan-row", "rows": [[1.0], [math.nan, 1.0]]}))
    return [
        Op("check-matrix cesaro/cesaro", ["check-matrix", "--matrix-a", "cesaro", "--matrix-b", "cesaro", "--n", n],
           "matrix"),
        Op("check-matrix cesaro/identity", ["check-matrix", "--matrix-a", "cesaro", "--matrix-b", "identity",
                                            "--n", n, "--format", "json"], "matrix"),
        Op("check-matrix nordlund/nordlund", ["check-matrix", "--matrix-a", str(nordlund),
                                              "--matrix-b", str(nordlund), "--n", n], "matrix"),
        # known fault: a NaN entry passes TriangularMatrix validation, so this exits 0, not 2
        Op("check-matrix nan-row", ["check-matrix", "--matrix-a", str(nan_row), "--matrix-b", "identity",
                                    "--n", "1"], "nan", expect_code=2),
    ]


def run_cli_passes(ops: list[Op], seconds: float, trace: bool, work: Path, cal: timing.Calibrated) -> dict:
    """Whole passes over ops, each op a fresh process; with trace, each round adds a traced pass."""
    first: dict[str, bytes] = {}
    unstable: list[str] = []
    counts = {"attempted": 0, "failed": 0, "maxrss_kb": 0}

    def run_pass(traced: bool) -> dict:
        starts, raw, summaries = [], [], []
        for i, op in enumerate(ops):
            if traced:
                summary = work / f"trace-{i}.json"
                child = run_child([str(BENCH / "traced_cli.py"), str(summary), *op.args], work, f"op{i}")
                summaries.append(json.loads(summary.read_text()))
            else:
                child = run_child(["-m", "conjsum.cli", *op.args], work, f"op{i}")
            starts.append(child.start)
            raw.append(child.seconds)
            cal.mark(child.seconds)
            counts["maxrss_kb"] = max(counts["maxrss_kb"], child.maxrss_kb)
            counts["attempted"] += 1
            if child.code != op.expect_code:
                counts["failed"] += 1
                if op.kind != "nan":
                    print(f"{op.name}: exit {child.code}", file=sys.stderr)
                continue
            output = child.stdout + ((work / "coeffs.csv").read_bytes() if op.kind == "coeffs" else b"")
            key = ops[0].name if op.kind == "repeat" else op.name
            first.setdefault(key, output)
            if output != first[key]:
                unstable.append(op.name)
        return {"traced": traced, "starts": starts, "raw": raw, "spans": summaries}

    passes = timing.timed_passes(run_pass, seconds, trace)
    for p in passes:
        p["scaled"] = cal.scale(p.pop("starts"), p["raw"])
    return {"ops": ops, **counts, "passes": passes, "outputs": first, "unstable": unstable}


def run_sweep(seed: int, seconds: float, trace: bool, quick: bool, work: Path) -> dict:
    out = work / "sweep.json"
    child = run_child([str(BENCH / "sweep.py"), str(out), str(seed), str(seconds), str(int(trace)), str(int(quick))],
                      work, "sweep")
    if child.code != 0:
        raise BenchError(f"library sweep exited {child.code}: {(work / 'sweep.err').read_text()[-2000:]}")
    result = json.loads(out.read_text())
    return {"attempted": result["attempted"], "failed": 0,
            "maxrss_kb": child.maxrss_kb, "passes": result["passes"], "sweep": result, "caches": result["caches"]}


def measure(workload: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    """Set-up time and the timed passes of one workload.

    This process imports nothing beyond the standard library until all
    measuring is done: a spawned child's peak RSS counts the memory of the
    process it was spawned from, so that one has to stay small.
    """
    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=ROOT) as tmp:
        work = Path(tmp)
        cal = timing.Calibrated()
        setup = measure_setup(work, cal)
        if workload == "library-sweep":
            run = run_sweep(seed, seconds, trace, quick, work)
        elif workload == "cli-verify":
            run = run_cli_passes(cli_verify_ops(quick, work), seconds, trace, work, cal)
        else:
            rows = nordlund_rows(seed, 16 if quick else 384)
            run = run_cli_passes(check_matrix_ops(work, rows), seconds, trace, work, cal)
            run["nordlund"] = rows
        setup += measure_setup(work, cal)
    run["setup"] = cal.scale([c.start for c in setup], [c.seconds for c in setup])
    run["calibrations"] = cal.seconds() + run.get("sweep", {}).get("calibrations", [])
    return run


# ---------------------------------------------------------------------------
# checks and metrics, after all timing is done


def parse_rows(op: Op, output: bytes) -> list[dict]:
    text = output.decode()
    if "--format" in op.args and op.args[op.args.index("--format") + 1] == "json":
        return json.loads(text)
    lines = text.splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def check_outputs(run: dict):
    import checks
    import oracles

    rep = checks.Report()
    if "sweep" in run:
        checks.check_sweep(rep, run["sweep"])
        return rep
    for name in run["unstable"]:
        rep.expect(False, f"{name}: output differs from the first run of the same command")
    want = {}
    if "nordlund" in run:
        rows = run["nordlund"]
        dense = oracles.from_rows(rows)
        want = {"cesaro/cesaro": oracles.cesaro_constants("cesaro", len(rows) - 1),
                "cesaro/identity": oracles.cesaro_constants("identity", len(rows) - 1),
                "nordlund/nordlund": oracles.checker_constants(dense, dense)}
    for op in run["ops"]:
        if op.kind in ("repeat", "nan") or op.name not in run["outputs"]:
            continue
        rows = parse_rows(op, run["outputs"][op.name])
        n_list = [0]
        if "--n-list" in op.args:
            n_list = [int(v) for v in op.args[op.args.index("--n-list") + 1:] if v.isdigit()]
        if op.kind == "pointwise":
            checks.check_pointwise(rep, rows, op.args[op.args.index("--theorem") + 1], max(n_list))
        elif op.kind in ("norm", "norm-truncated"):
            checks.check_norm(rep, rows, op.kind == "norm-truncated", max(n_list))
        elif op.kind == "transform":
            checks.check_transform(rep, rows, max(n_list))
        elif op.kind == "matrix":
            pair = op.name.split()[-1]
            checks.check_matrix(rep, rows, want[pair], exact=("2.1", "2.2") if pair.startswith("cesaro") else ())
        elif op.kind == "coeffs":
            checks.check_coeffs(rep, rows)
        elif op.kind == "conjugate":
            checks.check_conjugate(rep, rows)
        else:
            checks.check_moduli(rep, rows)
    return rep


def op_medians(passes: list[dict]) -> list[float]:
    """Each op's median scaled time over the given passes."""
    return [statistics.median(col) for col in zip(*(p["scaled"] for p in passes))]


def end_to_end(run: dict) -> dict[str, float]:
    per_op = op_medians([p for p in run["passes"] if not p["traced"]])
    return {
        "setup_s": statistics.median(run["setup"]),
        "wall_s": sum(per_op),
        "op_p50_s": statistics.median(per_op),
        "peak_rss_mb": run["maxrss_kb"] / 1024.0,
    }


def per_layer(run: dict, rep, names: list[str]) -> dict[str, float]:
    traced = [p for p in run["passes"] if p["traced"]]
    plain = [p for p in run["passes"] if not p["traced"]]
    caches = run.get("caches")
    if caches is None:  # CLI workloads: summed over the traced commands
        caches = {}
        for summary in (s for p in traced for s in p["spans"]):
            for label, (hits, misses) in summary["caches"].items():
                total = caches.setdefault(label, [0, 0])
                total[0] += hits
                total[1] += misses
    out = {}
    for name in names:
        if name == "trace.overhead_s":
            out[name] = sum(op_medians(traced)) - sum(op_medians(plain))
        elif name == "conjugate.max_abs_err":
            out[name] = rep.conj_max_err
        elif name.startswith("cache."):
            hits, misses = caches.get(name.split(".")[1], (0, 0))
            out[name] = hits / (hits + misses) if hits + misses else 0.0
        else:  # <span>.calls, <span>.self_s or <span>.<counted work>, per traced pass
            span, measure_ = name.rsplit(".", 1)
            key = measure_ if measure_ in ("calls", "self_s") else "count"
            values = []
            for p in traced:
                value = sum(s["spans"].get(span, {}).get(key, 0) for s in p["spans"])
                if key == "self_s":  # into reference seconds, like the pass it ran in
                    value *= sum(p["scaled"]) / sum(p["raw"])
                values.append(value)
            out[name] = statistics.median(values)
    return out


def result(spec: dict, workload: str, run: dict, trace: bool) -> dict:
    rep = check_outputs(run)
    section = "per_layer" if trace else "end_to_end"
    names = [m["name"] for m in spec[section]]
    values = per_layer(run, rep, names) if trace else end_to_end(run)
    for problem in rep.problems[:20]:
        print(f"check failed [{workload}]: {problem}", file=sys.stderr)
    raw_pass = statistics.median(sum(p["raw"]) for p in run["passes"] if not p["traced"])
    print(f"{workload}: {run['attempted']} ops attempted, {run['failed']} failed, {len(run['passes'])} passes, "
          f"{len(rep.problems)} check failures, conj_max_err {rep.conj_max_err:.3e}; raw pass "
          f"{raw_pass:.3f} s, calibration median {statistics.median(run['calibrations']) * 1e3:.2f} ms "
          f"(reference {timing.CAL_REF_S * 1e3:.2f} ms)", file=sys.stderr)
    return {
        "correct": not rep.problems,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[section]},
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny sizes: every op and check in seconds")
    args = parser.parse_args(argv)
    if not (SRC / "conjsum" / "cli.py").is_file():
        print(f"error: no conjsum sources under {SRC}", file=sys.stderr)
        return 2
    chosen = workloads if args.workload == "all" else [args.workload]
    trace = bool(args.trace)
    try:
        runs = {w: measure(w, args.seed, args.seconds, trace, args.quick) for w in chosen}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    results = {w: result(spec, w, run, trace) for w, run in runs.items()}
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    for w, res in results.items():
        for name, metric in res["metrics"].items():
            print(f"{w:14s} {name:42s} {metric['value']:.6g} {metric['unit']}")
        print(f"{w:14s} attempted {res['attempted']}, failed {res['failed']}, correct {res['correct']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
