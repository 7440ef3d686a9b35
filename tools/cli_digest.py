#!/usr/bin/env python3
"""sha256 digests of the benchmark's CLI commands and library sweep, to show that a change keeps their bytes.

Usage, from the repository root:

    python3 tools/cli_digest.py                      # this checkout
    python3 tools/cli_digest.py /path/to/other/checkout
    python3 tools/cli_digest.py --numeric OTHER      # this checkout against OTHER, field by field

Runs every command of the cli-verify and check-matrix workloads of
bench/run.py (full sizes, check-matrix on the seed-1 Norlund matrix), the
cli-verify transform command again with --plain (plain and conjugate partial
sums keep their transform values in the same kind of record), then
the T3/T4 grid: {T3, T4} x {hat, sawtooth, sin3, cos} x p in {1, 2, 3.5, inf},
full and truncated, against B = cesaro and B = identity, at the orders 0, 1,
2, 4, ..., 512, then the error paths, ``list`` and ``--help``: a command for
each exception class that main turns into exit code 1 or 2, the JSON
decoder's error and argparse's own exit 2 (SingularIntegrandError has none:
no command reaches it on the built-in functions).  Each command runs
``python -m conjsum.cli`` from the given checkout's src/ with the
benchmark's environment.  One line per command:

    <sha256 of stdout> <sha256 of stderr> <sha256 of the --out file, or -> <exit code> <command name>

No command reaches modulus_profile, pointwise_modulus_on_nodes or
deviation_kernel_form, so a last line covers the library: this repository's
bench/sweep.py runs at seed 1, full size and without trace, on the given
checkout's src/, and the line is

    <sha256 of its first-pass outputs and same_every_pass, or -> - - <exit code> library-sweep first pass, seed 1

The sweep makes only 144 deviation_kernel_form calls, so a fresh interpreter
on the given checkout's src/ makes 14,160 more: the corpus, cesaro/cesaro,
identity/identity and cesaro/identity built to 32 and to 1024, 37 x and 20
orders from 0 to 1024; then hat and sawtooth at n in {1, 3, 8, 31, 200} and
the three pairs built to 1024, at each x = b +- h + delta with b a breakpoint
of f, h = pi/(n+1) and delta in {0, +-4e-16, +-1e-15, +-2e-15}, where a
breakpoint of psi_x lies next to h and the mesh cut at h is degenerate.  Each
call is made twice, cold and then kept, and the script exits 1 if the two
differ.  The repr of each first result, or the exception's type and message,
is one line of one sha256:

    <sha256 of those lines, or -> - - <exit code> kernel-form grid

The right-hand sides of Theorems 1 and 2 keep each value they sum, so one more
fresh interpreter calls rhs_theorem1 (A in {cesaro, identity, delta0} built to
1024) and rhs_theorem2 over the corpus, the same 37 x and n in {0, 1, 7, 128,
512, 513, 1024}, each call cold and then again, so the kept values show their
bits at orders the sweep never reaches:

    <sha256 of those lines, or -> - - <exit code> right-hand sides grid

The work directory holding the input and output files is replaced by <work>
in stdout and stderr, so two runs, or two checkouts, print identical lines
exactly when their outputs are byte-identical.  Compare them with diff.

With --numeric OTHER, every command above runs on the given checkout (A) and
on OTHER (B), one after the other, and each line reads

    <exit code A> <exit code B> <largest absolute difference> <largest relative difference> <text> <command name>

over every number in stdout, stderr, the --out file, the sweep's outputs or
the kernel-form lines: a CSV or JSON field, or a number inside a message.
Relative is |a - b| / max(|a|, |b|).  <text> is "same" when everything else,
the count of numbers included, is equal; otherwise it is "DIFFERS" and the
differences are nan.  Byte-identical outputs read 0 0 same.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import re
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))
sys.dont_write_bytecode = True  # leave bench/ as checked out

import run as bench  # noqa: E402  (bench/run.py; it imports its sibling modules by name)

NORM_ORDERS = ["0", "1"] + [str(2**j) for j in range(1, 10)]
JOBS = 2  # commands run at once


def norm_grid_ops() -> list[bench.Op]:
    ops = []
    for theorem in ("T3", "T4"):
        for fn in ("hat", "sawtooth", "sin3", "cos"):
            for p in ("1", "2", "3.5", "inf"):
                for truncated in (False, True):
                    for b in ("cesaro", "identity"):
                        args = ["verify", "--theorem", theorem, "--function", fn, "--matrix-a", "cesaro",
                                "--matrix-b", b, "--p", p, "--n-list", *NORM_ORDERS]
                        name = f"verify {theorem} {fn} cesaro/{b} p={p}{' truncated' if truncated else ''}"
                        ops.append(bench.Op(name, args + (["--truncated"] if truncated else []), "norm"))
    return ops


def plain_transform_op(ops: list[bench.Op]) -> bench.Op:
    """The transform op among ops, on plain partial sums."""
    op = next(op for op in ops if op.kind == "transform")
    return bench.Op(f"{op.name} --plain", op.args + ["--plain"], op.kind)


def error_path_ops(work: Path) -> list[bench.Op]:
    short, bad = work / "short.json", work / "bad.json"
    short.write_text('{"name": "short", "rows": [[1.0], [0.5, 0.5]]}')
    bad.write_text('{"rows": [[1.0], [0.5, 0.5')
    ops = [
        ("check-matrix short matrix", ["check-matrix", "--matrix-a", str(short), "--n", "4"]),  # MatrixValidationError
        ("check-matrix bad json", ["check-matrix", "--matrix-a", str(bad), "--n", "1"]),  # json.JSONDecodeError
        ("check-matrix n=-1", ["check-matrix", "--n", "-1"]),  # DomainError
        ("moduli grid-m 17", ["moduli", "--function", "sin", "--x", "1", "--grid-m", "17"]),  # DomainError
        ("verify unknown function", ["verify", "--theorem", "T1.5", "--function", "nosuch", "--n", "3"]),
        ("conjugate near the jump", ["conjugate", "--function", "sawtooth", "--x", "1e-9", "--eps", "0.5"]),
        ("verify unknown theorem", ["verify", "--theorem", "T9", "--function", "sin", "--n", "3"]),  # argparse
        ("moduli unknown kind", ["moduli", "--function", "sin", "--kind", "w_hat"]),  # argparse
        ("list", ["list"]),
        ("--help", ["--help"]),
    ]
    ops += [(f"{command} --help", [command, "--help"])
            for command in ("coeffs", "conjugate", "transform", "check-matrix", "moduli", "verify")]
    return [bench.Op(name, args, "error-path") for name, args in ops]


# one run's exit code and outputs (stdout, stderr, --out file), None where there is none
Outputs = tuple[int, list]


def run_op(op: bench.Op, root: Path, work: Path) -> Outputs:
    env = bench.child_env()
    env["PYTHONPATH"] = str(root / "src")
    done = subprocess.run([sys.executable, "-m", "conjsum.cli", *op.args], cwd=work, env=env, capture_output=True)
    out = op.args[op.args.index("--out") + 1] if "--out" in op.args else None
    return done.returncode, [done.stdout, done.stderr, Path(out).read_bytes() if out else None]


def run_sweep(root: Path, work: Path) -> Outputs:
    env = bench.child_env()
    env.update(PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    result = work / "sweep.json"
    result.unlink(missing_ok=True)
    done = subprocess.run([sys.executable, str(ROOT / "bench" / "sweep.py"), str(result), "1", "0", "0", "0"],
                          cwd=work, env=env, capture_output=True)
    payload = None
    if result.exists():
        first = json.loads(result.read_text())
        payload = json.dumps({"outputs": first["outputs"], "same_every_pass": first["same_every_pass"]},
                             sort_keys=True).encode()
    return done.returncode, [payload, None, None]


KERNEL_FORM = """
import itertools
import sys
from conjsum import conjugate, functions, summability
PI = functions.PI

def outcome(f, A, B, n, x):
    try:
        return repr(conjugate.deviation_kernel_form(f, A, B, n, x))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"

def line(f, A, B, n, x):
    first, again = outcome(f, A, B, n, x), outcome(f, A, B, n, x)  # cold, then kept
    if again != first:
        sys.exit(f"a repeated call gave {again}, the first {first}")
    return first

xs = conjugate.default_x_grid() + [0.0, 1e-9, -1e-9, 1.0, PI, PI - 1e-9, 1e-9 - PI]
orders = {32: (0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 31, 32), 1024: (0, 63, 64, 127, 255, 511, 1023, 1024)}
for size, ns in orders.items():
    C, I = summability.cesaro(size), summability.identity_matrix(size)
    pairs = ((C, C), (I, I), (C, I))
    for f in functions.corpus():
        for A, B in pairs:
            for x in xs:
                for n in ns:
                    print(line(f, A, B, n, x))
# x = b +- h + delta for each breakpoint b of f puts a breakpoint of psi_x within 2e-15 of h = pi/(n+1)
for name, n in itertools.product(("hat", "sawtooth"), (1, 3, 8, 31, 200)):
    f, h = functions.by_name(name), PI / (n + 1)
    for b, sign, delta in itertools.product(f.breakpoints, (1, -1), (0.0, 4e-16, -4e-16, 1e-15, -1e-15, 2e-15, -2e-15)):
        for A, B in pairs:
            print(line(f, A, B, n, b + sign * h + delta))
"""


RIGHT_SIDES = """
from conjsum import conjugate, functions, summability, verify
PI = functions.PI

def line(call, *args):
    try:
        return repr(call(*args))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"

xs = conjugate.default_x_grid() + [0.0, 1e-9, -1e-9, 1.0, PI, PI - 1e-9, 1e-9 - PI]
matrices = (summability.cesaro(1024), summability.identity_matrix(1024), summability.delta_at_zero(1024))
for f in functions.corpus():
    for x in xs:
        for n in (0, 1, 7, 128, 512, 513, 1024):
            for _ in range(2):  # cold, then kept
                for A in matrices:
                    print(line(verify.rhs_theorem1, f, A, x, n))
                print(line(verify.rhs_theorem2, f, x, n))
"""


def run_library(script: str, root: Path, work: Path) -> Outputs:
    """script's stdout in a fresh interpreter on the given checkout's src/."""
    env = bench.child_env()
    env.update(PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-c", script], cwd=work, env=env, capture_output=True)
    return done.returncode, [done.stdout if done.returncode == 0 else None, None, None]


def jobs(work: Path) -> list:
    """(name, run) for every line: run(root, work) gives that checkout's Outputs."""
    ops = bench.cli_verify_ops(False, work)
    ops.append(plain_transform_op(ops))
    ops += bench.check_matrix_ops(work, bench.nordlund_rows(1, 384)) + norm_grid_ops() + error_path_ops(work)
    # an --out file is read after its command; each op writes a distinct path or none
    out = [(op.name, lambda root, work, op=op: run_op(op, root, work)) for op in ops]
    return out + [("library-sweep first pass, seed 1", run_sweep),
                  ("kernel-form grid", partial(run_library, KERNEL_FORM)),
                  ("right-hand sides grid", partial(run_library, RIGHT_SIDES))]


def digest_line(name: str, outputs: Outputs, work: Path) -> str:
    code, parts = outputs
    marker = str(work).encode()
    shas = [hashlib.sha256(part.replace(marker, b"<work>")).hexdigest() if part is not None else "-" for part in parts]
    return f"{' '.join(shas)} {code} {name}"


NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|(?<![A-Za-z])[-+]?(?:nan|inf)(?![A-Za-z])")


def split_numbers(data: bytes) -> tuple[list, list]:
    """The text between the numbers of data, and the numbers as floats."""
    return NUMBER.split(data), [float(number) for number in NUMBER.findall(data)]


def numeric_line(name: str, a: Outputs, b: Outputs) -> str:
    """Both exit codes and the largest absolute and relative differences between the numbers of a and b."""
    same, abs_diff, rel_diff = True, 0.0, 0.0
    for part_a, part_b in zip(a[1], b[1]):
        if part_a is None or part_b is None:
            same = same and part_a is part_b
            continue
        (text_a, numbers_a), (text_b, numbers_b) = split_numbers(part_a), split_numbers(part_b)
        same = same and text_a == text_b and len(numbers_a) == len(numbers_b)
        for x, y in zip(numbers_a, numbers_b):
            if x == y or (math.isnan(x) and math.isnan(y)):
                continue
            gap = abs(x - y)
            if not math.isfinite(gap):  # nan or an infinity on one side only
                gap = relative = math.inf
            else:
                relative = gap / max(abs(x), abs(y))
            abs_diff, rel_diff = max(abs_diff, gap), max(rel_diff, relative)
    if not same:
        abs_diff = rel_diff = math.nan
    return f"{a[0]} {b[0]} {abs_diff:.3g} {rel_diff:.3g} {'same' if same else 'DIFFERS'} {name}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("root", nargs="?", type=Path, default=ROOT, help="checkout whose src/ is run")
    parser.add_argument("--numeric", type=Path, metavar="OTHER", help="compare the numbers with this checkout's")
    args = parser.parse_args()
    root = args.root.resolve()
    with tempfile.TemporaryDirectory(prefix="cli-digest-") as tmp:
        work = Path(tmp)

        def line(job) -> str:
            name, run = job
            if args.numeric is None:
                return digest_line(name, run(root, work), work)
            return numeric_line(name, run(root, work), run(args.numeric.resolve(), work))

        with ThreadPoolExecutor(JOBS) as pool:
            for text in pool.map(line, jobs(work)):
                print(text, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
