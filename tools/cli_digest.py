#!/usr/bin/env python3
"""sha256 digests of the benchmark's CLI commands and library sweep, to show that a change keeps their bytes.

Usage, from the repository root:

    python3 tools/cli_digest.py                      # this checkout
    python3 tools/cli_digest.py /path/to/other/checkout

Runs every command of the cli-verify and check-matrix workloads of
bench/run.py (full sizes, check-matrix on the seed-1 Norlund matrix), then
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
on the given checkout's src/ makes 13,320 more: the corpus, cesaro/cesaro,
identity/identity and cesaro/identity built to 32 and to 1024, 37 x and 20
orders from 0 to 1024.  The repr of each result, or the exception's type and
message, is one line of one sha256:

    <sha256 of those lines, or -> - - <exit code> kernel-form grid

The work directory holding the input and output files is replaced by <work>
in stdout and stderr, so two runs, or two checkouts, print identical lines
exactly when their outputs are byte-identical.  Compare them with diff.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
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


def digest(op: bench.Op, root: Path, work: Path) -> str:
    env = bench.child_env()
    env["PYTHONPATH"] = str(root / "src")
    done = subprocess.run([sys.executable, "-m", "conjsum.cli", *op.args], cwd=work, env=env, capture_output=True)
    marker = str(work).encode()

    def sha(data: bytes) -> str:
        return hashlib.sha256(data.replace(marker, b"<work>")).hexdigest()

    out = op.args[op.args.index("--out") + 1] if "--out" in op.args else None
    out_sha = sha(Path(out).read_bytes()) if out else "-"
    return f"{sha(done.stdout)} {sha(done.stderr)} {out_sha} {done.returncode} {op.name}"


def sweep_digest(root: Path, work: Path) -> str:
    env = bench.child_env()
    env.update(PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    result = work / "sweep.json"
    done = subprocess.run([sys.executable, str(ROOT / "bench" / "sweep.py"), str(result), "1", "0", "0", "0"],
                          cwd=work, env=env, capture_output=True)
    sha = "-"
    if result.exists():
        first = json.loads(result.read_text())
        payload = json.dumps({"outputs": first["outputs"], "same_every_pass": first["same_every_pass"]}, sort_keys=True)
        sha = hashlib.sha256(payload.encode()).hexdigest()
    return f"{sha} - - {done.returncode} library-sweep first pass, seed 1"


KERNEL_FORM = """
import hashlib
from conjsum import conjugate, functions, summability
PI = functions.PI
xs = conjugate.default_x_grid() + [0.0, 1e-9, -1e-9, 1.0, PI, PI - 1e-9, 1e-9 - PI]
orders = {32: (0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 31, 32), 1024: (0, 63, 64, 127, 255, 511, 1023, 1024)}
digest = hashlib.sha256()
for size, ns in orders.items():
    C, I = summability.cesaro(size), summability.identity_matrix(size)
    for f in functions.corpus():
        for A, B in ((C, C), (I, I), (C, I)):
            for x in xs:
                for n in ns:
                    try:
                        line = repr(conjugate.deviation_kernel_form(f, A, B, n, x))
                    except Exception as exc:
                        line = f"{type(exc).__name__}: {exc}"
                    digest.update(line.encode() + b"\\n")
print(digest.hexdigest())
"""


def kernel_form_digest(root: Path, work: Path) -> str:
    env = bench.child_env()
    env.update(PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-c", KERNEL_FORM], cwd=work, env=env, capture_output=True, text=True)
    return f"{done.stdout.strip() or '-'} - - {done.returncode} kernel-form grid"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("root", nargs="?", type=Path, default=ROOT, help="checkout whose src/ is run")
    args = parser.parse_args()
    root = args.root.resolve()
    with tempfile.TemporaryDirectory(prefix="cli-digest-") as tmp:
        work = Path(tmp)
        ops = bench.cli_verify_ops(False, work)
        ops += bench.check_matrix_ops(work, bench.nordlund_rows(1, 384)) + norm_grid_ops() + error_path_ops(work)
        # an --out file is hashed after its command; each op writes a distinct path or none
        with ThreadPoolExecutor(JOBS) as pool:
            sweep = pool.submit(sweep_digest, root, work)
            kernel_form = pool.submit(kernel_form_digest, root, work)
            for line in pool.map(lambda op: digest(op, root, work), ops):
                print(line, flush=True)
            print(sweep.result(), flush=True)
            print(kernel_form.result(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
