#!/usr/bin/env python3
"""sha256 digests of the benchmark's CLI commands, to show that a change keeps their bytes.

Usage, from the repository root:

    python3 tools/cli_digest.py                      # this checkout
    python3 tools/cli_digest.py /path/to/other/checkout

Runs every command of the cli-verify and check-matrix workloads of
bench/run.py (full sizes, check-matrix on the seed-1 Norlund matrix), then
the T3/T4 grid: {T3, T4} x {hat, sawtooth, sin3, cos} x p in {1, 2, 3.5, inf},
full and truncated, against B = cesaro and B = identity, at the orders 0, 1,
2, 4, ..., 512.  Each command runs ``python -m conjsum.cli`` from the given
checkout's src/ with the benchmark's environment.  One line per command:

    <sha256 of stdout> <sha256 of stderr> <sha256 of the --out file, or -> <exit code> <command name>

The work directory holding the input and output files is replaced by <work>
in stdout and stderr, so two runs, or two checkouts, print identical lines
exactly when their outputs are byte-identical.  Compare them with diff.
"""

from __future__ import annotations

import argparse
import hashlib
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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("root", nargs="?", type=Path, default=ROOT, help="checkout whose src/ is run")
    args = parser.parse_args()
    root = args.root.resolve()
    with tempfile.TemporaryDirectory(prefix="cli-digest-") as tmp:
        work = Path(tmp)
        ops = bench.cli_verify_ops(False, work)
        ops += bench.check_matrix_ops(work, bench.nordlund_rows(1, 384)) + norm_grid_ops()
        # an --out file is hashed after its command; each op writes a distinct path or none
        with ThreadPoolExecutor(JOBS) as pool:
            for line in pool.map(lambda op: digest(op, root, work), ops):
                print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
