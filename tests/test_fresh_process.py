"""The CLI and the package in fresh interpreters: what each loads, and the exit code of each error path.

The in-process CLI tests run with every conjsum module already imported, so
they cannot see a module that a command needs but never imports, or an
exception class that main's handlers reach only through a module not yet
loaded.  Each test here starts its own python.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
QUADRATURE_MODULES = {f"conjsum.{name}" for name in ("functions", "kernels", "moduli", "conjugate", "verify")}


def python(*args, cwd=None):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd, capture_output=True, text=True, timeout=120)


def imported_conjsum_modules(importtime_stderr: str) -> set:
    """The conjsum modules a -X importtime run imported, read from its 'import time:' lines."""
    lines = [line for line in importtime_stderr.splitlines() if line.startswith("import time:")]
    return {name for name in (line.rsplit("|", 1)[-1].strip() for line in lines) if name.startswith("conjsum")}


def test_check_matrix_loads_no_quadrature_module():
    done = python("-X", "importtime", "-m", "conjsum.cli", "check-matrix", "--matrix-b", "cesaro", "--n", "8")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("condition,matrix_a,matrix_b,min_constant,witness\n2.1,cesaro,cesaro,")
    # -m runs conjsum.cli as __main__, so it is not among the imports
    assert imported_conjsum_modules(done.stderr) == {"conjsum", "conjsum.base", "conjsum.summability"}


def test_list_loads_functions_alone():
    done = python("-X", "importtime", "-m", "conjsum.cli", "list")
    assert done.returncode == 0 and done.stdout == "const\ncos\nhat\nsawtooth\nsin\nsin3\n"
    assert imported_conjsum_modules(done.stderr) & QUADRATURE_MODULES == {"conjsum.functions"}


def test_import_conjsum_loads_no_submodule():
    code = ("import sys, conjsum; print(sorted(m for m in sys.modules if m.startswith('conjsum')));"
            "conjsum.GridSpec; print(sorted(m for m in sys.modules if m.startswith('conjsum')))")
    done = python("-c", code)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "['conjsum']\n['conjsum', 'conjsum.base']\n"


def write_inputs(tmp_path):
    (tmp_path / "nan-row.json").write_text(json.dumps({"name": "nan-row", "rows": [[1.0], [math.nan, 1.0]]}))
    (tmp_path / "bad.json").write_text('{"rows": [[1.0], [0.5, 0.5')


# (command, exit code, stderr): one exit-code class each, plus the JSON decoder's ValueError
ERROR_PATHS = {
    "nan-row": (["check-matrix", "--matrix-a", "nan-row.json", "--n", "1"], 2,
                "error: nan-row: row 1 has a non-finite entry\n"),
    "bad-json": (["check-matrix", "--matrix-a", "bad.json", "--n", "1"], 2,
                 "error: Expecting ',' delimiter: line 1 column 27 (char 26)\n"),
    "negative-n": (["check-matrix", "--n", "-1"], 2, "error: --n must be nonnegative, got -1\n"),
    "unknown-function": (["verify", "--theorem", "T1.5", "--function", "nosuch", "--n", "3"], 2,
                         "error: unknown function 'nosuch'; registry has: const, cos, hat, sawtooth, sin, sin3\n"),
    "near-jump": (["conjugate", "--function", "sawtooth", "--x", "1e-9", "--eps", "0.5"], 1,
                  "numerical failure: conjugate at x=1e-09: error estimate 0.536 exceeds 1e-08\n"),
}


@pytest.mark.parametrize("name", sorted(ERROR_PATHS))
def test_error_path_exit_code(name, tmp_path):
    write_inputs(tmp_path)
    args, code, stderr = ERROR_PATHS[name]
    done = python("-m", "conjsum.cli", *args, cwd=tmp_path)
    assert (done.returncode, done.stdout, done.stderr) == (code, "", stderr)


def test_singular_integrand_exits_1():
    # no command reaches it on the corpus; the class main catches is the one functions raises
    code = ("import sys; from conjsum import cli, kernels; from conjsum.functions import SingularIntegrandError\n"
            "def boom(*args): raise SingularIntegrandError('integrand is not finite at a quadrature node')\n"
            "kernels.fourier_coeffs = boom; sys.exit(cli.main(['coeffs', '--function', 'sin', '--n', '2']))")
    done = python("-c", code)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == "numerical failure: integrand is not finite at a quadrature node\n"


def test_moduli_over_the_grid_prints_the_rows_of_each_x_alone():
    # the grid command builds every x's table in one batch, each --x command a batch of one
    args = ["-m", "conjsum.cli", "moduli", "--function", "sawtooth", "--kind", "w"]
    done = python(*args)
    assert done.returncode == 0, done.stderr
    header, *rows = done.stdout.splitlines()
    by_x = {}
    for row in rows:
        by_x.setdefault(row.split(",")[2], []).append(row)
    assert len(by_x) == 30
    for x, want in by_x.items():
        alone = python(*args, "--x", x)
        assert alone.returncode == 0, alone.stderr
        assert alone.stdout.splitlines() == [header, *want], x
