"""verify and transform take every order up to cli.MAX_N, and an order above 512 changes no other row.

Each order n <= 512 reads the N = 512 coefficients and partial sums, and an
order above 512 builds its own, so adding 4096 to an --n-list leaves the
rows of the smaller orders byte for byte as they were.  Each run starts
from empty caches, as a fresh process does, so neither run reads what the
other built.
"""

import importlib
import io
import pkgutil
from contextlib import redirect_stdout

import pytest

import conjsum
from conjsum import cli
from conjsum.verify import THEOREM_IDS

SMALL, LARGE = ["8", "64", "512"], ["8", "64", "512", "4096"]


def rows_up_to_512(args):
    for info in pkgutil.iter_modules(conjsum.__path__):
        for value in vars(importlib.import_module(f"conjsum.{info.name}")).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(args) == 0
    header, *rows = out.getvalue().splitlines()
    n_col = header.split(",").index("n")
    return [row for row in rows if int(row.split(",")[n_col]) <= 512], len(rows)


def command(name):
    if name == "transform":  # B = A, so the run holds one 4096-row matrix
        return ["transform", "--function", "hat", "--matrix-b", "cesaro", "--x", "0.3"]
    x = [] if name in ("T3", "T4") else ["--x", "0.3"]
    return ["verify", "--theorem", name, "--function", "sawtooth"] + x


@pytest.mark.parametrize("name", THEOREM_IDS + ("transform",))
def test_rows_up_to_512_do_not_depend_on_a_larger_order(name):
    small, n_small = rows_up_to_512(command(name) + ["--n-list"] + SMALL)
    large, n_large = rows_up_to_512(command(name) + ["--n-list"] + LARGE)
    assert n_small == len(small) == 3 and n_large == 4
    assert large == small
