"""The CLI input boundary: every rejected flag value exits 2 and names its flag.

Each value below is rejected before any computation starts, so the property
runs cli.main in-process and stays fast.  A --matrix-a file is a boundary
too: whatever JSON it holds, check-matrix exits 0 or 2 and never raises, and
a matrix name that CSV would split reads back as one field.
"""

import csv
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conjsum import cli
from conjsum.functions import MAX_GRID_M, MAX_GRID_REFINEMENT, PI

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
OUTSIDE_HALF_OPEN_PI = (
    st.just(math.nan) | st.floats(max_value=0.0) | st.floats(min_value=PI, exclude_min=True)
)
ORDERS = st.integers(max_value=-1) | st.integers(min_value=cli.MAX_N + 1)

# flag -> [(values the CLI rejects, commands that read the flag), ...]
CASES = {
    "--x": [(NON_FINITE, [
        ["conjugate", "--function", "sin"],
        ["transform", "--function", "sin", "--n", "4"],
        ["verify", "--theorem", "T1.5", "--function", "sin", "--n", "4"],
        ["moduli", "--function", "sin", "--delta", "0.5"],
    ]), (st.floats(), [  # the norm theorems read no --x at all
        ["verify", "--theorem", "T3", "--function", "sin", "--n", "4"],
        ["verify", "--theorem", "T4", "--function", "sin", "--n", "4"],
    ])],
    "--eps": [(OUTSIDE_HALF_OPEN_PI, [["conjugate", "--function", "sin", "--x", "0.5"]])],
    "--delta": [(OUTSIDE_HALF_OPEN_PI, [["moduli", "--function", "sin", "--x", "0.5"]])],
    "--p": [(st.just(math.nan) | st.floats(max_value=1.0, exclude_max=True), [
        ["verify", "--theorem", "T3", "--function", "sin", "--n", "4"],
        ["verify", "--theorem", "T1.5", "--function", "sin", "--n", "4", "--x", "0.5"],
    ])],
    "--n": [(ORDERS, [
        ["coeffs", "--function", "sin"],
        ["check-matrix"],
        ["moduli", "--function", "sin", "--x", "0.5"],
        ["transform", "--function", "sin", "--x", "0.5"],
        ["verify", "--theorem", "COR", "--function", "sin", "--x", "0.5"],
    ])],
    "--n-list": [(ORDERS, [
        ["transform", "--function", "sin", "--x", "0.5"],
        ["verify", "--theorem", "T2", "--function", "sin", "--x", "0.5"],
    ])],
    "--grid-m": [(
        st.integers(max_value=15)
        | st.integers(min_value=MAX_GRID_M + 1)
        | st.integers(8, MAX_GRID_M // 2 - 1).map(lambda k: 2 * k + 1),
        [["coeffs", "--function", "sin", "--n", "4"], ["conjugate", "--function", "sin", "--x", "0.5"]],
    )],
    "--grid-refinement": [(
        st.integers(max_value=0) | st.integers(min_value=MAX_GRID_REFINEMENT + 1),
        [["coeffs", "--function", "sin", "--n", "4"], ["moduli", "--function", "sin", "--x", "0.5"]],
    )],
}


@st.composite
def rejected_args(draw):
    flag = draw(st.sampled_from(sorted(CASES)))
    values, commands = draw(st.sampled_from(CASES[flag]))
    value = draw(values)
    return draw(st.sampled_from(commands)) + [f"{flag}={value!r}"], flag


def run(args):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(args)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None)
@given(rejected_args())
def test_rejected_value_exits_2_and_names_its_flag(case):
    args, flag = case
    code, out, err = run(args)
    assert code == 2, (args, err)
    assert out == ""
    assert err.startswith("error: ") and flag in err, (args, err)
    assert "Traceback" not in err


def test_every_flag_has_an_accepted_neighbour():
    # the boundary values themselves are accepted, so the bounds are where they claim to be
    accepted = [
        ["coeffs", "--function", "sin", f"--n={cli.MAX_N}", "--grid-m=16", f"--grid-refinement={MAX_GRID_REFINEMENT}"],
        ["conjugate", "--function", "sin", "--x=0.5", f"--eps={PI!r}"],
        ["moduli", "--function", "sin", "--x=0.5", f"--delta={PI!r}"],
        ["verify", "--theorem", "T3", "--function", "sin", "--n-list=0", "--p=1.0"],
        ["verify", "--theorem", "T3", "--function", "sin", "--n=2", "--p=inf"],
        ["verify", "--theorem", "T2", "--function", "sin", "--x=0.5", f"--n-list={cli.MAX_N}"],
        ["transform", "--function", "sin", "--x=0.5", "--matrix-b=cesaro", f"--n={cli.MAX_N}"],
    ]
    for args in accepted:
        code, _, err = run(args)
        assert code == 0, (args, err)


# documents that once crashed with exit 1, or were read with a coercion
BAD_MATRIX_DOCUMENTS = [
    pytest.param({"rows": None}, id="rows-null"),
    pytest.param({"rows": 5}, id="rows-number"),
    pytest.param({"rows": [[1.0], {"a": 1}]}, id="row-object"),
    pytest.param({"rows": [[10**400]]}, id="400-digit-int"),
    pytest.param({"rows": [[True]]}, id="bool-entry"),
    pytest.param({"rows": [["1.0"]]}, id="string-entry"),
    pytest.param({"rows": [[1.0], [0.5, [0.5]]]}, id="nested-entry"),
    pytest.param({"name": 3, "rows": [[1.0]]}, id="name-number"),
]


@pytest.mark.parametrize("document", BAD_MATRIX_DOCUMENTS)
def test_bad_matrix_document_exits_2(document, tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(document))
    code, out, err = run(["check-matrix", "--matrix-a", str(path), "--n", "0"])
    assert (code, out) == (2, ""), err
    assert err.startswith("error: ") and str(path) in err, err


def test_deeply_nested_matrix_document_exits_2(tmp_path):
    # json.load recurses once per bracket
    path = tmp_path / "m.json"
    path.write_text('{"rows": ' + "[" * 100_000 + "]" * 100_000 + "}")
    code, out, err = run(["check-matrix", "--matrix-a", str(path), "--n", "0"])
    assert (code, out) == (2, ""), err
    assert err.startswith("error: ") and str(path) in err, err


@pytest.mark.parametrize("name", ["a,b", 'say "hi"', "l\nm", "c\rd"])
def test_csv_quotes_a_matrix_name(name, tmp_path):
    path, out = tmp_path / "m.json", tmp_path / "out.csv"
    path.write_text(json.dumps({"name": name, "rows": [[1.0], [0.5, 0.5]]}))
    code, _, err = run(["check-matrix", "--matrix-a", str(path), "--n", "1", "--out", str(out)])
    assert code == 0, err
    header, *rows = csv.reader(io.StringIO(out.read_bytes().decode("utf-8"), newline=""))
    assert header == ["condition", "matrix_a", "matrix_b", "min_constant", "witness"]
    assert len(rows) == 6 and all(len(row) == 5 and row[1] == name for row in rows), rows


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.sampled_from([10**400, -(2**1024)])
    | st.floats() | st.sampled_from([0.0, 0.5, 1.0]) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=10,
)
# row-shaped documents, so that some matrices are valid and exit 0
ROWS = JSON_VALUES | st.lists(st.lists(st.just(1.0) | JSON_VALUES, min_size=1, max_size=2), min_size=1, max_size=2)


@pytest.fixture(scope="module")
def document_path(tmp_path_factory):
    return tmp_path_factory.mktemp("documents") / "m.json"


@settings(max_examples=100, deadline=None)
@given(rows=ROWS, name=st.none() | st.text(max_size=3) | JSON_VALUES)
def test_any_matrix_document_exits_0_or_2(rows, name, document_path):
    document_path.write_text(json.dumps({"rows": rows} if name is None else {"rows": rows, "name": name}))
    code, _, err = run(["check-matrix", "--matrix-a", str(document_path), "--n", "0"])
    assert code in (0, 2), err
    assert code == 0 or err.startswith("error: "), err
