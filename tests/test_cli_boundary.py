"""The CLI input boundary: every rejected flag value exits 2 and names its flag.

Each value below is rejected before any computation starts, so the property
runs cli.main in-process and stays fast.
"""

import io
import math
from contextlib import redirect_stderr, redirect_stdout

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
