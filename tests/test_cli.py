import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conjsum import cli, conjugate, kernels, summability
from conjsum.conjugate import ConvergenceError
from conjsum.functions import by_name
from conjsum.summability import cesaro, nordlund
from conjsum.verify import pointwise_grid

PI = math.pi
SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(args):
    return cli.main(args)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestExitCodes:
    def test_unknown_function_exits_2(self, capsys, tmp_path):
        code = run_cli(["coeffs", "--function", "nosuch", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "registry" in capsys.readouterr().err

    def test_bad_matrix_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = run_cli(
            ["transform", "--function", "sin", "--matrix-a", str(bad), "--n", "4",
             "--x", "0.5", "--out", str(tmp_path / "o.csv")]
        )
        assert code == 2

    def test_out_of_range_n_exits_2(self, tmp_path):
        code = run_cli(
            ["verify", "--theorem", "T1.5", "--function", "sin", "--n", "-3",
             "--x", "0.5", "--out", str(tmp_path / "o.csv")]
        )
        assert code == 2

    def test_check_matrix_nan_row_exits_2(self, tmp_path, capsys):
        path = tmp_path / "nan-row.json"
        path.write_text(json.dumps({"name": "nan-row", "rows": [[1.0], [math.nan, 1.0]]}))
        code = run_cli(["check-matrix", "--matrix-a", str(path), "--matrix-b", "identity", "--n", "1"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "nan-row: row 1 has a non-finite entry" in captured.err

    def test_check_matrix_overflowing_row_exits_2(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"name": "big", "rows": [[1.0], [1e308, 1e308]]}))
        assert run_cli(["check-matrix", "--matrix-a", str(path), "--n", "1"]) == 2
        assert "big: row 1 sums to inf, expected 1 within 1e-09" in capsys.readouterr().err

    def test_check_matrix_negative_n_names_flag(self, capsys):
        code = run_cli(["check-matrix", "--n", "-1"])
        assert code == 2
        assert "--n" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--grid-m", "--grid-refinement"])
    def test_check_matrix_has_no_grid_flags(self, flag, capsys):
        # the checkers integrate nothing, so a grid setting there is a configuration error
        with pytest.raises(SystemExit) as exc:
            run_cli(["check-matrix", "--n", "4", flag, "17"])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [
            ["verify", "--theorem", "T1.5", "--function", "sin", "--n", "4", "--x", "nan"],
            ["conjugate", "--function", "sin", "--x", "inf"],
            ["transform", "--function", "sin", "--n", "4", "--x", "inf"],
            ["moduli", "--function", "sin", "--x=-inf", "--delta", "0.5"],
            ["verify", "--theorem", "T2", "--function", "sin", "--n", "4", "--x", "nan"],
        ],
        ids=["verify", "conjugate", "transform", "moduli", "verify-t2"],
    )
    def test_non_finite_x_names_flag(self, args, capsys):
        assert run_cli(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--x must be finite" in captured.err

    FAR_X_COMMANDS = pytest.mark.parametrize(
        "args",
        [
            ["conjugate", "--function", "hat", "--eps", "0.5"],
            ["moduli", "--function", "hat", "--delta", "0.5"],
            ["transform", "--function", "hat", "--n", "4"],
            ["verify", "--theorem", "T1.5", "--function", "hat", "--n", "4"],
        ],
        ids=["conjugate", "moduli", "transform", "verify"],
    )

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("x", ["1e6", "-1048576", "7.5"])
    @FAR_X_COMMANDS
    def test_far_x_is_reduced_by_the_period(self, args, x, capsys):
        # the output, x column included, is the reduced x's
        assert run_cli(args + [f"--x={x}"]) == 0
        far = capsys.readouterr()
        assert run_cli(args + [f"--x={math.remainder(float(x), 2 * PI)!r}"]) == 0
        assert capsys.readouterr() == far
        assert far.err == ""

    @pytest.mark.parametrize("x", ["1e17", "-1e308", "1048576.0000000002"])
    @FAR_X_COMMANDS
    def test_x_beyond_the_bound_names_flag(self, args, x, capsys):
        # at 1e17, x + t rounds back to x, and fl(2 pi) differs from 2 pi by O(1) over x / 2 pi periods
        assert run_cli(args + [f"--x={x}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--x must lie in [-2^20, 2^20], got {float(x)}" in captured.err

    @pytest.mark.parametrize("name, closed_form", [("sin", lambda x: -math.cos(x)), ("cos", math.sin)])
    def test_far_x_conjugate_meets_the_closed_form_at_the_unreduced_x(self, name, closed_form, capsys):
        # math.cos reduces 1e6 by the true period; the reduction by fl(2 pi) is off by about 4e-11 here
        assert run_cli(["conjugate", "--function", name, "--x", "1e6"]) == 0
        row = next(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert float(row["conjugate"]) == pytest.approx(closed_form(1e6), abs=1e-10)

    @pytest.mark.parametrize("source", ["--grid-m"])
    def test_oversized_grid_names_source(self, source, capsys):
        assert run_cli(["coeffs", "--function", "sin", "--n", "2", source, str(2**14 + 2)]) == 2
        err = capsys.readouterr().err
        assert "error: --grid-m / --grid-refinement: grid m must be <= 16384, got 16386" in err

    def test_unknown_function_message_unquoted(self, capsys):
        assert run_cli(["verify", "--theorem", "T1.5", "--function", "nosuch", "--n", "3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown function 'nosuch'; registry has: const, cos,")

    def test_internal_key_error_is_not_a_configuration_error(self, monkeypatch):
        def broken(*args, **kwargs):
            raise KeyError("internal")

        monkeypatch.setattr(kernels, "fourier_coeffs", broken)
        with pytest.raises(KeyError, match="internal"):
            run_cli(["coeffs", "--function", "sin", "--n", "2"])

    def test_nan_p_exits_2(self, capsys):
        code = run_cli(["verify", "--theorem", "T3", "--function", "sin", "--n", "4", "--p", "nan"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: --p must satisfy 1 <= p <= inf, got nan" in captured.err

    @pytest.mark.parametrize("theorem, flags, message", [
        ("T3", ["--x", "0.3"], "--x does not apply to T3, a norm over the default x grid"),
        ("T4", ["--x", "0.3"], "--x does not apply to T4, a norm over the default x grid"),
        ("T1.5", ["--truncated"], "--truncated applies to T3 and T4 only, not T1.5"),
        ("T2.trunc", ["--truncated"], "--truncated applies to T3 and T4 only, not T2.trunc"),
        ("COR", ["--truncated"], "--truncated applies to T3 and T4 only, not COR"),
        ("T4", ["--matrix-a", "identity"], "--matrix-a must be cesaro for T4, got identity"),
    ] + [(theorem, ["--p", "2"], f"--p applies to T3 and T4 only, not {theorem}")
         for theorem in ("T1.51", "T1.5", "R1.6", "T2", "T2.trunc", "COR")])
    def test_flag_the_theorem_ignores_exits_2(self, theorem, flags, message, capsys):
        # refused before the function is even looked up
        assert run_cli(["verify", "--theorem", theorem, "--function", "nosuch", "--n", "4"] + flags) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_norm_theorems_default_p_to_2(self, capsys):
        args = ["verify", "--theorem", "T3", "--function", "sin", "--n", "4"]
        assert run_cli(args) == 0
        default = capsys.readouterr().out
        assert run_cli(args + ["--p", "2"]) == 0
        assert capsys.readouterr().out == default and ",nan,2," in default

    @pytest.mark.parametrize("eps", ["nan", "inf", "0", "-1", "4"])
    def test_eps_outside_domain_names_flag(self, eps, capsys):
        code = run_cli(["conjugate", "--function", "sin", "--x", "0.5", "--eps", "0.5", "--eps", eps])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: --eps must lie in (0, pi], got {float(eps)}" in captured.err

    def test_tiny_eps_exits_0(self, capsys):
        assert run_cli(["conjugate", "--function", "sin", "--x", "0.5", "--eps", "1e-300"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert len(rows) == 2
        assert float(rows[1].split(",")[3]) == pytest.approx(-math.cos(0.5), abs=1e-12)

    @pytest.mark.parametrize(
        "args, flag",
        [
            (["verify", "--theorem", "T1.5", "--function", "sin", "--n", "-3", "--x", "0.5"], "--n"),
            (["transform", "--function", "sin", "--n-list", "2", "-1"], "--n-list"),
            (["coeffs", "--function", "sin", "--n", "-1"], "--n"),
            (["moduli", "--function", "sin", "--x", "0.5", "--n", "-1"], "--n"),
        ],
        ids=lambda v: v[0] if isinstance(v, list) else None,
    )
    def test_negative_order_names_flag(self, args, flag, capsys):
        assert run_cli(args) == 2
        assert f"error: {flag} must be nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, flag",
        [
            (["coeffs", "--function", "sin", "--n", "4097"], "--n"),
            (["moduli", "--function", "sin", "--x", "0.5", "--n", "4097"], "--n"),
        ],
        ids=lambda v: v[0] if isinstance(v, list) else None,
    )
    def test_order_above_bound_names_flag(self, args, flag, capsys):
        assert run_cli(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {flag} must be <= {cli.MAX_N}, got 4097\n"

    def test_huge_check_matrix_n_exits_2_before_allocating(self):
        # at n = 100000 the dense matrices alone would need 74.5 GiB; 3 GB of address space
        # makes an allocation fail fast instead of exhausting memory
        import resource

        def limit_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (3 * 10**9, 3 * 10**9))

        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "conjsum.cli", "check-matrix", "--n", "100000"],
            env=env, capture_output=True, text=True, timeout=120, preexec_fn=limit_address_space,
        )
        assert done.returncode == 2, done.stderr
        assert done.stderr == f"error: --n must be <= {cli.MAX_N}, got 100000\n"

    def test_grid_refinement_above_bound_names_flag(self, capsys):
        assert run_cli(["moduli", "--function", "sin", "--x", "0.5", "--grid-refinement", "65"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--grid-refinement" in captured.err and "refinement must be <= 64, got 65" in captured.err

    def test_conjugate_near_jump_exits_1(self, capsys):
        code = run_cli(["conjugate", "--function", "sawtooth", "--x", "1e-9", "--eps", "0.5"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error estimate" in captured.err

    def test_numerical_failure_exits_1(self, monkeypatch, tmp_path, capsys):
        def boom(*a, **k):
            raise ConvergenceError("no convergence", (0.1, 0.2))

        monkeypatch.setattr(conjugate, "conjugate_at", boom)
        code = run_cli(
            ["conjugate", "--function", "sin", "--x", "0.5", "--out", str(tmp_path / "c.csv")]
        )
        assert code == 1
        assert "numerical failure" in capsys.readouterr().err

    def test_success_exits_0(self, tmp_path):
        code = run_cli(
            ["coeffs", "--function", "cos", "--n", "4", "--out", str(tmp_path / "c.csv")]
        )
        assert code == 0


class TestOutputs:
    def test_coeffs_roundtrip(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run_cli(["coeffs", "--function", "sawtooth", "--n", "8", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 9
        for row in rows[1:]:
            nu = int(row["nu"])
            assert abs(float(row["b"]) - 1.0 / nu) < 1e-6

    def test_float_fields_roundtrip_exactly(self, tmp_path, grid):
        out = tmp_path / "v.csv"
        x = 5 * PI / 16
        assert run_cli(
            ["verify", "--theorem", "T1.5", "--function", "sin", "--matrix-a", "cesaro",
             "--matrix-b", "cesaro", "--n", "8", "--x", repr(x), "--out", str(out)]
        ) == 0
        row = read_csv(out)[0]
        (rep,) = pointwise_grid("T1.5", by_name("sin"), cesaro(8), cesaro(8), [8], [x], grid)
        assert float(row["lhs"]) == rep.lhs
        assert float(row["rhs"]) == rep.rhs
        assert float(row["ratio"]) == rep.ratio

    def test_moduli_single_delta(self, tmp_path, grid):
        from conjsum.moduli import modulus

        out = tmp_path / "md.csv"
        assert run_cli(
            ["moduli", "--function", "cos", "--x", "1.5707963267948966", "--kind", "w_tilde_bar",
             "--delta", "1.0", "--out", str(out)]
        ) == 0
        row = read_csv(out)[0]
        assert int(row["k"]) == -1
        want = modulus(by_name("cos"), PI / 2, 1.0, "w_tilde_bar", grid)
        assert float(row["value"]) == pytest.approx(want, abs=1e-15)

    @pytest.mark.parametrize("n", ["-3", "5", "99999"])
    def test_moduli_rejects_n_with_delta(self, n, tmp_path, capsys):
        # --n sets a profile length, which a single --delta does not have: valid or not, it is refused
        out = tmp_path / "m.csv"
        code = run_cli(["moduli", "--function", "sin", "--x", "0.5", "--delta", "0.5", "--n", n, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "--n" in err and "--delta" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["verify", "--theorem", "T1.5", "--function", "sin", "--x", "0.5"],
        ["transform", "--function", "sin", "--x", "0.5"],
    ])
    @pytest.mark.parametrize("flag", ["--n", "--n-list"])
    def test_order_above_the_coefficient_cutoff_names_its_flag(self, command, flag, capsys):
        # 4097, above the coefficient cutoff 512 too, is refused with cli.MAX_N, as in every command
        assert run_cli(command + [flag, str(cli.MAX_N + 1)]) == 2
        assert capsys.readouterr().err == f"error: {flag} must be <= 4096, got 4097\n"

    def test_moduli_delta_out_of_range_exits_2(self, tmp_path, capsys):
        code = run_cli(
            ["moduli", "--function", "cos", "--x", "0.5", "--delta", "4.0",
             "--out", str(tmp_path / "m.csv")]
        )
        assert code == 2
        assert "error: --delta must lie in (0, pi], got 4.0" in capsys.readouterr().err

    def test_json_format(self, tmp_path):
        out = tmp_path / "m.json"
        assert run_cli(
            ["moduli", "--function", "cos", "--x", "1.0", "--n", "4", "--kind", "w_tilde",
             "--format", "json", "--out", str(out)]
        ) == 0
        data = json.loads(out.read_text())
        assert len(data) == 5
        assert data[0]["kind"] == "w_tilde"

    def test_conjugate_columns(self, tmp_path):
        out = tmp_path / "conj.csv"
        assert run_cli(
            ["conjugate", "--function", "sin", "--x", "0.9", "--eps", "0.5", "--eps", "0.25",
             "--out", str(out)]
        ) == 0
        rows = read_csv(out)
        assert [float(r["eps"]) for r in rows] == [0.5, 0.25]
        for r in rows:
            assert float(r["conjugate"]) == pytest.approx(-math.cos(0.9), abs=1e-6)

    def test_transform_matches_library(self, tmp_path, grid):
        from conjsum.verify import transform_value

        out = tmp_path / "t.csv"
        assert run_cli(
            ["transform", "--function", "sin3", "--matrix-a", "cesaro", "--matrix-b", "identity",
             "--n-list", "2", "4", "--x", "0.25", "--out", str(out)]
        ) == 0
        rows = read_csv(out)
        for row in rows:
            want = transform_value(
                by_name("sin3"), cesaro(4), cli.summability.identity_matrix(4),
                int(row["n"]), 0.25, grid,
            )
            assert float(row["value"]) == pytest.approx(want, abs=1e-15)

    def test_check_matrix_table(self, tmp_path):
        out = tmp_path / "chk.csv"
        assert run_cli(
            ["check-matrix", "--matrix-a", "cesaro", "--matrix-b", "identity", "--n", "32",
             "--out", str(out)]
        ) == 0
        rows = {r["condition"]: r for r in read_csv(out)}
        assert float(rows["2.1"]["min_constant"]) == 1.0
        assert float(rows["3.2"]["min_constant"]) == 0.0
        assert float(rows["remark2"]["min_constant"]) == 0.0

    def test_custom_matrix_json(self, tmp_path):
        m = nordlund([1.0, 2.0, 3.0, 4.0, 5.0], 4)
        path = tmp_path / "nord.json"
        path.write_text(json.dumps({"name": m.name, "rows": [m.row(n).tolist() for n in range(5)]}))
        out = tmp_path / "t.csv"
        assert run_cli(
            ["transform", "--function", "cos", "--matrix-a", str(path), "--matrix-b", "identity",
             "--n", "4", "--x", "0.1", "--out", str(out)]
        ) == 0
        assert read_csv(out)[0]["matrix_a"] == "nordlund"

    def test_check_matrix_scans_rows_up_to_n(self, tmp_path, capsys):
        m = nordlund((np.arange(11.0) + 1.0) ** 0.5, 10)
        rows = [m.row(n).tolist() for n in range(11)]
        full, cut = tmp_path / "full.json", tmp_path / "cut.json"
        full.write_text(json.dumps({"name": "nord", "rows": rows}))
        cut.write_text(json.dumps({"name": "nord", "rows": rows[:4]}))
        printed = []
        for path in (full, cut):
            assert run_cli(["check-matrix", "--matrix-a", str(path), "--matrix-b", str(path), "--n", "3"]) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]
        assert "n_max=10" not in printed[0]

    def test_check_matrix_reads_a_shared_file_once(self, tmp_path, monkeypatch, capsys):
        path, copy = tmp_path / "a.json", tmp_path / "b.json"
        m = nordlund((np.arange(9.0) + 1.0) ** -0.5, 8)
        path.write_text(json.dumps({"name": m.name, "rows": [m.row(n).tolist() for n in range(9)]}))
        copy.write_text(path.read_text())
        loads = []

        def counting(spec):
            loads.append(spec)
            return load(spec)

        load = summability.load_matrix_json
        monkeypatch.setattr(summability, "load_matrix_json", counting)
        printed = []
        for b in (path, copy):
            assert run_cli(["check-matrix", "--matrix-a", str(path), "--matrix-b", str(b), "--n", "8"]) == 0
            printed.append(capsys.readouterr().out)
        assert loads == [str(path), str(path), str(copy)]
        assert printed[0] == printed[1]


class TestVerifyCommand:
    def test_constant_function_all_zero_report(self, tmp_path):
        out = tmp_path / "const.csv"
        code = run_cli(
            ["verify", "--theorem", "T1.5", "--function", "const", "--matrix-a", "cesaro",
             "--matrix-b", "cesaro", "--n", "8", "--x", "0.7", "--out", str(out)]
        )
        assert code == 0
        row = read_csv(out)[0]
        assert float(row["lhs"]) < 1e-12
        assert float(row["rhs"]) < 1e-12
        assert float(row["ratio"]) == 0.0

    def test_corollary_rows(self, tmp_path):
        out = tmp_path / "cor.csv"
        code = run_cli(
            ["verify", "--theorem", "COR", "--function", "sin", "--matrix-a", "cesaro",
             "--matrix-b", "cesaro", "--n-list", "8", "16", "32", "--x", "1.0471975511965976",
             "--out", str(out)]
        )
        assert code == 0
        rows = read_csv(out)
        assert [int(r["n"]) for r in rows] == [8, 16, 32]
        devs = [float(r["lhs"]) for r in rows]
        assert devs[2] < devs[1] < devs[0]

    def test_norm_theorem_row(self, tmp_path):
        out = tmp_path / "t3.csv"
        code = run_cli(
            ["verify", "--theorem", "T3", "--function", "cos", "--matrix-a", "cesaro",
             "--matrix-b", "cesaro", "--n", "8", "--p", "2", "--out", str(out)]
        )
        assert code == 0
        row = read_csv(out)[0]
        assert row["theorem"] == "T3"
        assert float(row["p"]) == 2.0
        assert 0.0 < float(row["ratio"]) < 1.0


class TestDeterminism:
    def test_verify_byte_identical(self, tmp_path):
        args = ["verify", "--theorem", "T1.51", "--function", "sawtooth", "--matrix-a", "cesaro",
                "--matrix-b", "cesaro", "--n-list", "4", "8", "--x", "1.3744467859455345"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(args + ["--out", str(a)]) == 0
        assert run_cli(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


def _refuse_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


class TestStrictJson:
    VERIFY = ["verify", "--function", "hat", "--matrix-a", "cesaro", "--matrix-b", "cesaro", "--n", "8"]

    @pytest.mark.parametrize(
        "args, key, want",
        [
            (VERIFY + ["--theorem", "T1.5", "--x", "0.7"], "p", [None]),
            (VERIFY + ["--theorem", "T3", "--p", "2"], "x", [None]),
            (["check-matrix", "--matrix-a", "delta0", "--matrix-b", "cesaro", "--n", "8"], "min_constant",
             [1.0, None, 1.0]),
            (["check-matrix", "--matrix-a", "identity", "--matrix-b", "cesaro", "--n", "8"], "min_constant",
             [9.0, 1.0, None]),
        ],
    )
    def test_non_finite_floats_are_null(self, args, key, want, tmp_path):
        out = tmp_path / "out.json"
        assert run_cli(args + ["--format", "json", "--out", str(out)]) == 0
        rows = json.loads(out.read_text(), parse_constant=_refuse_constant)
        assert [row[key] for row in rows][: len(want)] == want

    def test_csv_keeps_non_finite_tokens(self, tmp_path):
        out = tmp_path / "out.csv"
        assert run_cli(["check-matrix", "--matrix-a", "identity", "--matrix-b", "cesaro", "--n", "8",
                        "--out", str(out)]) == 0
        assert {r["condition"]: r["min_constant"] for r in read_csv(out)}["2.21"] == "inf"


def test_import_loads_neither_fft_nor_ma():
    # numpy.fft is imported on the first coefficient build, numpy.ma by np.unique's first call;
    # numpy.polynomial not at all, as the Gauss-Kronrod constants are written out
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    # conjsum.cli loads no quadrature module at import, and conjsum.verify loads them all
    code = ("import sys, conjsum.cli, conjsum.verify; print(sorted(m for m in sys.modules if m.split('.')[:2] in "
            "(['numpy', 'fft'], ['numpy', 'ma'], ['numpy', 'polynomial'])))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
