"""Command-line front end.

Each command reads its flags, computes its table through the library and
writes CSV or JSON.  Floats are serialized with 17 significant
digits so every numeric field parses back to the identical double; JSON
writes a non-finite float as null, CSV as nan or inf.  A CSV field that
holds a comma, double quote, CR or LF is quoted as RFC 4180 says.  Rows are
produced in sorted key order, never by completion order, so identical configs
yield byte-identical files.

Exit codes: 0 ok, 1 numerical failure (error estimate over tolerance, singular
integrand), 2 configuration error (unknown names, bad JSON, out-of-range or
non-finite parameters).

At load only base (exit-code exceptions, GridSpec, the parser's names) and
summability are imported; each command imports what it runs: check-matrix
nothing more, list functions, coeffs kernels, conjugate and moduli their
namesakes (and conjugate for the default x grid), transform and verify verify.
Without bytecode a module left out saves its compile time too.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Iterable, Sequence

from . import summability
from .base import (DEFAULT_GRID, MODULUS_KINDS, THEOREM_IDS, ConvergenceError, DomainError, GridSpec,
                   MatrixValidationError, SingularIntegrandError, UnknownNameError)

# builtin --matrix-a / --matrix-b name -> builder taking n_max
_MATRIX_BUILDERS = {
    "cesaro": summability.cesaro, "identity": summability.identity_matrix, "delta0": summability.delta_at_zero
}
BUILTIN_MATRICES = tuple(_MATRIX_BUILDERS)

# the conjugate command's default eps column: pi * 2**-j for j = 1..20
DEFAULT_EPS = tuple(math.pi * 2.0 ** (-j) for j in range(1, 21))

# largest --n / --n-list of every command, checked before anything is built:
# check-matrix, verify and transform hold one or two dense (n+1)^2 matrices, 134 MB each at 4096
MAX_N = 4096


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _csv_field(value) -> str:
    """_fmt(value); a string holding a comma, quote, CR or LF goes in double quotes, its quotes doubled (RFC 4180)."""
    if isinstance(value, str) and any(c in value for c in ',"\r\n'):
        return '"' + value.replace('"', '""') + '"'
    return _fmt(value)


def _json_value(value):
    # strict JSON has no NaN or Infinity: a non-finite float is written as null
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _write_rows(columns: Sequence[str], rows: Iterable[tuple], out: str | None, fmt: str) -> None:
    """Rows are tuples in column order."""
    rows = list(rows)
    if fmt == "csv":
        text_rows = [",".join(columns)]
        for row in rows:
            text_rows.append(",".join(_csv_field(value) for value in row))
        payload = "\n".join(text_rows) + "\n"
    else:
        payload = json.dumps(
            [{c: _json_value(value) for c, value in zip(columns, row)} for row in rows], indent=2, sort_keys=True
        ) + "\n"
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _grid_from(args) -> GridSpec:
    try:
        return GridSpec(args.grid_m, args.grid_refinement)
    except DomainError as exc:
        raise DomainError(f"--grid-m / --grid-refinement: {exc}") from None


def _function_from(args):
    from .functions import by_name
    return by_name(args.function)


def _matrix_from(spec: str, n_max: int) -> summability.TriangularMatrix:
    """Rows 0..n_max of a builtin or of a JSON file, whose every row is validated."""
    if spec in _MATRIX_BUILDERS:
        return _MATRIX_BUILDERS[spec](n_max)
    matrix = summability.load_matrix_json(spec)
    if matrix.n_max < n_max:
        raise MatrixValidationError(f"{spec}: matrix has n_max={matrix.n_max}, need at least {n_max}")
    if matrix.n_max > n_max:
        matrix = summability.TriangularMatrix([matrix.row(n) for n in range(n_max + 1)], matrix.name)
    return matrix


def _matrices_from(args, n_max: int) -> tuple[summability.TriangularMatrix, summability.TriangularMatrix]:
    """(A, B) from --matrix-a and --matrix-b; B is A when both name the same matrix, which is read once."""
    A = _matrix_from(args.matrix_a, n_max)
    return A, A if args.matrix_b == args.matrix_a else _matrix_from(args.matrix_b, n_max)


def _nonnegative(flag: str, n: int) -> int:
    if n < 0:
        raise DomainError(f"{flag} must be nonnegative, got {n}")
    if n > MAX_N:
        raise DomainError(f"{flag} must be <= {MAX_N}, got {n}")
    return n


def _n_or_default(args, default: int) -> int:
    return default if args.n is None else _nonnegative("--n", args.n)


def _n_values(args) -> list[int]:
    """--n or --n-list of verify and transform."""
    if args.n_list:
        return sorted({_nonnegative("--n-list", n) for n in args.n_list})
    if args.n is not None:
        return [_nonnegative("--n", args.n)]
    raise DomainError("one of --n or --n-list is required")


def _x_values(args) -> list[float]:
    if getattr(args, "x", None) is not None:
        from .functions import check_x
        return [check_x("--x", args.x)]
    from .conjugate import default_x_grid
    return default_x_grid()


def _cmd_coeffs(args) -> int:
    from . import kernels
    f = _function_from(args)
    grid = _grid_from(args)
    N = _n_or_default(args, kernels.DEFAULT_COEFF_CUTOFF)
    c = kernels.fourier_coeffs(f, N, grid)
    rows = [(f.name, 0, c.a0, 0.0)]
    rows += [(f.name, nu, a, b) for nu, a, b in zip(range(1, N + 1), c.a.tolist(), c.b.tolist())]
    _write_rows(["function", "nu", "a", "b"], rows, args.out, args.format)
    return 0


def _cmd_conjugate(args) -> int:
    from . import conjugate as conj, functions
    f = _function_from(args)
    grid = _grid_from(args)
    eps_list = args.eps if args.eps else DEFAULT_EPS
    functions.check_half_period("--eps", eps_list)
    rows = []
    for x in _x_values(args):
        limit = conj.conjugate_at(f, x, grid=grid)
        truncated = conj.conjugate_truncated(f, x, eps_list, grid).tolist()
        rows += [(f.name, x, eps, value, limit) for eps, value in zip(eps_list, truncated)]
    _write_rows(["function", "x", "eps", "conjugate_truncated", "conjugate"], rows, args.out, args.format)
    return 0


def _cmd_transform(args) -> int:
    from . import verify
    f = _function_from(args)
    grid = _grid_from(args)
    ns = _n_values(args)
    xs = _x_values(args)
    A, B = _matrices_from(args, max(ns))
    conj_flag = not args.plain
    rows = [(f.name, A.name, B.name, int(conj_flag), n, x, verify.transform_value(f, A, B, n, x, grid, conj_flag))
            for n in ns for x in xs]
    columns = ["function", "matrix_a", "matrix_b", "conjugate", "n", "x", "value"]
    _write_rows(columns, rows, args.out, args.format)
    return 0


def _cmd_check_matrix(args) -> int:
    n_max = _n_or_default(args, summability.DEFAULT_CHECKER_N_MAX)
    A, B = _matrices_from(args, n_max)
    results = [
        (rep.condition_id, rep.min_constant, "/".join(str(i) for i in rep.witness))
        for rep in (
            summability.check_condition_2_1(A),
            summability.check_condition_2_2(A),
            summability.check_condition_2_21(A, B),
            summability.check_condition_3_2(B),
        )
    ]
    remark1 = max(summability.check_remark1_condition(A, n) for n in range(n_max + 1))
    results.append(("remark1", remark1, f"n_max={n_max}"))
    results.append(("remark2", summability.check_remark2_condition(B), f"n_max={B.n_max}"))
    rows = [(c, A.name, B.name, k, w) for c, k, w in results]
    _write_rows(["condition", "matrix_a", "matrix_b", "min_constant", "witness"], rows, args.out, args.format)
    return 0


def _cmd_moduli(args) -> int:
    if args.n is not None and args.delta is not None:
        raise DomainError("--n (a profile length) and --delta (a single delta) exclude each other")
    from . import functions, moduli
    f = _function_from(args)
    grid = _grid_from(args)
    if args.delta is None:
        n = _n_or_default(args, 32)
        ks, deltas = range(n + 1), [functions.PI / (k + 1.0) for k in range(n + 1)]
    else:
        ks, deltas = [-1], [functions.check_half_period("--delta", args.delta)]
    xs = _x_values(args)
    moduli._cumulative(f, xs, "psi" if "tilde" in args.kind else "phi", grid)  # one root bisection for every x
    rows = []
    for x in xs:
        values = moduli.modulus(f, x, deltas, args.kind, grid).tolist()
        rows += [(f.name, args.kind, x, k, d, v) for k, d, v in zip(ks, deltas, values)]
    _write_rows(["function", "kind", "x", "k", "delta", "value"], rows, args.out, args.format)
    return 0


def _report_row(rep) -> tuple:
    meta = rep.metadata
    x = rep.x if rep.x is not None else math.nan
    return (rep.theorem_id, meta.get("function", ""), meta.get("matrix_a", ""), meta.get("matrix_b", ""),
            rep.n, x, meta.get("p", math.nan), rep.lhs, rep.rhs, rep.ratio)


def _cmd_verify(args) -> int:
    from . import functions, verify
    theorem = args.theorem
    norm = theorem in ("T3", "T4")
    if norm and args.x is not None:
        raise DomainError(f"--x does not apply to {theorem}, a norm over the default x grid")
    for flag, given in (("--p", args.p is not None), ("--truncated", args.truncated)):
        if given and not norm:
            raise DomainError(f"{flag} applies to T3 and T4 only, not {theorem}")
    if theorem == "T4" and args.matrix_a != "cesaro":
        raise DomainError(f"--matrix-a must be cesaro for T4, got {args.matrix_a}")
    f = _function_from(args)
    grid = _grid_from(args)
    ns = _n_values(args)
    xs = _x_values(args)
    p = functions.check_exponent("--p", 2.0 if args.p is None else args.p)
    A, B = _matrices_from(args, max(ns))
    if theorem in verify._POINTWISE_IDS:
        reports = verify.pointwise_grid(theorem, f, A, B, ns, xs, grid)
    elif norm:
        reports = verify.norm_grid(f, A, B, ns, p, args.truncated, grid, theorem)
    else:  # COR; argparse admits only THEOREM_IDS
        reports = verify.corollary_grid(f, A, B, ns, xs, grid)
    columns = ["theorem", "function", "matrix_a", "matrix_b", "n", "x", "p", "lhs", "rhs", "ratio"]
    _write_rows(columns, (_report_row(r) for r in reports), args.out, args.format)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conjsum",
        description="Conjugate Fourier summability: kernels, transforms, moduli, bound reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, function=True):
        # the quadrature grid integrates the function, so a command without one has no grid flags
        if function:
            p.add_argument("--function", required=True, help="registry name (see 'conjsum list')")
            p.add_argument("--grid-m", type=int, default=DEFAULT_GRID.m, help="quadrature nodes per period")
            p.add_argument("--grid-refinement", type=int, default=DEFAULT_GRID.refinement)
        p.add_argument("--out", default=None, help="output path (stdout if omitted)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("coeffs", help="Fourier coefficient table (columns: function,nu,a,b)")
    common(p)
    p.add_argument("--n", type=int, default=None, help="coefficient cutoff N")
    p.set_defaults(func=_cmd_coeffs)

    p = sub.add_parser(
        "conjugate",
        help="conjugate values (columns: function,x,eps,conjugate_truncated,conjugate)",
    )
    common(p)
    p.add_argument("--x", type=float, default=None, help="single point (default grid otherwise)")
    p.add_argument("--eps", type=float, action="append", default=None)
    p.set_defaults(func=_cmd_conjugate)

    p = sub.add_parser(
        "transform",
        help="AB-transform values (columns: function,matrix_a,matrix_b,conjugate,n,x,value)",
    )
    common(p)
    p.add_argument("--matrix-a", default="cesaro", help=f"builtin {BUILTIN_MATRICES} or JSON path")
    p.add_argument("--matrix-b", default="identity")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--n-list", type=int, nargs="+", default=None)
    p.add_argument("--x", type=float, default=None)
    p.add_argument("--plain", action="store_true", help="use plain partial sums instead of conjugate")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser(
        "check-matrix",
        help="condition reports (columns: condition,matrix_a,matrix_b,min_constant,witness)",
    )
    common(p, function=False)
    p.add_argument("--matrix-a", default="cesaro")
    p.add_argument("--matrix-b", default="identity")
    p.add_argument("--n", type=int, default=None, help="checker n_max (default 128)")
    p.set_defaults(func=_cmd_check_matrix)

    p = sub.add_parser(
        "moduli", help="modulus profile (columns: function,kind,x,k,delta,value)"
    )
    common(p)
    p.add_argument("--kind", choices=MODULUS_KINDS, default="w_tilde")
    p.add_argument("--x", type=float, default=None)
    p.add_argument("--n", type=int, default=None, help="profile length (k = 0..n)")
    p.add_argument("--delta", type=float, default=None, help="single delta instead of a profile (k = -1 rows)")
    p.set_defaults(func=_cmd_moduli)

    p = sub.add_parser(
        "verify",
        help="bound reports (columns: theorem,function,matrix_a,matrix_b,n,x,p,lhs,rhs,ratio)",
    )
    common(p)
    p.add_argument("--theorem", required=True, choices=THEOREM_IDS)
    p.add_argument("--matrix-a", default="cesaro")
    p.add_argument("--matrix-b", default="cesaro")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--n-list", type=int, nargs="+", default=None)
    p.add_argument("--x", type=float, default=None, help="single point of the pointwise ids and COR")
    p.add_argument("--p", type=float, default=None, help="norm exponent of T3/T4 only (default 2), 1 <= p <= inf")
    p.add_argument("--truncated", action="store_true", help="T3/T4 against the truncated conjugate")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("list", help="print the function registry")
    p.set_defaults(func=_cmd_list)
    return parser


def _cmd_list(args) -> int:
    from .functions import registry
    for name in sorted(registry()):
        print(name)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConvergenceError, SingularIntegrandError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except (DomainError, UnknownNameError, MatrixValidationError, json.JSONDecodeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
