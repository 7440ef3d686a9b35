"""End-to-end acceptance checks. Each test prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete; the whole module finishes in well under two minutes.
"""

import math
from fractions import Fraction

import numpy as np

from conjsum.conjugate import (
    conjugate_at,
    conjugate_truncated,
    default_x_grid,
    deviation_kernel_form,
)
from conjsum.functions import DEFAULT_GRID, by_name, corpus
from conjsum.kernels import conj_kernel_mean_z
from conjsum.moduli import (
    classical_modulus,
    modulus_profile,
    pointwise_modulus_on_nodes,
)
from conjsum.summability import (
    cesaro,
    check_condition_2_1,
    check_condition_2_2,
    check_condition_2_21,
    check_condition_3_2,
    check_remark1_condition,
    check_remark2_condition,
    delta_at_zero,
    identity_matrix,
)
from conjsum.verify import (
    lhs_theorem1,
    pointwise_grid,
    ratio_of,
    rhs_theorem1,
    rhs_theorem2,
    transform_value,
)

PI = math.pi
GRID = DEFAULT_GRID
X_GRID = default_x_grid()
N_RANGE = (8, 16, 32, 64, 128)


def report(number: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} [{label}]: {status}{suffix}", flush=True)


def kernel_t_grid():
    t = PI * np.arange(1, 513) / 512.0
    return t[np.abs(np.sin(t / 2)) >= 1e-6]


def direct_kernel_table(k_max: int, t: np.ndarray) -> np.ndarray:
    nu = np.arange(k_max + 1, dtype=float)
    return np.cumsum(np.sin(np.multiply.outer(nu, t)), axis=0)


def library_kernel_table(k_max: int, t: np.ndarray) -> np.ndarray:
    """Rows D~_0..D~_{k_max}, each the library's kernel mean of the unit weights e_k (tails C_1..C_k all 1)."""
    return np.stack([conj_kernel_mean_z(np.ones(k), np.exp(1j * t)) for k in range(k_max + 1)])


def test_criterion_1_kernel_identities():
    t = kernel_t_grid()
    direct = direct_kernel_table(128, t)
    rows = library_kernel_table(128, t)
    half_cot = 0.5 / np.tan(0.5 * t)
    ks = np.arange(129)
    # the paper's closed forms: D~_k = (cos(t/2) - cos((2k+1)t/2)) / (2 sin(t/2)) and its complement
    cos_k = np.cos(np.multiply.outer(2 * ks + 1, 0.5 * t))
    closed = (np.cos(0.5 * t) - cos_k) / (2.0 * np.sin(0.5 * t))
    complement = cos_k / (2.0 * np.sin(0.5 * t))
    err_direct = float(np.max(np.abs(rows - direct)))
    err_closed = float(np.max(np.abs(rows - closed)))
    err_comp = float(np.max(np.abs(complement - (half_cot - direct))))
    err_identity = float(np.max(np.abs(rows + complement - half_cot)))
    ok = max(err_direct, err_closed, err_comp, err_identity) <= 1e-10
    report(1, "kernel identities", ok,
           f"rows-vs-direct {err_direct:.2e}, rows-vs-closed {err_closed:.2e}, "
           f"complement {err_comp:.2e}, cot split {err_identity:.2e}")
    assert err_direct <= 1e-10
    assert err_closed <= 1e-10
    assert err_comp <= 1e-10
    assert err_identity <= 1e-10


def test_criterion_2_lemma1_bounds():
    slack = 1 + 1e-9
    t = kernel_t_grid()
    t_half = t[t <= PI / 2]
    t_wide = np.linspace(-2 * PI, 2 * PI, 1025)
    t_wide = t_wide[np.abs(np.sin(t_wide / 2)) >= 1e-6]
    direct_half = direct_kernel_table(128, t_half)
    complement_half = 0.5 / np.tan(0.5 * t_half) - direct_half
    kernels_wide = library_kernel_table(128, t_wide)
    ok = True
    for k in range(129):
        ok &= bool(np.all(np.abs(complement_half[k]) <= PI / (2 * t_half) * slack))
        ok &= bool(np.all(np.abs(direct_half[k]) <= PI / t_half * slack))
        ok &= bool(np.all(np.abs(kernels_wide[k]) <= 0.5 * k * (k + 1) * np.abs(t_wide) * slack))
        ok &= bool(np.all(np.abs(kernels_wide[k]) <= (k + 1) * slack))
    report(2, "Lemma 1 kernel bounds", ok, "four bounds, k <= 128")
    assert ok


def _even_bernoulli(k_max: int) -> list[Fraction]:
    """B_2, B_4, ..., B_{2 k_max} exactly (Akiyama-Tanigawa)."""
    a, b = [], []
    for m in range(2 * k_max + 1):
        a.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
        b.append(a[0])
    return b[2::2]


# Cl_2(t) = t - t ln|t| + sum_k |B_2k| t^(2k+1) / (2k (2k+1)!) for |t| < 2 pi
_CLAUSEN_COEFFS = [
    float(abs(bk) / (2 * k * math.factorial(2 * k + 1)))
    for k, bk in enumerate(_even_bernoulli(60), start=1)
]


CATALAN = 0.91596559417721901505  # Cl_2(pi/2)


def clausen2(t: float) -> float:
    assert abs(t) < 2 * PI
    if t == 0.0:
        return 0.0
    series = sum(c * t ** (2 * k + 1) for k, c in enumerate(_CLAUSEN_COEFFS, start=1))
    return t - t * math.log(abs(t)) + series


def hat_conjugate(x: float) -> float:
    """From the hat's coefficients 2(1 - cos(nu w))/(pi w nu^2), half-width w = pi/2."""
    w = PI / 2
    return 2 / (PI * w) * (clausen2(x) - 0.5 * clausen2(x + w) - 0.5 * clausen2(x - w))


def test_criterion_3_conjugate_oracle():
    cases = [
        ("sin", lambda x: -math.cos(x), 1e-12),
        ("cos", math.sin, 1e-12),
        ("sin3", lambda x: -math.cos(3 * x), 1e-12),
        ("sawtooth", lambda x: math.log(2 * math.sin(((x) % (2 * PI)) / 2)), 1e-12),
        ("hat", hat_conjugate, 1e-12),
    ]
    assert abs(clausen2(PI / 2) - CATALAN) <= 1e-15
    worst = {}
    for name, oracle, tol in cases:
        f = by_name(name)
        err = max(abs(conjugate_at(f, x, grid=GRID) - oracle(x)) for x in X_GRID)
        worst[name] = (err, tol)
    ok = all(err <= tol for err, tol in worst.values())
    detail = ", ".join(f"{k} {v[0]:.2e}<= {v[1]:.0e}" for k, v in worst.items())
    report(3, "conjugate oracle", ok, detail)
    for name, (err, tol) in worst.items():
        assert err <= tol, name


def test_criterion_4_lemma2():
    slack = 1e-9
    ok = True
    worst = math.inf
    for f in corpus():
        for x in X_GRID:
            plain = modulus_profile(f, x, 128, "w_tilde", GRID).values
            bar = modulus_profile(f, x, 128, "w_tilde_bar", GRID).values
            counts = np.arange(1.0, 130.0)
            plain_rhs = 2.0 * np.cumsum(plain) / counts
            bar_rhs = np.cumsum(bar) / counts
            ok &= bool(np.all(plain <= plain_rhs + slack))
            ok &= bool(np.all(bar <= bar_rhs + slack))
            with np.errstate(invalid="ignore", divide="ignore"):
                margins = np.where(plain_rhs > 1e-12, plain_rhs - plain, math.inf)
            worst = min(worst, float(np.min(margins)))
    report(4, "Lemma 2 averaged-modulus inequalities", ok, f"min plain margin {worst:.2e}")
    assert ok


def test_criterion_5_eq81():
    h = 2 * PI / GRID.m
    ok = True
    worst_ratio = 0.0
    for f in corpus():
        for k in range(33):
            delta = PI / (k + 1)
            _, vals = pointwise_modulus_on_nodes(f, delta, "w_tilde", GRID)
            for p in (1.0, 2.0, math.inf):
                if math.isinf(p):
                    lhs = float(vals.max())
                else:
                    lhs = float((h * np.sum(vals**p)) ** (1.0 / p))
                rhs = classical_modulus(f, delta, p, GRID)
                if rhs <= 1e-12:
                    ok &= lhs <= 1e-12
                else:
                    worst_ratio = max(worst_ratio, lhs / rhs)
                    ok &= lhs <= rhs * (1 + 1e-6)
    report(5, "Eq. (81) pointwise-vs-classical moduli", ok, f"worst lhs/rhs {worst_ratio:.6f}")
    assert ok


IDENTITY_SIZES = (1, 2, 8, 128, 512)


def identity_closed_forms(N: int) -> dict:
    """Whether each checker on I (and on C, I for 2.21) gives its closed form exactly, at size N.

    2.1: (n+1) a_{n,n} = n + 1, largest at n = N.  2.2: ratio 1/(n+1) on the
    diagonal, 0 below it.  2.21 of (I, I): a_{1,0} = 0 but a_{1,1} = 1.
    2.21 of (C, I): Cesaro rows are constant below the diagonal.
    """
    C, I = cesaro(N), identity_matrix(N)

    def got(report):
        return report.min_constant, report.witness

    return {
        "2.1": got(check_condition_2_1(I)) == (N + 1, (N,)),
        "2.2": got(check_condition_2_2(I)) == (1.0, (0, 0)),
        "2.21 I/I": got(check_condition_2_21(I, I)) == (math.inf, (1, 0, 0)),
        "2.21 C/I": got(check_condition_2_21(C, I)) == (0.0, (0, 0, 0)),
        "3.2": got(check_condition_3_2(I)) == (0.0, (0, 0)),
        "remark1": all(check_remark1_condition(I, n) == 1 / (n + 1) for n in range(N + 1)),
        "remark2": check_remark2_condition(I) == 0.0,
    }


def test_criterion_6_matrix_checkers():
    C, I, D0 = cesaro(128), identity_matrix(128), delta_at_zero(128)
    c21 = check_condition_2_1(C).min_constant
    c22 = check_condition_2_2(C).min_constant
    c221 = check_condition_2_21(C, C).min_constant
    # Cesaro K_2.21 = N/(N+1), within the rounding 4 eps (2N + 1) of its one cancelling difference
    c221_ok = abs(c221 - 128 / 129) <= 4 * 2.0**-53 * 257 * (128 / 129)
    c32 = check_condition_3_2(I).min_constant
    r2 = check_remark2_condition(I)
    harmonics_ok = True
    grows = []
    for n in range(129):
        got = check_remark1_condition(D0, n)
        want = math.fsum(1.0 / k for k in range(1, n + 2))
        harmonics_ok &= abs(got - want) <= 1e-12
        grows.append(got)
    unbounded = all(b > a for a, b in zip(grows, grows[1:]))
    identity = {N: identity_closed_forms(N) for N in IDENTITY_SIZES}
    identity_ok = all(all(forms.values()) for forms in identity.values())
    ok = (
        c21 == 1.0
        and c22 == 1.0
        and c221_ok
        and c32 == 0.0
        and r2 == 0.0
        and harmonics_ok
        and unbounded
        and identity_ok
    )
    report(6, "matrix condition checkers", ok,
           f"2.1={c21}, 2.2={c22}, 2.21={c221:.6f}, 3.2={c32}, remark2={r2}, remark1=H(n+1), "
           f"identity closed forms at N in {IDENTITY_SIZES}")
    assert c21 == 1.0
    assert c22 == 1.0
    assert c221_ok, c221
    assert c32 == 0.0
    assert r2 == 0.0
    assert harmonics_ok and unbounded
    for N, forms in identity.items():
        assert all(forms.values()), (N, forms)


def _running_max_growth(rhs_kind: str, A, B) -> float:
    per_n_max = []
    for n in N_RANGE:
        best = 0.0
        for f in corpus():
            for x in X_GRID:
                if rhs_kind == "T1":
                    rhs = rhs_theorem1(f, A, x, n, GRID)
                else:
                    rhs = rhs_theorem2(f, x, n, GRID)
                for truncated in (True, False):
                    lhs = lhs_theorem1(f, A, B, x, n, truncated, GRID)
                    r = ratio_of(lhs, rhs)
                    assert math.isfinite(r), (f.name, x, n)
                    best = max(best, r)
        per_n_max.append(best)
    return _growth(per_n_max)


def _growth(per_n_max) -> float:
    """Last over first running maximum of the per-n maximum ratios."""
    running = np.maximum.accumulate(per_n_max)
    return float(running[-1] / running[0])


def _remark16_growth(A, B) -> float:
    """_growth of the R1.6 report ratios over N_RANGE, corpus x default x grid."""
    per_n_max = dict.fromkeys(N_RANGE, 0.0)
    for f in corpus():
        for rep in pointwise_grid("R1.6", f, A, B, N_RANGE, X_GRID, GRID):
            assert math.isfinite(rep.ratio), (f.name, rep.x, rep.n)
            per_n_max[rep.n] = max(per_n_max[rep.n], rep.ratio)
    return _growth(list(per_n_max.values()))


def test_criterion_7_bound_ratio_stability():
    C, I = cesaro(128), identity_matrix(128)
    assert check_condition_3_2(I).min_constant == 0.0  # precondition for identity-B
    growths = {
        "T1 cesaro/cesaro": _running_max_growth("T1", C, C),
        "T1 cesaro/identity": _running_max_growth("T1", C, I),
        "T2 cesaro/identity": _running_max_growth("T2", C, I),
        "T2 cesaro/cesaro": _running_max_growth("T2", C, C),
    }
    # B = delta0 leaves c_0 = 1 alone, so T~ = S~_0 = 0: the lhs stays |f~(x)| while the T1 rhs decays
    controls = {"T1 cesaro/delta0": _running_max_growth("T1", C, delta_at_zero(128))}
    ok = all(g < 1.05 for g in growths.values()) and all(g > 1.05 for g in controls.values())
    detail = ", ".join(f"{k} x{v:.4f}" for k, v in {**growths, **controls}.items())
    report(7, "Theorem 1/2 ratio running max, delta0 negative control", ok, detail)
    for key, g in growths.items():
        assert g < 1.05, key
    for key, g in controls.items():
        assert g > 1.05, key


def test_criterion_8_corollary_decay():
    C = cesaro(128)
    f_sin = by_name("sin")
    x = PI / 3
    devs = {n: lhs_theorem1(f_sin, C, C, x, n, False, GRID) for n in (16, 32, 64, 128)}
    halving_ok = all(devs[2 * n] <= 0.75 * devs[n] for n in (16, 32, 64))
    tail_ok = True
    drops = []
    for f in corpus():
        if f.name == "const":
            continue
        d4 = lhs_theorem1(f, C, C, x, 4, False, GRID)
        d128 = lhs_theorem1(f, C, C, x, 128, False, GRID)
        tail_ok &= d128 < d4
        drops.append(f"{f.name} {d128 / d4:.3f}")
    ok = halving_ok and tail_ok
    report(8, "corollary decay", ok,
           f"sin halved ratios {[f'{devs[2*n]/devs[n]:.3f}' for n in (16, 32, 64)]}, "
           f"dev(128)/dev(4): {', '.join(drops)}")
    assert halving_ok
    assert tail_ok


def test_criterion_9_kernel_form_cross_check():
    C, I = cesaro(32), identity_matrix(32)
    worst = 0.0
    for f in corpus():
        for A, B in ((C, C), (I, I)):
            for n in (1, 2, 4, 8, 16, 32):
                for x in (5 * PI / 16, -3 * PI / 16):
                    dt, df = deviation_kernel_form(f, A, B, n, x, GRID)
                    value = transform_value(f, A, B, n, x, GRID)
                    trunc = conjugate_truncated(f, x, PI / (n + 1), GRID)
                    full = conjugate_at(f, x, grid=GRID)
                    worst = max(worst, abs(dt - (value - trunc)), abs(df - (value - full)))
    ok = worst <= 1e-13
    report(9, "kernel-form vs direct deviations", ok, f"worst |diff| {worst:.2e}")
    assert worst <= 1e-13


def test_criterion_10_cli_determinism(tmp_path):
    from conjsum.cli import main

    args = [
        "verify", "--theorem", "T1.5", "--function", "sin", "--matrix-a", "cesaro",
        "--matrix-b", "cesaro", "--n-list", "4", "8", "16",
    ]
    a, b = tmp_path / "run1.csv", tmp_path / "run2.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    ok = a.read_bytes() == b.read_bytes()
    report(10, "cmd_verify determinism", ok, f"{a.stat().st_size} bytes each")
    assert ok


def test_criterion_11_remark16_ratio_stability_and_negative_control():
    C, I, D0 = cesaro(128), identity_matrix(128), delta_at_zero(128)
    growths = {
        "R1.6 cesaro/cesaro": _remark16_growth(C, C),
        "R1.6 cesaro/identity": _remark16_growth(C, I),
    }
    # delta0 fails condition (2.2) (criterion 6: its remark-1 sum is H(n+1)), so its ratios must outgrow the bound
    controls = {
        "T2 delta0/cesaro": _running_max_growth("T2", D0, C),
        "R1.6 delta0/cesaro": _remark16_growth(D0, C),
    }
    ok = all(g < 1.05 for g in growths.values()) and all(g > 1.05 for g in controls.values())
    detail = ", ".join(f"{k} x{v:.4f}" for k, v in {**growths, **controls}.items())
    report(11, "Remark 1.6 ratio running max, delta0 negative control", ok, detail)
    for key, g in growths.items():
        assert g < 1.05, key
    for key, g in controls.items():
        assert g > 1.05, key
