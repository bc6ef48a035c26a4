"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  The fractional sweeps (criterion 3) dominate the runtime.
"""

import numpy as np
import pytest

from hkindex import cli
from hkindex import operators as op
from hkindex import spectra as spc
from hkindex import spectral as sp
from hkindex import verdicts as vd
from hkindex import waves as wv

from conftest import eigensystem, quiet, random_mean_zero, sech_profile
from dense_reference import assemble


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {num:02d} {status}: {name}{suffix}")
    assert ok, f"criterion {num}: {name} {suffix}"


# --- shared expensive pipelines -------------------------------------------

@pytest.fixture(scope="module")
def dichotomy():
    """Criterion 2 verdicts: p in {1, 2, 3} stable, {4.5, 5} unstable."""
    with quiet():
        return {p: vd.verdict(wv.FKDV, 2.0, p, 1.0)
                for p in (1.0, 2.0, 3.0, 4.5, 5.0)}


@pytest.fixture(scope="module")
def dichotomy_sweep():
    with quiet():
        return vd.sweep("p", 3.5, 4.5, 11, s=2.0, p=0.0, c=1.0)


@pytest.fixture(scope="module")
def fractional_sweeps():
    """Criterion 3: p-sweeps of 5 points (step 0.1) centered on 2s."""
    out = {}
    with quiet():
        for s in (0.6, 0.75, 1.5):
            lo, hi = 2.0 * s - 0.2, 2.0 * s + 0.2
            out[s] = vd.sweep("p", lo, hi, 5, s=s, p=0.0, c=1.0)
    return out


@pytest.fixture(scope="module")
def bbm_cases():
    with quiet():
        return {(s, p, c): vd.verdict(wv.FBBM, s, p, c)
                for (s, p, c) in ((2.0, 2.0, 2.0), (2.0, 4.0, 2.0),
                                  (1.0, 2.0, 2.0), (1.5, 1.0, 1.5))}


# --- criteria ---------------------------------------------------------------

def test_criterion_01_closed_form_waves(grid40, q22):
    exact = np.sqrt(2.0) / np.cosh(grid40.nodes)
    wave_err = float(np.max(np.abs(q22.values - exact)))
    residuals = [sech_profile(grid40, p, 1.0).residual_norm
                 for p in (1.0, 2.0, 3.0)]
    ok = wave_err <= 1e-8 and all(r <= 1e-10 for r in residuals)
    report(1, "closed-form wave reproduction", ok,
           f"sup err {wave_err:.2e}, sech residuals "
           + ", ".join(f"{r:.1e}" for r in residuals))


@pytest.mark.slow
def test_criterion_02_gkdv_dichotomy(dichotomy, dichotomy_sweep):
    problems = []
    for p in (1.0, 2.0, 3.0):
        if dichotomy[p].verdict != vd.STABLE:
            problems.append(f"p={p}: {dichotomy[p].verdict}")
    for p in (4.5, 5.0):
        res = dichotomy[p]
        if res.verdict != vd.UNSTABLE or res.k_r != 1:
            problems.append(f"p={p}: {res.verdict}, k_r={res.k_r}")
    bracket = dichotomy_sweep.flip_bracket
    if bracket is None or not (3.8 <= bracket[0] and bracket[1] <= 4.2):
        problems.append(f"bracket={bracket}")
    report(2, "gKdV stability dichotomy at p = 4", not problems,
           "; ".join(problems) or f"bracket={bracket}")


@pytest.mark.slow
def test_criterion_03_fractional_threshold(fractional_sweeps):
    problems = []
    details = []
    for s, res in fractional_sweeps.items():
        failures = [pt.error for pt in res.points if pt.result is None]
        if failures:
            problems.append(f"s={s}: {failures}")
            continue
        bracket = res.flip_bracket
        if bracket is None:
            problems.append(f"s={s}: no flip")
            continue
        lo, hi = bracket
        if not (2.0 * s - 0.1 - 1e-9 <= lo and hi <= 2.0 * s + 0.1 + 1e-9):
            problems.append(f"s={s}: bracket {bracket} not within +-0.1 of {2 * s}")
        details.append(f"s={s}: ({lo:g}, {hi:g})")
    report(3, "fractional threshold brackets 2s", not problems,
           "; ".join(problems or details))


@pytest.mark.slow
def test_criterion_04_index_identity(dichotomy, dichotomy_sweep,
                                     fractional_sweeps, bbm_cases):
    # every non-degenerate pipeline asserts K_formula == K_direct internally
    # (TheoryConsistencyError otherwise); re-check the recorded results here
    problems = []
    all_results = list(dichotomy.values()) + list(bbm_cases.values())
    for res in dichotomy_sweep.points:
        if res.result is not None:
            all_results.append(res.result)
    for s, swp in fractional_sweeps.items():
        for pt in swp.points:
            if pt.result is not None:
                all_results.append(pt.result)
    # a sweep point that errored is a failed identity check, not a skip
    for swp in [dichotomy_sweep] + list(fractional_sweeps.values()):
        for pt in swp.points:
            if pt.result is None:
                problems.append(f"(s={pt.s}, p={pt.p}, c={pt.c}): {pt.error}")
    checked = 0
    for res in all_results:
        if res.verdict == vd.DEGENERATE:
            continue
        checked += 1
        if res.K_formula != res.K_direct:
            problems.append(f"(s={res.s}, p={res.p}, c={res.c}): "
                            f"{res.K_formula} != {res.K_direct}")
        if res.K_direct != res.k_r + res.k_c + res.k_i_minus:
            problems.append(f"(s={res.s}, p={res.p}, c={res.c}): bad sum")
    report(4, "index identity K_formula == K_direct on all cases",
           not problems and checked > 0,
           "; ".join(problems) or f"{checked} cases checked")


def test_criterion_05_sandwich_equivalences(pipeline22, pipeline25, grid40):
    V = 2.0 / np.cosh(grid40.nodes) ** 2
    cases = {
        "gkdv-p2": (pipeline22.operator, 1),
        "gkdv-p5": (pipeline25.operator, 1),
        "schrodinger": (op.schrodinger_operator(grid40, V, 0.5), 1),
    }
    problems = []
    for name, (L, expected) in cases.items():
        A = assemble(L)
        n_plain = spc.negative_count(A)
        if n_plain != expected:
            problems.append(f"{name}: n(L)={n_plain}")
        for eps in (0.0, 1e-3, 1e-2, 1e-1):
            n_sand = spc.negative_count(op.sandwich(A, eps))
            if n_sand != expected:
                problems.append(f"{name}: n(eps={eps:g})={n_sand}")
    report(5, "sandwich count equalities n(L) = n(Ls) = n(Ls_eps)",
           not problems, "; ".join(problems) or "exact for all eps")


def test_criterion_06_bbm_consistency(bbm_cases):
    problems = []
    for (s, p, c), res in bbm_cases.items():
        tag = f"({s:g},{p:g},{c:g})"
        if res.verdict != vd.STABLE:
            problems.append(f"{tag}: verdict {res.verdict}")
        if not (res.slope > 0 and res.slope_reference > 0):
            problems.append(f"{tag}: slopes {res.slope:+.3e}/"
                            f"{res.slope_reference:+.3e}")
        if res.K_formula != res.K_direct or res.K_direct != 0:
            problems.append(f"{tag}: K {res.K_formula}/{res.K_direct}")
    report(6, "BBM closed form, slope sign, and spectrum agree (all stable)",
           not problems, "; ".join(problems) or "4 cases")


def test_criterion_07_generalized_kernel(pipeline22):
    dim_regular = spc.generalized_kernel_dim(pipeline22.eigensystem)
    grid = sp.make_grid(2048, 50.0)
    q = wv.solve_ground_state(1.0, 2.0, grid,
                              wv.SolverOptions(tol=1e-11, max_iters=2000))
    L = op.linearization(q)
    # the pipeline's zero floor: a fraction of the box's first mode
    floor = spc.GKERNEL_FRACTION * spc.gkernel_floor(grid, L.multiplier_symbol)
    dim_borderline = spc.generalized_kernel_dim(
        eigensystem(assemble(L), floor))
    ok = dim_regular == 2 and dim_borderline >= 3
    report(7, "generalized kernel: 2 regular, >= 3 at the p = 2s borderline",
           ok, f"regular={dim_regular}, borderline={dim_borderline}")


def test_criterion_08_benjamin_ono(grid_s1):
    bo = wv.bo_profile(sp.make_grid(4096, 400.0), 1.0)
    norm_err = abs(wv.squared_norm(bo) - 8.0 * np.pi) / (8.0 * np.pi)
    with quiet():
        res = vd.verdict(wv.FKDV, 1.0, 1.0, 1.0)
    ok = norm_err <= 0.01 and res.verdict == vd.STABLE and res.K_direct == 0
    report(8, "Benjamin-Ono reference: 8 pi norm and stable verdict", ok,
           f"norm err {norm_err:.2e}, verdict {res.verdict}, K={res.K_direct}")


def test_criterion_09_operator_identities():
    grid = sp.make_grid(512, 60.0)
    rng = np.random.default_rng(2024)
    J = sp.hilbert_symbol(grid)
    D = sp.derivative_symbol(grid)
    absd = sp.fractional_symbol(grid, 1.0)
    worst = {"J^2": 0.0, "factorization": 0.0, "skew": 0.0, "parseval": 0.0}
    for _ in range(100):
        f = random_mean_zero(grid, rng)
        g = random_mean_zero(grid, rng)
        scale = float(np.max(np.abs(f)))
        jj = sp.apply(J, sp.apply(J, f))
        worst["J^2"] = max(worst["J^2"], float(np.max(np.abs(jj + f))) / scale)
        lhs = sp.apply(D, f)
        rhs = sp.apply(J, sp.apply(absd, f))
        worst["factorization"] = max(
            worst["factorization"],
            float(np.max(np.abs(lhs - rhs))) / float(np.max(np.abs(lhs))))
        pairing = sp.inner_product(grid, sp.antiderivative(grid, f), f)
        worst["skew"] = max(worst["skew"],
                            abs(pairing) / sp.inner_product(grid, f, f))
        pl = sp.inner_product(grid, f, g)
        pr = sp.fourier_pairing(grid, sp.transform(grid, f),
                                sp.transform(grid, g))
        worst["parseval"] = max(worst["parseval"],
                                abs(pl - pr) / max(abs(pl), 1e-300))
    ok = all(v <= 1e-10 for v in worst.values())
    report(9, "operator identities on 100 random fields", ok,
           ", ".join(f"{k}={v:.1e}" for k, v in worst.items()))


def test_criterion_10_determinism(tmp_path):
    args = ["spectrum", "--model", "fkdv", "--s", "2", "--p", "2", "--c", "1",
            "--n", "512", "--half-length", "30"]
    code1 = cli.main(args + ["--out", str(tmp_path / "a")])
    code2 = cli.main(args + ["--out", str(tmp_path / "b")])
    a = open(tmp_path / "a" / "spectrum.csv", "rb").read()
    b = open(tmp_path / "b" / "spectrum.csv", "rb").read()
    ok = code1 == 0 and code2 == 0 and a == b
    report(10, "byte-identical spectrum output on repeated runs", ok,
           f"{len(a)} bytes")
