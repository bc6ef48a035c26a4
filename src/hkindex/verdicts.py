"""Top-level stability verdicts.

One pipeline serves every row of the model table (waves.MODELS): ground-
state solve, rescale, linearize, inertia counts, constrained quantity,
direct Hamiltonian spectrum with Krein classification.  The index identity

    K_Ham = n(L) - (1 if d/dc <U_c, U_c> > 0 else 0)        (KdV)
    K_Ham = n(L0) - (1 if d/dc <(I+M) U_c, U_c> > 0 else 0) (BBM)

is then asserted against the directly counted k_r + k_c + k_i^-; a
mismatch is a hard error (the identity is a theorem, so disagreement
means the numerics are broken, not the wave).

Wave families with |slope| inside the degeneracy band (the p = 2s
borderline, where the generalized kernel grows) are reported DEGENERATE
and exempt from the identity check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import operators as op
from . import spectra as spc
from . import spectral as sp
from . import waves as wv
from .errors import ConvergenceError, TheoryConsistencyError

STABLE = "STABLE"
UNSTABLE = "UNSTABLE"
DEGENERATE = "DEGENERATE"

# |slope| <= band_rel * <U,U>/c declares the family degenerate
DEGENERACY_BAND_REL = 1e-3


def default_grid(s: float) -> tuple[int, float]:
    """Grid schedule by dispersion strength.

    Small s means slowly decaying tails *and* a sharply peaked core (the
    ground state narrows quickly as p approaches 2s), so the spacing h
    matters more than the box: h ~ 0.2 is fine at s = 2 but s < 0.7 needs
    h ~ 0.025 before the spectrum of the linearization is trustworthy.
    The s = 2 box is kept large enough that near-threshold eigenvalues
    (~5e-2 at p = 4.1) sit above the sub-resolution floor of the box.
    """
    if s >= 2.0:
        return 2048, 80.0
    if s >= 1.0:
        return 2048, 100.0
    if s >= 0.7:
        return 2048, 50.0
    return 4096, 50.0


@dataclass(frozen=True)
class NumericsConfig:
    n: int | None = None
    half_length: float | None = None
    solver_tol: float | None = None

    def grid_for(self, s: float) -> sp.SpectralGrid:
        n, l = default_grid(s)
        return sp.make_grid(self.n or n, self.half_length or l)

    def solver_options(self) -> wv.SolverOptions:
        return wv.SolverOptions(tol=self.solver_tol)


@dataclass(frozen=True)
class KreinIndexResult:
    s: float
    p: float
    c: float
    model: str
    n_L: int
    d: float                  # constrained quantity <L^-1 w, w>
    slope: float              # numerical slope (-2 d)
    slope_reference: float    # scaling-law / closed-form slope
    K_formula: int
    k_r: int
    k_c: int
    k_i_minus: int
    K_direct: int
    verdict: str
    diagnostics: tuple = ()

    @property
    def K_Ham(self) -> int:
        return self.K_direct


@dataclass(frozen=True, eq=False)
class PipelineData:
    """Intermediate objects of a verdict run, for reuse by the CLI."""
    grid: sp.SpectralGrid
    normalized: wv.WaveProfile
    wave: wv.WaveProfile
    operator: op.LinOperator
    matrix: op.DenseMatrix       # the symmetric factor fed to D (.)
    eigensystem: spc.HamiltonianEigensystem
    classification: spc.KreinClassification
    result: KreinIndexResult


def _resolve_verdict(n_L: int, slope: float, slope_ref: float, band: float,
                     cls: spc.KreinClassification, label: str,
                     check_reference_sign: bool):
    """Common index/verdict logic; returns (K_formula, verdict, notes)."""
    notes = []
    degenerate = abs(slope) <= band or abs(slope_ref) <= band
    if degenerate:
        notes.append(f"degenerate: |slope| within band {band:.2e} "
                     f"(numerical {slope:+.3e}, reference {slope_ref:+.3e})")
        return cls.k_direct, DEGENERATE, notes
    if (slope > 0) != (slope_ref > 0):
        msg = (f"slope sign unresolved for {label}: numerical {slope:+.3e} "
               f"vs reference {slope_ref:+.3e}")
        if check_reference_sign:
            raise TheoryConsistencyError(msg)
        notes.append(msg + "; reporting DEGENERATE")
        return cls.k_direct, DEGENERATE, notes
    K_formula = n_L - (1 if slope > 0 else 0)
    if K_formula != cls.k_direct:
        raise TheoryConsistencyError(
            f"index identity violated for {label}: formula gives {K_formula}, "
            f"direct count gives {cls.k_direct} "
            f"(k_r={cls.k_r}, k_c={cls.k_c}, k_i-={cls.k_i_minus})")
    if K_formula % 2 == 1 and cls.k_r < 1:
        raise TheoryConsistencyError(
            f"parity violated for {label}: odd index {K_formula} with k_r=0")
    if K_formula == 0:
        verdict = STABLE
    elif K_formula % 2 == 1 or cls.k_r + cls.k_c > 0:
        verdict = UNSTABLE
    else:
        verdict = STABLE
        notes.append("even index carried entirely by negative-signature "
                     "imaginary eigenvalues; no unstable mode detected")
    if cls.indeterminate:
        notes.append(f"{len(cls.indeterminate)} indeterminate Krein form value(s)")
    return K_formula, verdict, notes


def kdv_verdict(s: float, p: float, c: float,
                numerics: NumericsConfig | None = None,
                keep_pipeline: bool = False):
    """Full stability pipeline for the fractional KdV wave of speed c."""
    return _verdict(wv.MODELS[wv.FKDV], s, p, c, numerics, keep_pipeline)


def bbm_verdict(s: float, p: float, c: float,
                numerics: NumericsConfig | None = None,
                keep_pipeline: bool = False):
    """Full stability pipeline for the fractional BBM wave of speed c > 1."""
    return _verdict(wv.MODELS[wv.FBBM], s, p, c, numerics, keep_pipeline)


def _inertia(A: op.DenseMatrix) -> tuple:
    """(eigensystem, zero tolerance, negative count) of a symmetric matrix."""
    w, v = spc.sym_eig(A)
    zero_tol = spc.ZERO_TOL_REL * float(np.max(np.abs(w)))
    return (w, v), zero_tol, int(np.count_nonzero(w < -zero_tol))


def _reference_slope(model: wv.Model, wave, Q: wv.WaveProfile, c: float):
    """(reference slope, notes): the scaling law, or the closed form checked
    against a centered finite difference of the wave family."""
    if model.slope_reference == wv.SCALING_LAW:
        return spc.slope_analytic(Q.s, Q.p, c, wv.squared_norm(Q)), []
    dc = min(0.01, (c - model.speed_floor) / 10.0)
    slopes = spc.bbm_slope(lambda cc: wave(Q, cc), c, dc, Q)
    notes = []
    if slopes.step_warning:
        notes.append(
            f"finite-difference slope {slopes.finite_difference:+.4e} differs "
            f"from the closed form {slopes.closed_form:+.4e} by more than 5%")
    return slopes.closed_form, notes


def _verdict(model: wv.Model, s: float, p: float, c: float,
             numerics: NumericsConfig | None, keep_pipeline: bool):
    """The verdict pipeline for one row of the model table."""
    model.check_speed(c)
    cfg = numerics or NumericsConfig()
    grid = cfg.grid_for(s)
    Q = wv.solve_ground_state(s, p, grid, cfg.solver_options())
    wave = getattr(wv, f"{model.kind}_wave")
    U = wave(Q, c)
    L = getattr(op, f"{model.kind}_linearization")(U)
    A = op.assemble(L)
    eig, zero_tol, n_L = _inertia(A)
    psi0 = sp.apply_multiplier(sp.derivative_multiplier(grid), U.as_field())
    weight = np.ones(grid.n)
    if model.weighted:
        # S = W L W with W = (I+M)^(-1/2) is congruent to L, so the two
        # negative counts agree (Sylvester).  psi0 for S is W^-1 dU; its
        # antiderivative is W^-1 U, so the constrained quantity reproduces
        # -1/2 d/dc <(I+M) U_c, U_c>.
        weight = op.symmetrizing_weight(grid, s)
        del eig  # the eigenvectors of L are not needed: free them first
        A = op.congruence(A, weight, f"{model.kind}-sym")
        eig, zero_tol, n_S = _inertia(A)
        if n_S != n_L:
            raise TheoryConsistencyError(
                f"symmetrization changed the negative count: n(L0)={n_L}, "
                f"n(sym)={n_S}")
        psi0 = sp.apply_multiplier(
            sp.Multiplier(grid, 1.0 / weight, symbol_name="sqrt(I+M)"), psi0)
    d = spc.constrained_quantity(A, psi0, zero_tol=zero_tol, eig=eig)
    slope = -2.0 * d

    slope_ref, slope_notes = _reference_slope(model, wave, Q, c)
    band = DEGENERACY_BAND_REL * wv.squared_norm(U) / c

    ham = spc.hamiltonian_eigensystem(A)
    floor = spc.gkernel_floor(grid, L.multiplier_symbol * weight ** 2)
    cls = spc.classify_krein(ham, zero_floor=spc.GKERNEL_FRACTION * floor)
    K_formula, verdict, notes = _resolve_verdict(
        n_L, slope, slope_ref, band, cls, L.label,
        check_reference_sign=model.reference_sign_raises)
    notes += slope_notes
    if U.truncation_warning:
        notes.append("wave carries a truncation warning on this box")

    result = KreinIndexResult(
        s=s, p=p, c=c, model=model.name, n_L=n_L, d=d, slope=slope,
        slope_reference=slope_ref, K_formula=K_formula,
        k_r=cls.k_r, k_c=cls.k_c, k_i_minus=cls.k_i_minus,
        K_direct=cls.k_direct, verdict=verdict, diagnostics=tuple(notes))
    if keep_pipeline:
        return PipelineData(grid, Q, U, L, A, ham, cls, result)
    return result


AXIS_P, AXIS_C, AXIS_S = "p", "c", "s"


@dataclass(frozen=True)
class SweepPoint:
    s: float
    p: float
    c: float
    result: KreinIndexResult | None
    error: str = ""
    theory_violation: bool = False   # the error is a TheoryConsistencyError


@dataclass(frozen=True)
class SweepResult:
    axis: str
    points: tuple
    flip_bracket: tuple | None   # (last stable value, first unstable value)


def sweep(axis: str, start: float, stop: float, steps: int,
          s: float, p: float, c: float, model: str = wv.FKDV,
          numerics: NumericsConfig | None = None) -> SweepResult:
    """Run the verdict pipeline along one parameter axis.

    Points that fail numerically or break a theory check are recorded and
    skipped; any other exception propagates.  The flip bracket is the pair
    (last STABLE value, first UNSTABLE value) along the axis, with any
    DEGENERATE points allowed in between.
    """
    if axis not in (AXIS_P, AXIS_C, AXIS_S):
        raise ValueError(f"unknown sweep axis {axis!r}")
    if model not in wv.MODELS:
        raise ValueError(f"unknown model {model!r}")
    if steps < 1:
        values = np.array([])
    elif steps == 1:
        values = np.array([start])
    else:
        values = np.linspace(start, stop, steps)
    # looked up at call time, so a patched module attribute applies
    runner = globals()[f"{wv.MODELS[model].kind}_verdict"]
    points = []
    for value in values:
        params = {"s": s, "p": p, "c": c}
        params[axis] = float(value)
        try:
            res = runner(params["s"], params["p"], params["c"], numerics)
            points.append(SweepPoint(params["s"], params["p"], params["c"], res))
        except (ValueError, ConvergenceError, TheoryConsistencyError) as exc:
            # failures are data, the sweep continues
            points.append(SweepPoint(
                params["s"], params["p"], params["c"], None,
                error=f"{type(exc).__name__}: {exc}",
                theory_violation=isinstance(exc, TheoryConsistencyError)))
    verdicts = [pt.result.verdict if pt.result else None for pt in points]
    bracket = None
    first_unstable = next((i for i, v in enumerate(verdicts) if v == UNSTABLE), None)
    if first_unstable is not None:
        stable_before = [i for i in range(first_unstable)
                         if verdicts[i] == STABLE]
        if stable_before:
            lo = getattr(points[stable_before[-1]], axis)
            hi = getattr(points[first_unstable], axis)
            bracket = (lo, hi)
    return SweepResult(axis=axis, points=tuple(points), flip_bracket=bracket)


@dataclass(frozen=True)
class CheckEntry:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class CheckReport:
    case: str
    entries: tuple

    @property
    def passed(self) -> bool:
        return all(entry.passed for entry in self.entries)


def _nearest_relative_distance(a: np.ndarray, b: np.ndarray, cut: float) -> float:
    a = a[np.abs(a) > cut]
    b = b[np.abs(b) > cut]
    if a.size == 0 or b.size == 0:
        return math.inf
    return float(max(np.min(np.abs(b[None, :] - a[:, None]), axis=1) / np.abs(a)))


def _check_sandwich_counts(entries, L, expected):
    for eps in (0.0, 1e-3, 1e-2, 1e-1):
        count = spc.symmetric_spectrum(op.sandwich(L, eps)).negative_count
        entries.append(CheckEntry(
            f"n(sandwich eps={eps:g}) == {expected}", count == expected,
            f"count={count}"))


def _check_eps_limit(entries, L, psi0):
    values = [spc.constrained_quantity_sandwiched(L, psi0, eps)
              for eps in (1e-1, 1e-2, 1e-3)]
    signs_ok = len({v > 0 for v in values}) == 1
    shrink = abs(values[2] - values[1]) <= abs(values[1] - values[0])
    entries.append(CheckEntry(
        "eps-limit of constrained quantity: stable sign, shrinking steps",
        signs_ok and shrink,
        "values " + ", ".join(f"{v:+.5f}" for v in values)))


def _gkdv_case(p_exp: float, expected_K: int) -> CheckReport:
    import warnings as _warnings

    entries = []
    with _warnings.catch_warnings():
        _warnings.simplefilter("ignore")
        data = kdv_verdict(2.0, p_exp, 1.0, keep_pipeline=True)
        res = data.result
        entries.append(CheckEntry(
            f"K_formula == K_direct == {expected_K}",
            res.K_formula == res.K_direct == expected_K,
            f"K_formula={res.K_formula}, K_direct={res.K_direct}"))
        entries.append(CheckEntry("n(L) == 1", res.n_L == 1, f"n={res.n_L}"))
        _check_sandwich_counts(entries, data.operator, res.n_L)
        dim = spc.generalized_kernel_dim(data.operator)
        entries.append(CheckEntry("generalized kernel dim == 2", dim == 2,
                                  f"dim={dim}"))
        sand = spc.sandwich_hamiltonian_spectrum(op.sandwich(data.operator, 0.0))
        dist = _nearest_relative_distance(
            data.eigensystem.eigenvalues, sand, cut=1e-3 * data.eigensystem.scale)
        entries.append(CheckEntry(
            "sandwich eigenvalue equivalence <= 1e-6", dist <= 1e-6,
            f"max relative mismatch {dist:.2e}"))
        entries.append(CheckEntry(
            "quadruple symmetry of the Hamiltonian spectrum",
            data.eigensystem.quadruple_defect <= 1e-6,
            f"defect {data.eigensystem.quadruple_defect:.2e}"))
        psi0 = sp.apply_multiplier(
            sp.derivative_multiplier(data.grid), data.wave.as_field())
        _check_eps_limit(entries, data.operator, psi0)
        entries.append(_identity_entry(data.grid))
    return CheckReport(case=f"gkdv-p{p_exp:g}", entries=tuple(entries))


def _identity_entry(grid) -> CheckEntry:
    rng = np.random.default_rng(7)
    worst = 0.0
    J = sp.hilbert_multiplier(grid)
    D = sp.derivative_multiplier(grid)
    Ai = sp.antiderivative_multiplier(grid)
    absd = sp.fractional_derivative_multiplier(grid, 1.0)
    for _ in range(20):
        raw = rng.standard_normal(grid.n)
        coeff = np.fft.fft(raw)
        coeff[0] = 0.0
        coeff[grid.nyquist_index] = 0.0
        f = sp.RealField(grid, np.fft.ifft(coeff).real)
        scale = float(np.max(np.abs(f.values)))
        jj = sp.apply_multiplier(J, sp.apply_multiplier(J, f))
        worst = max(worst, float(np.max(np.abs(jj.values + f.values))) / scale)
        d1 = sp.apply_multiplier(D, f)
        d2 = sp.apply_multiplier(J, sp.apply_multiplier(absd, f))
        worst = max(worst, float(np.max(np.abs(d1.values - d2.values)))
                    / max(1e-300, float(np.max(np.abs(d1.values)))))
        rt = sp.apply_multiplier(D, sp.apply_multiplier(Ai, f))
        worst = max(worst, float(np.max(np.abs(rt.values - f.values))) / scale)
        g = sp.RealField(grid, np.fft.ifft(_zeroed(rng, grid)).real)
        lhs = sp.inner_product(f, g)
        rhs = sp.fourier_pairing(grid, sp.transform(f), sp.transform(g))
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1e-300))
    return CheckEntry("operator identities (J^2, J|d|, inverse pair, Parseval)",
                      worst <= 1e-10, f"worst relative defect {worst:.2e}")


def _zeroed(rng, grid):
    coeff = np.fft.fft(rng.standard_normal(grid.n))
    coeff[0] = 0.0
    coeff[grid.nyquist_index] = 0.0
    return coeff


def _schrodinger_case() -> CheckReport:
    entries = []
    grid = sp.make_grid(1024, 40.0)
    V = sp.RealField(grid, 2.0 / np.cosh(grid.nodes) ** 2)
    L = op.schrodinger_operator(V, 0.5)
    rep = spc.symmetric_spectrum(op.assemble(L))
    entries.append(CheckEntry("n(L) == 1 for -d2 + 1/2 - 2 sech^2",
                              rep.negative_count == 1,
                              f"n={rep.negative_count}"))
    lowest = float(rep.eigenvalues[0])
    entries.append(CheckEntry(
        "lowest eigenvalue at c - 1 = -0.5", abs(lowest + 0.5) <= 1e-6,
        f"lambda_min={lowest:.8f}"))
    _check_sandwich_counts(entries, L, rep.negative_count)
    return CheckReport(case="schrodinger-sech2", entries=tuple(entries))


def _bo_case() -> CheckReport:
    import warnings as _warnings

    entries = []
    with _warnings.catch_warnings():
        _warnings.simplefilter("ignore")
        data = kdv_verdict(1.0, 1.0, 1.0, keep_pipeline=True)
        res = data.result
        entries.append(CheckEntry(
            "kdv_verdict(1,1,1): STABLE with K_Ham == 0",
            res.verdict == STABLE and res.K_direct == 0,
            f"verdict={res.verdict}, K={res.K_direct}"))
        dim = spc.generalized_kernel_dim(data.operator)
        entries.append(CheckEntry("generalized kernel dim == 2", dim == 2,
                                  f"dim={dim}"))
        grid = data.grid
        bo = wv.bo_profile(grid, 1.0)
        entries.append(CheckEntry(
            "bo profile peak == 4c", abs(bo.peak - 4.0) <= 1e-12,
            f"peak={bo.peak}"))
        # the closed-form family is exactly twice the solver's (s=1, p=1) wave
        doubled = 2.0 * data.wave.values
        mismatch = float(np.max(np.abs(bo.values - doubled))) / bo.peak
        entries.append(CheckEntry(
            "bo profile == 2x solver wave (relative sup)",
            mismatch <= 1e-3, f"mismatch={mismatch:.2e}"))
        dc = 1e-3
        slope_fd = (wv.squared_norm(wv.bo_profile(grid, 1.0 + dc))
                    - wv.squared_norm(wv.bo_profile(grid, 1.0 - dc))) / (2 * dc)
        entries.append(CheckEntry(
            "closed-form family slope d/dc <U,U> near 8 pi",
            abs(slope_fd - 8.0 * np.pi) <= 0.02 * 8.0 * np.pi,
            f"slope={slope_fd:.5f}, 8 pi={8 * np.pi:.5f}"))
    return CheckReport(case="bo", entries=tuple(entries))


SELF_CHECK_CASES = ("gkdv-p2", "gkdv-p5", "schrodinger-sech2", "bo")


def self_check(case: str) -> CheckReport:
    """Packaged theory-consistency assertions for a named test case."""
    if case == "gkdv-p2":
        return _gkdv_case(2.0, expected_K=0)
    if case == "gkdv-p5":
        return _gkdv_case(5.0, expected_K=1)
    if case == "schrodinger-sech2":
        return _schrodinger_case()
    if case == "bo":
        return _bo_case()
    raise KeyError(f"unknown self-check case {case!r}; "
                   f"known cases: {', '.join(SELF_CHECK_CASES)}")
