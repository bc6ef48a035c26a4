"""Top-level stability verdicts.

One pipeline serves every row of the model table (waves.MODELS): ground-
state solve, wave solve at speed c, linearize, inertia counts, constrained
quantity, direct Hamiltonian spectrum.  The index identity

    K_Ham = n(L) - (1 if d/dc <U_c, U_c> > 0 else 0)        (KdV)
    K_Ham = n(L0) - (1 if d/dc <(I+M) U_c, U_c> > 0 else 0) (BBM)

is then asserted against the directly counted k_r + k_c + k_i^-; a
mismatch is a hard error (the identity is a theorem, so disagreement
means the numerics are broken, not the wave).  k_c, the count of complex
eigenvalues, is 0: the spectrum comes from lambda^2 = -nu with nu real.
Every imaginary eigenvalue has the Krein form 2 nu > 0, so k_i^- is 0
and k_r is the number of nu < -zero_floor^2.  Every verdict and
self-check reads its operator through the one blocks type,
operators.OperatorBlocks: each block is assembled where it is read and
factored in its own memory; the even counts come from the wave's core
where that settles them
(cores.core_count), and a count of 0 saves the second factor of a
count.  Runs differ only in the source of k_r.  A counting verdict
(index, sweep) of an unweighted row first tries the wave's round-off
core (cores.core_counts): n(L), d and k_r come from certified
matrices of order at most m_e + m_o + 2 there (505, against n/2 + 1 =
1025, at fkdv (2, 2, 1) on the default grid).  It assembles no block,
only each block's span, 64 rows at a time, and holds no matrix of order
n/2: on the s = 2 benchmark items its traced peak, the wave solve's
included, is 0.21 of one even block at p = 5 and 0.64 at p = 2.  Where a
certificate fails, and for the weighted row, the dense route runs from
the start: it takes k_r by inertia, from LDL^T factors of T
(spectra.real_pair_count), and the eigenvalues only where a nu lies near
-zero_floor^2, so it holds at most two matrices of order about n/2 at
once: the odd block and the work array of its shifted factor, then its
Cholesky factor and the even block's LDL^T factor, then the Cholesky
factor and T, and last T and T's factor.  A run that keeps its pipeline
(spectrum, self-check) counts the real columns of the eigenvectors that
the Krein classes are read from, and holds A_cos and A_sin for them
beside the Cholesky factor, T and its eigenvectors; a negative signature
is a theory-consistency failure.

Wave families with |slope| inside the degeneracy band (the p = 2s
borderline, where the generalized kernel grows) are reported DEGENERATE
and exempt from the identity check.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import cores
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

# the diagnostic of a wave whose tails do not fit the box
TRUNCATION_NOTE = "wave carries a truncation warning on this box"


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
        return sp.make_grid(n if self.n is None else self.n,
                            l if self.half_length is None else self.half_length)

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


@dataclass(frozen=True, eq=False)
class PipelineData:
    """Intermediate objects of a verdict run, for reuse by the CLI."""
    grid: sp.SpectralGrid
    wave: wv.WaveProfile
    operator: op.LinOperator
    matrix: op.OperatorBlocks    # the symmetric factor fed to D (.)
    eigensystem: spc.HamiltonianEigensystem
    classification: spc.KreinClassification
    result: KreinIndexResult


def _resolve_verdict(n_L: int, slope: float, slope_ref: float, band: float,
                     k_r: int, label: str, check_reference_sign: bool):
    """Common index/verdict logic for the direct count K_Ham = k_r (k_c and
    k_i^- are 0); returns (K_formula, verdict, notes).  The identity check
    K_formula == k_r is also the parity check: an odd index with k_r = 0
    fails it."""
    notes = []
    degenerate = abs(slope) <= band or abs(slope_ref) <= band
    if degenerate:
        notes.append(f"degenerate: |slope| within band {band:.2e} "
                     f"(numerical {slope:+.3e}, reference {slope_ref:+.3e})")
        return k_r, DEGENERATE, notes
    if (slope > 0) != (slope_ref > 0):
        msg = (f"slope sign unresolved for {label}: numerical {slope:+.3e} "
               f"vs reference {slope_ref:+.3e}")
        if check_reference_sign:
            raise TheoryConsistencyError(msg)
        notes.append(msg + "; reporting DEGENERATE")
        return k_r, DEGENERATE, notes
    K_formula = n_L - (1 if slope > 0 else 0)
    if K_formula != k_r:
        raise TheoryConsistencyError(
            f"index identity violated for {label}: formula gives {K_formula}, "
            f"direct count k_r gives {k_r}")
    return K_formula, UNSTABLE if K_formula > 0 else STABLE, notes


def _reference_slope(model: wv.Model, Q: wv.WaveProfile, c: float,
                     opts: wv.SolverOptions):
    """(reference slope, notes): the scaling law, or for a weighted row the
    closed form checked against a centered finite difference of the wave
    family."""
    if not model.weighted:
        return spc.slope_analytic(Q.s, Q.p, c, wv.squared_norm(Q)), []
    dc = min(0.01, (c - model.speed_floor) / 10.0)
    slopes = spc.bbm_slope(lambda cc: wv.solve_traveling_wave(
        model.name, Q.s, Q.p, cc, Q.grid, opts), c, dc, Q)
    notes = []
    if slopes.step_warning:
        notes.append(
            f"finite-difference slope {slopes.finite_difference:+.4e} differs "
            f"from the closed form {slopes.closed_form:+.4e} by more than 5%")
    return slopes.closed_form, notes


def verdict(model: str, s: float, p: float, c: float,
            numerics: NumericsConfig | None = None,
            keep_pipeline: bool = False):
    """Full stability pipeline for the wave of speed c of the named row of
    the model table."""
    row = wv.MODELS[model]
    row.check_speed(c)
    cfg = numerics or NumericsConfig()
    grid = cfg.grid_for(s)
    opts = cfg.solver_options()
    Q = wv.solve_ground_state(s, p, grid, opts)
    # Q is the fKdV wave of speed 1
    U = Q if (row.name, c) == (Q.model, Q.c) else wv.solve_traveling_wave(
        row.name, s, p, c, grid, opts)
    L = op.linearization(U)
    A = op.operator_blocks(L)
    psi0 = sp.apply(sp.derivative_symbol(grid), U.values)
    weight = np.ones(grid.n)
    if row.weighted:
        # S = W L W with W = (I+M)^(-1/2) is congruent to L, so the two
        # negative counts agree (Sylvester).  psi0 for S is W^-1 dU; its
        # antiderivative is W^-1 U, so the constrained quantity reproduces
        # -1/2 d/dc <(I+M) U_c, U_c>.  (u/r)^T S (u/r) = u^T L u
        n_L = spc.negative_count(A)
        weight = op.symmetrizing_weight(grid, s)
        A = op.congruence(A, weight, "bbm-sym")
        psi0 = sp.apply(1.0 / weight, psi0)
    floor = spc.GKERNEL_FRACTION * spc.gkernel_floor(
        grid, L.multiplier_symbol * weight ** 2)
    # a counting verdict of an unweighted row takes n_L, d and k_r from the
    # wave's core where that certifies them
    core = None if keep_pipeline or row.weighted else cores.core_counts(
        A, psi0, floor)
    if core is None:
        eig = spc.symmetric_spectrum(A)
        if not row.weighted:
            n_L = eig.negative_count
        elif eig.negative_count != n_L:
            raise TheoryConsistencyError(
                f"symmetrization changed the negative count: n(L0)={n_L}, "
                f"n(sym)={eig.negative_count}")
        d = spc.constrained_quantity(A, psi0, eig)
        # the even block has made its one solve: free its factor before T
        # is formed, where the memory peaks
        eig = replace(eig, factor=None)
    else:
        n_L, d, k_r = core
    slope = -2.0 * d

    slope_ref, slope_notes = _reference_slope(row, Q, c, opts)
    band = DEGENERACY_BAND_REL * wv.squared_norm(U) / c

    # x = R z with |z| = 1 gives x^T A_cos x = nu and u^T A_sin u = 1, so
    # the Krein form of lambda = i sqrt(nu) is nu + |lambda|^2 = 2 nu > 0:
    # k_i^- = 0, and the direct count is the number of real columns
    if keep_pipeline:
        ham = spc.hamiltonian_eigensystem(A, eig, zero_floor=floor)
        k_r = int(np.count_nonzero(ham.split()[0]))
    elif core is None:
        # T is formed in a new A_cos from the odd block's Cholesky factor,
        # which is freed before T is factored
        t_mat = spc.t_matrix(A, eig)
        del eig
        k_r = spc.real_pair_count(t_mat, floor, A.label)
    K_formula, decision, notes = _resolve_verdict(
        n_L, slope, slope_ref, band, k_r, L.label,
        check_reference_sign=row.weighted)
    if keep_pipeline:
        cls = spc.classify_krein(ham)
        if cls.k_i_minus != 0:
            raise TheoryConsistencyError(
                f"Krein classes of {L.label} give k_i-={cls.k_i_minus}; "
                f"the counts give k_i-=0")
        if cls.indeterminate:
            notes.append(f"{len(cls.indeterminate)} indeterminate Krein "
                         f"form value(s)")
    notes += slope_notes
    if U.truncation_warning:
        notes.append(TRUNCATION_NOTE)

    result = KreinIndexResult(
        s=s, p=p, c=c, model=row.name, n_L=n_L, d=d, slope=slope,
        slope_reference=slope_ref, K_formula=K_formula,
        # lambda^2 = -nu with nu real: no lambda is complex
        k_r=k_r, k_c=0, k_i_minus=0, K_direct=k_r, verdict=decision,
        diagnostics=tuple(notes))
    if keep_pipeline:
        return PipelineData(grid, U, L, A, ham, cls, result)
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
    # the first change between STABLE and UNSTABLE along the axis, with
    # DEGENERATE and failed points allowed between: (value before, value
    # after) in axis order, and the verdicts at those values
    flip_bracket: tuple | None
    flip_verdicts: tuple | None


def sweep(axis: str, start: float, stop: float, steps: int,
          s: float, p: float, c: float, model: str = wv.FKDV,
          numerics: NumericsConfig | None = None) -> SweepResult:
    """Run the verdict pipeline along one parameter axis.

    Points that fail numerically or break a theory check are recorded and
    skipped; any other exception propagates.  The flip bracket is the
    first change between STABLE and UNSTABLE along the axis, either way.
    Fewer than one step is an error.
    """
    if axis not in (AXIS_P, AXIS_C, AXIS_S):
        raise ValueError(f"unknown sweep axis {axis!r}")
    if model not in wv.MODELS:
        raise ValueError(f"unknown model {model!r}")
    if steps < 1:
        raise ValueError(f"a sweep needs at least 1 step, got {steps}")
    values = np.linspace(start, stop, steps)
    points = []
    for value in values:
        params = {"s": s, "p": p, "c": c}
        params[axis] = float(value)
        try:
            res = verdict(model, params["s"], params["p"], params["c"],
                          numerics)
            points.append(SweepPoint(params["s"], params["p"], params["c"], res))
        except (ValueError, ConvergenceError, TheoryConsistencyError) as exc:
            # failures are data, the sweep continues
            points.append(SweepPoint(
                params["s"], params["p"], params["c"], None,
                error=f"{type(exc).__name__}: {exc}",
                theory_violation=isinstance(exc, TheoryConsistencyError)))
    decided = [pt for pt in points
               if pt.result and pt.result.verdict in (STABLE, UNSTABLE)]
    flip = next(((a, b) for a, b in zip(decided, decided[1:])
                 if a.result.verdict != b.result.verdict), None)
    return SweepResult(
        axis=axis, points=tuple(points),
        flip_bracket=flip and tuple(getattr(pt, axis) for pt in flip),
        flip_verdicts=flip and tuple(pt.result.verdict for pt in flip))


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


SANDWICH_EPS = (0.0, 1e-3, 1e-2, 1e-1)


def _count_entry(eps: float, count: int, expected: int) -> CheckEntry:
    return CheckEntry(f"n(sandwich eps={eps:g}) == {expected}",
                      count == expected, f"count={count}")


def _gkdv_case(p_exp: float, expected_K: int) -> CheckReport:
    entries = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        data = verdict(wv.FKDV, 2.0, p_exp, 1.0, keep_pipeline=True)
        res = data.result
        entries.append(CheckEntry(
            f"K_formula == K_direct == {expected_K}",
            res.K_formula == res.K_direct == expected_K,
            f"K_formula={res.K_formula}, K_direct={res.K_direct}"))
        entries.append(CheckEntry("n(L) == 1", res.n_L == 1, f"n={res.n_L}"))
        psi0 = sp.apply(sp.derivative_symbol(data.grid), data.wave.values)
        # data.matrix is L itself (fKdV); each sandwich serves two checks
        values = {}
        for eps in SANDWICH_EPS:
            S = op.sandwich(data.matrix, eps)
            eig = spc.symmetric_spectrum(S)
            entries.append(_count_entry(eps, eig.negative_count, res.n_L))
            if eps == 0.0:
                # J S: the solve of D A with unit weights
                sand = spc.hamiltonian_eigensystem(
                    S, eig, data.eigensystem.zero_floor,
                    np.ones(data.grid.n // 2 - 1), vectors=False).eigenvalues
            else:
                values[eps] = spc.constrained_quantity_sandwiched(
                    data.matrix, psi0, eps, eig)
        dim = spc.generalized_kernel_dim(data.eigensystem)
        entries.append(CheckEntry("generalized kernel dim == 2", dim == 2,
                                  f"dim={dim}"))
        dist = _nearest_relative_distance(
            data.eigensystem.eigenvalues, sand, cut=1e-3 * data.eigensystem.scale)
        entries.append(CheckEntry(
            "sandwich eigenvalue equivalence <= 1e-6", dist <= 1e-6,
            f"max relative mismatch {dist:.2e}"))
        residual = spc.eigenpair_residual(data.eigensystem)
        entries.append(CheckEntry(
            "Hamiltonian eigenpair residual <= 1e-6", residual <= 1e-6,
            f"max ||D A v - lambda v|| / (scale ||v||) {residual:.2e}"))
        q = [values[eps] for eps in (1e-1, 1e-2, 1e-3)]
        entries.append(CheckEntry(
            "eps-limit of constrained quantity: stable sign, shrinking steps",
            len({v > 0 for v in q}) == 1 and abs(q[2] - q[1]) <= abs(q[1] - q[0]),
            "values " + ", ".join(f"{v:+.5f}" for v in q)))
        entries.append(_identity_entry(data.grid))
    return CheckReport(case=f"gkdv-p{p_exp:g}", entries=tuple(entries))


def _identity_entry(grid) -> CheckEntry:
    rng = np.random.default_rng(7)
    worst = 0.0
    J = sp.hilbert_symbol(grid)
    D = sp.derivative_symbol(grid)
    absd = sp.fractional_symbol(grid, 1.0)
    for _ in range(20):
        f = _mean_zero_field(rng, grid)
        scale = float(np.max(np.abs(f)))
        jj = sp.apply(J, sp.apply(J, f))
        worst = max(worst, float(np.max(np.abs(jj + f))) / scale)
        d1 = sp.apply(D, f)
        d2 = sp.apply(J, sp.apply(absd, f))
        worst = max(worst, float(np.max(np.abs(d1 - d2)))
                    / max(1e-300, float(np.max(np.abs(d1)))))
        rt = sp.apply(D, sp.antiderivative(grid, f))
        worst = max(worst, float(np.max(np.abs(rt - f))) / scale)
        g = _mean_zero_field(rng, grid)
        lhs = sp.inner_product(grid, f, g)
        rhs = sp.fourier_pairing(grid, sp.transform(grid, f),
                                 sp.transform(grid, g))
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1e-300))
    return CheckEntry("operator identities (J^2, J|d|, inverse pair, Parseval)",
                      worst <= 1e-10, f"worst relative defect {worst:.2e}")


def _mean_zero_field(rng, grid) -> np.ndarray:
    """A random field with no mean and no Nyquist content."""
    coeff = np.fft.fft(rng.standard_normal(grid.n))
    coeff[0] = 0.0
    coeff[grid.nyquist_index] = 0.0
    return np.fft.ifft(coeff).real


def _schrodinger_case() -> CheckReport:
    entries = []
    grid = sp.make_grid(1024, 40.0)
    V = 2.0 / np.cosh(grid.nodes) ** 2
    A = op.operator_blocks(op.schrodinger_operator(grid, V, 0.5))
    n_L = spc.negative_count(A)
    entries.append(CheckEntry("n(L) == 1 for -d2 + 1/2 - 2 sech^2",
                              n_L == 1, f"n={n_L}"))
    # the ground state sech is even: one values-only solve of the even block
    lowest = float(spc.sym_eig(A.block(0), vectors=False)[0][0])
    entries.append(CheckEntry(
        "lowest eigenvalue at c - 1 = -0.5", abs(lowest + 0.5) <= 1e-6,
        f"lambda_min={lowest:.8f}"))
    for eps in SANDWICH_EPS:
        entries.append(_count_entry(
            eps, spc.negative_count(op.sandwich(A, eps)), n_L))
    return CheckReport(case="schrodinger-sech2", entries=tuple(entries))


def _bo_case() -> CheckReport:
    entries = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        data = verdict(wv.FKDV, 1.0, 1.0, 1.0, keep_pipeline=True)
        res = data.result
        entries.append(CheckEntry(
            "fkdv verdict(1,1,1): STABLE with K_Ham == 0",
            res.verdict == STABLE and res.K_direct == 0,
            f"verdict={res.verdict}, K={res.K_direct}"))
        dim = spc.generalized_kernel_dim(data.eigensystem)
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


SELF_CHECK_CASES = {
    "gkdv-p2": lambda: _gkdv_case(2.0, expected_K=0),
    "gkdv-p5": lambda: _gkdv_case(5.0, expected_K=1),
    "schrodinger-sech2": _schrodinger_case,
    "bo": _bo_case,
}


def self_check(case: str) -> CheckReport:
    """Packaged theory-consistency assertions for a named test case."""
    if case not in SELF_CHECK_CASES:
        raise KeyError(f"unknown self-check case {case!r}; "
                       f"known cases: {', '.join(SELF_CHECK_CASES)}")
    return SELF_CHECK_CASES[case]()
