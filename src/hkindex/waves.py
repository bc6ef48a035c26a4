"""Solitary-wave profiles and the model table.

The normalized ground state Q solves |d|^s Q + Q - Q^(p+1) = 0 and is
computed by Petviashvili iteration.  A traveling wave of speed c solves

    a(c) |d|^s U + b(c) U - U^(p+1) = 0,   (a, b) = (1, c) for fKdV,
                                           (a, b) = (c, c-1) for fBBM,

and is obtained from Q by the exact rescaling U_c(x) = b^(1/p) Q((b/a)^(1/s) x),
evaluated by spectral interpolation.  Closed-form references: the gKdV
(s = 2) soliton family and the Benjamin-Ono Lorentzian.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import ConvergenceError, ModelMismatchError
from .spectral import (RealField, SpectralGrid, apply_multiplier,
                       fractional_derivative_multiplier, fractional_symbol,
                       inner_product)

FKDV = "fkdv"
FBBM = "fbbm"
NORMALIZED = "normalized"

# slope references of the index formula
SCALING_LAW = "scaling-law"    # spectra.slope_analytic
CLOSED_FORM = "closed-form"    # spectra.bbm_slope


@dataclass(frozen=True)
class Model:
    """One row of the model table: everything model-specific in a verdict.

    kind names the public functions that serve the model,
    waves.<kind>_wave, operators.<kind>_linearization and
    verdicts.<kind>_verdict.  Callers look them up by name when they run,
    so wrappers or patches installed on those module attributes apply.
    """

    name: str
    kind: str
    coefficients: Callable[[float], tuple]  # c -> (a(c), b(c))
    speed_floor: float           # waves exist for c > speed_floor
    default_speed: float
    weighted: bool               # (I+M)^-1 J L becomes J (W L W), W = (I+M)^(-1/2)
    slope_reference: str         # SCALING_LAW or CLOSED_FORM
    reference_sign_raises: bool  # a slope-sign clash with the reference raises

    def check_speed(self, c: float) -> None:
        if not c > self.speed_floor:
            raise ValueError(
                f"{self.name} waves need c > {self.speed_floor:g}, got {c}")


MODELS = {
    FKDV: Model(FKDV, "kdv", lambda c: (1.0, c), speed_floor=0.0,
                default_speed=1.0, weighted=False, slope_reference=SCALING_LAW,
                reference_sign_raises=False),
    FBBM: Model(FBBM, "bbm", lambda c: (c, c - 1.0), speed_floor=1.0,
                default_speed=2.0, weighted=True, slope_reference=CLOSED_FORM,
                reference_sign_raises=True),
}

# boundary_value / peak above this taints the profile with a truncation flag
DECAY_RATIO_LIMIT = 1e-3

# fraction of the domain (from each edge) inspected for the boundary value
BOUNDARY_FRACTION = 0.05


def p_max(s: float) -> float:
    """Upper end of the nonlinearity window for ground states: 2s/(1-s)
    below s = 1, unbounded for 1 <= s <= 2."""
    if s < 1.0:
        return 2.0 * s / (1.0 - s)
    return math.inf


def default_tol(s: float) -> float:
    return 1e-10 if s == 2.0 else 1e-8


# width of the Gaussian that seeds the Petviashvili iteration
SEED_WIDTH = 2.0


@dataclass(frozen=True)
class SolverOptions:
    max_iters: int = 500
    tol: float | None = None       # residual sup-norm target; None = per-s default
    gamma: float | None = None     # stabilizing exponent; None = (p+1)/p

    def resolve(self, s: float, p: float) -> "SolverOptions":
        tol = self.tol if self.tol is not None else default_tol(s)
        gamma = self.gamma if self.gamma is not None else (p + 1.0) / p
        if not tol > 0:
            raise ValueError("tol must be positive")
        if not 1.0 < gamma < 3.0:
            raise ValueError(f"stabilizing exponent must be in (1, 3), got {gamma}")
        return SolverOptions(self.max_iters, tol, gamma)


@dataclass(frozen=True, eq=False)
class WaveProfile:
    grid: SpectralGrid
    values: np.ndarray
    s: float
    p: float
    c: float
    model: str
    residual_norm: float
    boundary_value: float
    residual_tol: float
    truncation_warning: bool = False
    notes: tuple = ()

    @property
    def peak(self) -> float:
        return float(np.max(self.values))

    def as_field(self) -> RealField:
        return RealField(self.grid, self.values)

    def metadata(self) -> dict:
        return {
            "s": self.s, "p": self.p, "c": self.c, "model": self.model,
            "residual_norm": self.residual_norm,
            "boundary_value": self.boundary_value,
            "residual_tol": self.residual_tol,
            "truncation_warning": self.truncation_warning,
            "grid": {"n": self.grid.n, "half_length": self.grid.half_length},
            "notes": list(self.notes),
        }


def clamped_power(values: np.ndarray, exponent: float, peak: float) -> np.ndarray:
    """values**exponent, safe for non-integer exponents.

    Ground states are positive; entries below 1e-14*peak (round-off tails,
    possibly negative) are clamped to that floor before exponentiation.
    """
    if float(exponent).is_integer():
        return values ** exponent
    floor = 1e-14 * max(peak, 1e-300)
    return np.exp(exponent * np.log(np.maximum(values, floor)))


def _power_with_clamp_note(values: np.ndarray, exponent: float) -> tuple[np.ndarray, bool]:
    peak = float(np.max(np.abs(values)))
    out = clamped_power(values, exponent, peak)
    if float(exponent).is_integer():
        return out, False
    floor = 1e-14 * max(peak, 1e-300)
    clamped_mass = float(np.sum(np.abs(values[values < floor])))
    total_mass = float(np.sum(np.abs(values)))
    return out, clamped_mass > 1e-10 * max(total_mass, 1e-300)


def _boundary_value(grid: SpectralGrid, values: np.ndarray) -> float:
    outer = np.abs(grid.nodes) >= (1.0 - BOUNDARY_FRACTION) * grid.half_length
    return float(np.max(np.abs(values[outer])))


def _evenness_defect(values: np.ndarray) -> float:
    reflected = np.roll(values[::-1], 1)  # x -> -x on the periodic grid
    scale = float(np.max(np.abs(values)))
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(values - reflected))) / scale


def _residual(grid: SpectralGrid, values: np.ndarray, s: float, p: float,
              a: float, b: float) -> np.ndarray:
    """a |d|^s U + b U - U^(p+1) at the samples U = values."""
    m = fractional_derivative_multiplier(grid, s)
    disp = apply_multiplier(m, RealField(grid, values)).values
    return a * disp + b * values - clamped_power(
        values, p + 1.0, float(np.max(np.abs(values))))


def _finalize(grid, values, s, p, c, model, residual, tol, notes=()) -> WaveProfile:
    res_norm = float(np.max(np.abs(residual)))
    bval = _boundary_value(grid, values)
    peak = float(np.max(values))
    warn = peak > 0 and bval / peak > DECAY_RATIO_LIMIT
    if warn:
        notes = notes + ("truncation: boundary_value/peak exceeds 1e-3",)
    return WaveProfile(grid=grid, values=values, s=s, p=p, c=c, model=model,
                       residual_norm=res_norm, boundary_value=bval,
                       residual_tol=tol, truncation_warning=warn, notes=notes)


def _petviashvili(s: float, p: float, speed: float, grid: SpectralGrid,
                  opts: SolverOptions) -> tuple[np.ndarray, float, float, tuple]:
    """Fixed-point iteration for |d|^s U + speed*U - U^(p+1) = 0.

    U_{k+1} = S_k^gamma (|d|^s + speed)^{-1} U_k^{p+1} with the stabilizing
    factor S_k = <(|d|^s + speed) U_k, U_k> / <U_k^{p+1}, U_k>; the peak is
    recentered to x = 0 after every step.
    """
    denom = fractional_symbol(grid, s) + speed
    u = np.exp(-((grid.nodes / SEED_WIDTH) ** 2))
    notes: tuple = ()
    last_res = math.inf
    factor = math.nan
    for _ in range(opts.max_iters):
        nonlin, clamped = _power_with_clamp_note(u, p + 1.0)
        if clamped and "clamp: negative tail mass exceeded 1e-10" not in notes:
            notes = notes + ("clamp: negative tail mass exceeded 1e-10",)
        u_hat = np.fft.fft(u)
        lin_inner = grid.spacing * float(np.real(np.vdot(u_hat, denom * u_hat))) / grid.n
        rhs_inner = grid.spacing * float(np.dot(nonlin, u))
        if rhs_inner <= 0:
            raise ConvergenceError("Petviashvili factor lost positivity",
                                   last_residual=last_res)
        factor = lin_inner / rhs_inner
        u = factor ** opts.gamma * np.fft.ifft(np.fft.fft(nonlin) / denom).real
        u = np.roll(u, grid.n // 2 - int(np.argmax(u)))
        residual = _residual(grid, u, s, p, 1.0, speed)
        last_res = float(np.max(np.abs(residual)))
        if last_res <= opts.tol:
            return u, last_res, factor, notes
    raise ConvergenceError(
        f"Petviashvili did not reach tol={opts.tol:g} in {opts.max_iters} "
        f"iterations (last residual {last_res:.3e})",
        last_residual=last_res, iterations=opts.max_iters)


def solve_ground_state(s: float, p: float, grid: SpectralGrid,
                       opts: SolverOptions | None = None) -> WaveProfile:
    """Ground state Q of |d|^s Q + Q - Q^(p+1) = 0, centered at x = 0.

    Requires 0 < s <= 2 and 0 < p < p_max(s).
    """
    _check_exponents(s, p)
    opts = (opts or SolverOptions()).resolve(s, p)
    values, res, factor, notes = _petviashvili(s, p, 1.0, grid, opts)
    _check_shape_invariants(values, factor)
    residual = _residual(grid, values, s, p, 1.0, 1.0)
    return _finalize(grid, values, s, p, 1.0, NORMALIZED, residual, opts.tol, notes)


def solve_traveling_wave(s: float, p: float, c: float, grid: SpectralGrid,
                         opts: SolverOptions | None = None) -> WaveProfile:
    """Direct solve of |d|^s U + c U - U^(p+1) = 0 at speed c > 0."""
    _check_exponents(s, p)
    MODELS[FKDV].check_speed(c)
    opts = (opts or SolverOptions()).resolve(s, p)
    values, res, factor, notes = _petviashvili(s, p, c, grid, opts)
    _check_shape_invariants(values, factor)
    residual = _residual(grid, values, s, p, 1.0, c)
    return _finalize(grid, values, s, p, c, FKDV, residual, opts.tol, notes)


def _check_exponents(s: float, p: float) -> None:
    if not 0.0 < s <= 2.0:
        raise ValueError(f"dispersion exponent must lie in (0, 2], got {s}")
    if not p > 0:
        raise ValueError(f"nonlinearity exponent must be positive, got {p}")
    if p >= p_max(s):
        raise ValueError(
            f"no ground state: p={p:g} is outside (0, p_max={p_max(s):g}) at s={s:g}")


def _check_shape_invariants(values: np.ndarray, factor: float) -> None:
    peak = float(np.max(values))
    if float(np.min(values)) < -1e-8 * peak:
        raise ConvergenceError("converged profile has a negative lobe")
    if _evenness_defect(values) > 1e-8:
        raise ConvergenceError("converged profile is not even about its peak")
    if abs(factor - 1.0) > 1e-6:
        raise ConvergenceError(
            f"stabilizing factor {factor} did not settle at 1")


def resample(f: RealField, targets: np.ndarray) -> np.ndarray:
    """Evaluate the trigonometric interpolant of f at arbitrary points.

    The interpolant is 2l-periodic, so arguments outside [-l, l) wrap.
    """
    grid = f.grid
    coeff = np.fft.fft(f.values)
    xi = grid.wavenumbers
    out = np.empty(len(targets))
    shifted = np.asarray(targets, dtype=float) + grid.half_length
    block = max(1, (1 << 22) // grid.n)  # cap the phase matrix at ~64 MB
    for start in range(0, len(targets), block):
        sl = slice(start, start + block)
        phases = np.exp(2j * np.pi * np.outer(shifted[sl], xi))
        out[sl] = (phases @ coeff).real / grid.n
    return out


def _stretched_samples(Q: WaveProfile, stretch: float) -> np.ndarray:
    """Q(stretch * x) on the grid.  Inside the box this is the trig
    interpolant; beyond it the periodic alias would fold the peak back in
    (exactly so when stretch*l is a multiple of 2l), so the samples
    continue along the algebraic tail law Q ~ |x|^-(1+s) instead."""
    grid = Q.grid
    y = stretch * grid.nodes
    inside = np.abs(y) < grid.half_length
    values = np.empty(grid.n)
    values[inside] = resample(Q.as_field(), y[inside])
    if not np.all(inside):
        edge = float(Q.values[0])  # sample at x = -l
        decay = (grid.half_length / np.abs(y[~inside])) ** (Q.s + 1.0)
        values[~inside] = edge * decay
    return values


def kdv_wave(Q: WaveProfile, c: float) -> WaveProfile:
    """Rescale the normalized ground state to the fKdV wave of speed c > 0."""
    return _rescale(MODELS[FKDV], Q, c)


def bbm_wave(Q: WaveProfile, c: float) -> WaveProfile:
    """Rescale the normalized ground state to the fBBM wave of speed c > 1."""
    return _rescale(MODELS[FBBM], Q, c)


def _rescale(model: Model, Q: WaveProfile, c: float) -> WaveProfile:
    """U_c(x) = b^(1/p) Q((b/a)^(1/s) x) with (a, b) = model.coefficients(c)."""
    if Q.model != NORMALIZED:
        raise ModelMismatchError(
            f"{model.kind}_wave expects the normalized ground state")
    model.check_speed(c)
    grid, s, p = Q.grid, Q.s, Q.p
    a, b = model.coefficients(c)
    if a == 1.0 and b == 1.0:
        values = Q.values.copy()
    else:
        values = b ** (1.0 / p) * _stretched_samples(Q, (b / a) ** (1.0 / s))
    residual = _residual(grid, values, s, p, a, b)
    profile = _finalize(grid, values, s, p, c, model.name, residual,
                        Q.residual_tol, Q.notes)
    return _enforce_scaled_residual(profile)


def _enforce_scaled_residual(profile: WaveProfile) -> WaveProfile:
    # A rescaled wave inherits the solver residual, amplified by c-powers
    # and by seam effects from the algebraic tails; flag rather than fail
    # when the bound is only lost through truncation.
    bound = 10.0 * profile.residual_tol
    if profile.residual_norm <= bound:
        return profile
    tail_floor = 10.0 * profile.boundary_value * max(profile.c, 1.0)
    if profile.residual_norm <= max(bound, tail_floor):
        return replace(profile, truncation_warning=True,
                       notes=profile.notes + ("truncation: rescaled residual above 10x tol",))
    raise ConvergenceError(
        f"rescaled profile residual {profile.residual_norm:.3e} exceeds both "
        f"10x solver tol and the truncation floor")


def bo_profile(grid: SpectralGrid, c: float) -> WaveProfile:
    """Benjamin-Ono Lorentzian 4c/(1 + c^2 x^2) sampled exactly.

    Peak 4c, half-peak at x = 1/c, squared L2 norm 8*pi*c on the line.
    This closed form solves |d|U + cU - U^2/2 = 0 (the classical u*u_x
    normalization); the residual is measured in that equation and is
    grid-size dependent because of the algebraic tails.  The s=1, p=1
    ground-state family of this toolkit is exactly half this profile.
    """
    if not c > 0:
        raise ValueError(f"wave speed must be positive, got {c}")
    x = grid.nodes
    values = 4.0 * c / (1.0 + (c * x) ** 2)
    m = fractional_derivative_multiplier(grid, 1.0)
    disp = apply_multiplier(m, RealField(grid, values)).values
    residual = disp + c * values - 0.5 * values ** 2
    res_norm = float(np.max(np.abs(residual)))
    return _finalize(grid, values, 1.0, 1.0, c, FKDV, residual,
                     tol=max(res_norm, 1e-14),
                     notes=("closed form: half-nonlinearity normalization",))


def sech_profile(grid: SpectralGrid, p: float, c: float) -> WaveProfile:
    """Classical gKdV (s = 2) soliton

        U_c(x) = c^(1/p) ((p+2)/2)^(1/p) sech^(2/p)(p sqrt(c) x / 2),

    which satisfies -U'' + cU - U^(p+1) = 0 exactly.
    """
    if not (p > 0 and c > 0):
        raise ValueError("sech_profile needs p > 0 and c > 0")
    x = grid.nodes
    amp = (c * (p + 2.0) / 2.0) ** (1.0 / p)
    values = amp * (1.0 / np.cosh(0.5 * p * np.sqrt(c) * x)) ** (2.0 / p)
    residual = _residual(grid, values, 2.0, p, 1.0, c)
    return _finalize(grid, values, 2.0, p, c, FKDV, residual, tol=1e-10)


def squared_norm(profile: WaveProfile) -> float:
    """<U, U> on the periodic box."""
    f = profile.as_field()
    return inner_product(f, f)


def save_profile(profile: WaveProfile, csv_path) -> tuple:
    """Write (x, U) CSV plus a JSON metadata sidecar next to it."""
    from .io_utils import atomic_write_text, format_float

    csv_path = str(csv_path)
    lines = ["x,U"]
    for x, u in zip(profile.grid.nodes, profile.values):
        lines.append(f"{format_float(x)},{format_float(u)}")
    atomic_write_text(csv_path, "\n".join(lines) + "\n")
    json_path = csv_path[:-4] + ".json" if csv_path.endswith(".csv") else csv_path + ".json"
    atomic_write_text(json_path, json.dumps(profile.metadata(), indent=2) + "\n")
    return csv_path, json_path


def load_profile(csv_path) -> WaveProfile:
    from .spectral import make_grid

    csv_path = str(csv_path)
    json_path = csv_path[:-4] + ".json" if csv_path.endswith(".csv") else csv_path + ".json"
    with open(json_path) as fh:
        meta = json.load(fh)
    data = np.loadtxt(csv_path, delimiter=",", skiprows=1)
    grid = make_grid(meta["grid"]["n"], meta["grid"]["half_length"])
    return WaveProfile(
        grid=grid, values=data[:, 1], s=meta["s"], p=meta["p"], c=meta["c"],
        model=meta["model"], residual_norm=meta["residual_norm"],
        boundary_value=meta["boundary_value"], residual_tol=meta["residual_tol"],
        truncation_warning=meta["truncation_warning"], notes=tuple(meta["notes"]))
