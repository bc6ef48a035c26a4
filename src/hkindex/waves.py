"""Solitary-wave profiles and the model table.

The normalized ground state Q solves |d|^s Q + Q - Q^(p+1) = 0 and is
computed by Petviashvili iteration.  A traveling wave of speed c solves

    a(c) |d|^s U + b(c) U - U^(p+1) = 0,   (a, b) = (1, c) for fKdV,
                                           (a, b) = (c, c-1) for fBBM,

and is computed by the same iteration at its own (a, b), on the grid of Q.
On the line U_c(x) = b^(1/p) Q((b/a)^(1/s) x); the iteration's seed is
scaled the same way.  Closed-form reference: the Benjamin-Ono
Lorentzian.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import ConvergenceError, ModelMismatchError
from .io_utils import atomic_write_text, format_float
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

    def __post_init__(self):
        if self.tol is not None and not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")

    def resolve(self, s: float, p: float) -> "SolverOptions":
        """tol resolved for s; ValueError unless (p+1)/p lies in (1, 3)."""
        if not 1.0 < (p + 1.0) / p < 3.0:
            raise ValueError(f"the Petviashvili exponent (p+1)/p must lie in "
                             f"(1, 3), which needs p > 1/2; got p={p:g}")
        return replace(self, tol=default_tol(s) if self.tol is None else self.tol)


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


def _petviashvili(s: float, p: float, a: float, b: float, grid: SpectralGrid,
                  opts: SolverOptions) -> tuple[np.ndarray, float, tuple]:
    """Fixed-point iteration for a |d|^s U + b U - U^(p+1) = 0.

    U_{k+1} = S_k^gamma (a |d|^s + b)^{-1} U_k^{p+1} with the stabilizing
    factor S_k = <(a |d|^s + b) U_k, U_k> / <U_k^{p+1}, U_k> and
    gamma = (p+1)/p; the peak is recentered to x = 0 after every step.
    The Gaussian seed has width SEED_WIDTH (a/b)^(1/s), the image of the
    ground-state seed under the scaling U(x) = b^(1/p) Q((b/a)^(1/s) x)
    (the iteration does not see the seed's amplitude).
    """
    gamma = (p + 1.0) / p
    denom = a * fractional_symbol(grid, s) + b
    width = SEED_WIDTH * (a / b) ** (1.0 / s)
    u = np.exp(-((grid.nodes / width) ** 2))
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
        u = factor ** gamma * np.fft.ifft(np.fft.fft(nonlin) / denom).real
        u = np.roll(u, grid.n // 2 - int(np.argmax(u)))
        residual = _residual(grid, u, s, p, a, b)
        last_res = float(np.max(np.abs(residual)))
        if last_res <= opts.tol:
            return u, factor, notes
    raise ConvergenceError(
        f"Petviashvili did not reach tol={opts.tol:g} in {opts.max_iters} "
        f"iterations (last residual {last_res:.3e})",
        last_residual=last_res)


def solve_ground_state(s: float, p: float, grid: SpectralGrid,
                       opts: SolverOptions | None = None) -> WaveProfile:
    """Ground state Q of |d|^s Q + Q - Q^(p+1) = 0, centered at x = 0.

    Requires 0 < s <= 2 and 0 < p < p_max(s).
    """
    return _solve(grid, s, p, 1.0, NORMALIZED, (1.0, 1.0), opts)


def solve_traveling_wave(model: str, s: float, p: float, c: float,
                         grid: SpectralGrid,
                         opts: SolverOptions | None = None) -> WaveProfile:
    """The wave of speed c of the named row of MODELS, solved at its own
    (a, b) = coefficients(c) on grid, with the exponent window and the
    tolerance default of solve_ground_state; no ground state is solved."""
    row = MODELS[model]
    row.check_speed(c)
    return _solve(grid, s, p, c, row.name, row.coefficients(c), opts)


def _solve(grid: SpectralGrid, s: float, p: float, c: float, model: str,
           coefficients: tuple, opts: SolverOptions | None) -> WaveProfile:
    """The even positive solution of a |d|^s U + b U - U^(p+1) = 0 with
    (a, b) = coefficients, labelled with the speed c and the model name,
    after checking the exponents and resolving the tolerance."""
    _check_exponents(s, p)
    opts = (opts or SolverOptions()).resolve(s, p)
    a, b = coefficients
    values, factor, notes = _petviashvili(s, p, a, b, grid, opts)
    _check_shape_invariants(values, factor)
    residual = _residual(grid, values, s, p, a, b)
    return _finalize(grid, values, s, p, c, model, residual, opts.tol, notes)


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


def kdv_wave(Q: WaveProfile, c: float) -> WaveProfile:
    """The fKdV wave of speed c > 0 on the grid of the normalized state Q."""
    return _traveling_wave(MODELS[FKDV], Q, c)


def bbm_wave(Q: WaveProfile, c: float) -> WaveProfile:
    """The fBBM wave of speed c > 1 on the grid of the normalized state Q."""
    return _traveling_wave(MODELS[FBBM], Q, c)


def _traveling_wave(model: Model, Q: WaveProfile, c: float) -> WaveProfile:
    """The wave with Q's grid, exponents and tolerance; at
    (a, b) = (1, 1) the wave is Q."""
    if Q.model != NORMALIZED:
        raise ModelMismatchError(
            f"{model.kind}_wave expects the normalized ground state")
    if model.coefficients(c) == (1.0, 1.0):
        return replace(Q, values=Q.values.copy(), c=c, model=model.name)
    return solve_traveling_wave(model.name, Q.s, Q.p, c, Q.grid,
                                SolverOptions(tol=Q.residual_tol))


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


def squared_norm(profile: WaveProfile) -> float:
    """<U, U> on the periodic box."""
    f = profile.as_field()
    return inner_product(f, f)


def save_profile(profile: WaveProfile, csv_path) -> tuple:
    """Write (x, U) CSV plus a JSON metadata sidecar next to it."""
    csv_path = str(csv_path)
    lines = ["x,U"]
    for x, u in zip(profile.grid.nodes, profile.values):
        lines.append(f"{format_float(x)},{format_float(u)}")
    atomic_write_text(csv_path, "\n".join(lines) + "\n")
    json_path = csv_path[:-4] + ".json" if csv_path.endswith(".csv") else csv_path + ".json"
    atomic_write_text(json_path, json.dumps(profile.metadata(), indent=2) + "\n")
    return csv_path, json_path
