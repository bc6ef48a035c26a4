"""Solitary-wave profiles and the model table.

The normalized ground state Q solves |d|^s Q + Q - Q^(p+1) = 0 and is
computed by Petviashvili iteration.  A traveling wave of speed c solves

    a(c) |d|^s U + b(c) U - U^(p+1) = 0,   (a, b) = (1, c) for fKdV,
                                           (a, b) = (c, c-1) for fBBM,

and is computed by the same iteration at its own (a, b); Q is the fKdV
wave of speed 1.  On the line U_c(x) = b^(1/p) Q((b/a)^(1/s) x); the
iteration's seed is scaled the same way.  Closed-form reference: the
Benjamin-Ono Lorentzian.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import ConvergenceError
from .io_utils import atomic_write_files, csv_text
from .spectral import SpectralGrid, apply, fractional_symbol, inner_product

FKDV = "fkdv"
FBBM = "fbbm"


@dataclass(frozen=True)
class Model:
    """One row of the model table: everything model-specific in a verdict.

    kind is the prefix of the linearization's label, kdv-lin(...) or
    bbm-lin(...), which dumped headers and error messages carry.
    """

    name: str
    kind: str
    coefficients: Callable[[float], tuple]  # c -> (a(c), b(c))
    speed_floor: float           # waves exist for c > speed_floor
    default_speed: float
    # (I+M)^-1 J L becomes J (W L W), W = (I+M)^(-1/2); the slope reference
    # is then the closed form of <(I+M)U,U>, and a sign clash with it raises
    weighted: bool

    def check_speed(self, c: float) -> None:
        if not self.speed_floor < c < math.inf:
            raise ValueError(f"{self.name} waves need a finite "
                             f"c > {self.speed_floor:g}, got {c}")


MODELS = {
    FKDV: Model(FKDV, "kdv", lambda c: (1.0, c), speed_floor=0.0,
                default_speed=1.0, weighted=False),
    FBBM: Model(FBBM, "bbm", lambda c: (c, c - 1.0), speed_floor=1.0,
                default_speed=2.0, weighted=True),
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

# type-II Anderson mixing of the Petviashvili map: the number of
# differences in its least-squares fit, and the plain steps before it
ANDERSON_DEPTH = 3
ANDERSON_START = 10


@dataclass(frozen=True)
class SolverOptions:
    max_iters: int = 500
    tol: float | None = None       # residual sup-norm target; None = per-s default

    def __post_init__(self):
        if self.tol is not None and not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.tol is not None and not self.tol < math.inf:
            raise ValueError(f"tol must be finite, got {self.tol}")

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
                  opts: SolverOptions) -> tuple[np.ndarray, float, tuple, np.ndarray]:
    """Anderson-accelerated fixed-point iteration for
    a |d|^s U + b U - U^(p+1) = 0.

    The Petviashvili map is G(U) = S^gamma (a |d|^s + b)^{-1} U^{p+1} with
    the stabilizing factor S = <(a |d|^s + b) U, U> / <U^{p+1}, U> and
    gamma = (p+1)/p.  The first ANDERSON_START steps iterate it plainly,
    U_{k+1} = G(U_k).  From then on each step takes the type-II Anderson
    mix of depth ANDERSON_DEPTH: with F_k = G(U_k) - U_k and the
    differences dF, dG of the last ANDERSON_DEPTH + 1 steps,
    U_{k+1} = G(U_k) - dG g, where g minimizes |F_k - dF g| (Anderson,
    J. ACM 12, 1965; Walker and Ni, SIAM J. Numer. Anal. 49, 2011; for
    the Petviashvili map, Alvarez and Duran, Math. Comput. Simul., 2016).
    The peak is recentered to x = 0 after every step, and a nonzero shift
    clears the mixing history, whose samples it would no longer match.
    The Gaussian seed has width SEED_WIDTH (a/b)^(1/s), the image of the
    ground-state seed under the scaling U(x) = b^(1/p) Q((b/a)^(1/s) x)
    (the iteration does not see the seed's amplitude).

    A step makes two transform pairs: rfft/irfft for G, fft/ifft for
    a |d|^s U at the new samples.  That and U^(p+1) give the residual and
    the factor of the new samples, whose inner products are taken in
    physical space (discrete Parseval) so that no spectrum needs weights.
    A real pair would do for the residual, but at s = 2 its round-off
    differs from an fft/ifft recomputation from the samples by more than
    1e-13 peak.  Returns the samples, their factor (which settles at 1 on
    a solution), the notes and their residual.
    """
    gamma = (p + 1.0) / p
    sym = fractional_symbol(grid, s)
    denom = a * sym[:grid.n // 2 + 1] + b
    width = SEED_WIDTH * (a / b) ** (1.0 / s)
    u = np.exp(-((grid.nodes / width) ** 2))
    lin = a * np.fft.ifft(sym * np.fft.fft(u)).real + b * u
    nonlin, clamped = _power_with_clamp_note(u, p + 1.0)
    history: list = []  # (G(U_k) - U_k, G(U_k)) of the last steps, oldest first
    notes: tuple = ()
    last_res = math.inf
    for step in range(opts.max_iters):
        if clamped and "clamp: negative tail mass exceeded 1e-10" not in notes:
            notes = notes + ("clamp: negative tail mass exceeded 1e-10",)
        lin_inner, rhs_inner = float(np.dot(lin, u)), float(np.dot(nonlin, u))
        if rhs_inner <= 0:
            raise ConvergenceError("Petviashvili factor lost positivity",
                                   last_residual=last_res)
        mapped = (lin_inner / rhs_inner) ** gamma * np.fft.irfft(
            np.fft.rfft(nonlin) / denom, grid.n)
        history = history[-ANDERSON_DEPTH:] + [(mapped - u, mapped)]
        u = mapped if step < ANDERSON_START else _anderson_mix(history)
        shift = grid.n // 2 - int(np.argmax(u))
        if shift:
            u = np.roll(u, shift)
            history = []
        lin = a * np.fft.ifft(sym * np.fft.fft(u)).real + b * u
        nonlin, clamped = _power_with_clamp_note(u, p + 1.0)
        residual = lin - nonlin
        last_res = float(np.max(np.abs(residual)))
        if last_res <= opts.tol:
            factor = float(np.dot(lin, u)) / float(np.dot(nonlin, u))
            return u, factor, notes, residual
    raise ConvergenceError(
        f"Petviashvili did not reach tol={opts.tol:g} in {opts.max_iters} "
        f"iterations (last residual {last_res:.3e})",
        last_residual=last_res)


def _anderson_mix(history: list) -> np.ndarray:
    """G(U_k) - dG g with g the least-squares fit of F_k by dF, over the
    (F, G) pairs of history; G(U_k) itself while history holds one pair.

    g solves the normal equations, of order at most ANDERSON_DEPTH, by
    lstsq, which drops the directions of nearly dependent differences.
    A fit of the n x depth matrix of differences itself takes the same
    steps on the wave table at twice the cost of the fit.
    """
    if len(history) < 2:
        return history[-1][1]
    f, g = (np.array(part) for part in zip(*history))
    df = np.diff(f, axis=0)
    coef = np.linalg.lstsq(df @ df.T, df @ f[-1], rcond=None)[0]
    return g[-1] - coef @ np.diff(g, axis=0)


def solve_ground_state(s: float, p: float, grid: SpectralGrid,
                       opts: SolverOptions | None = None) -> WaveProfile:
    """Ground state Q of |d|^s Q + Q - Q^(p+1) = 0, centered at x = 0: the
    fKdV wave of speed 1.

    Requires 0 < s <= 2 and 0 < p < p_max(s).
    """
    return solve_traveling_wave(FKDV, s, p, 1.0, grid, opts)


def solve_traveling_wave(model: str, s: float, p: float, c: float,
                         grid: SpectralGrid,
                         opts: SolverOptions | None = None) -> WaveProfile:
    """The even positive wave of speed c of the named row of MODELS, the
    solution of a |d|^s U + b U - U^(p+1) = 0 at (a, b) = coefficients(c)
    on grid, after checking the speed and the exponents and resolving the
    tolerance."""
    row = MODELS[model]
    row.check_speed(c)
    _check_exponents(s, p)
    opts = (opts or SolverOptions()).resolve(s, p)
    a, b = row.coefficients(c)
    values, factor, notes, residual = _petviashvili(s, p, a, b, grid, opts)
    _check_shape_invariants(values, factor)
    return _finalize(grid, values, s, p, c, row.name, residual, opts.tol, notes)


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
    disp = apply(fractional_symbol(grid, 1.0), values)
    residual = disp + c * values - 0.5 * values ** 2
    res_norm = float(np.max(np.abs(residual)))
    return _finalize(grid, values, 1.0, 1.0, c, FKDV, residual,
                     tol=max(res_norm, 1e-14),
                     notes=("closed form: half-nonlinearity normalization",))


def squared_norm(profile: WaveProfile) -> float:
    """<U, U> on the periodic box."""
    return inner_product(profile.grid, profile.values, profile.values)


def save_profile(profile: WaveProfile, csv_path) -> tuple:
    """Write (x, U) CSV plus a JSON metadata sidecar next to it.  Both
    files are written before either replaces its target, the sidecar
    first, so a failure leaves no new CSV beside a stale sidecar."""
    csv_path = str(csv_path)
    json_path = csv_path[:-4] + ".json" if csv_path.endswith(".csv") else csv_path + ".json"
    atomic_write_files({
        json_path: json.dumps(profile.metadata(), indent=2) + "\n",
        csv_path: csv_text(["x", "U"], (profile.grid.nodes.tolist(),
                                        profile.values.tolist()))})
    return csv_path, json_path
