"""Periodic Fourier-collocation infrastructure.

A uniform grid of n points on [-l, l) stands in for the real line.  All
constant-coefficient operators are Fourier multipliers in the convention
with 2*pi in the exponent: modes are exp(2i*pi*xi*x) with xi_k = k/(2l),
so the fractional derivative |d/dx|^s has symbol (2*pi*|xi|)^s.

Sign conventions are tied together by the Hilbert factorization
d/dx = J |d/dx|: the Hilbert transform J has symbol -i*sign(xi) (so that
J cos = sin), the derivative symbol is therefore -2i*pi*xi, and the
antiderivative symbol is its reciprocal -1/(2i*pi*xi).  Spectra of the
operators built downstream are invariant under this choice of orientation
(it amounts to the reflection x -> -x, which fixes even wave profiles).

The zero mode of the skew multipliers (J, derivative, antiderivative) is
set to 0; so is the unpaired Nyquist mode, which a real grid cannot carry
for an odd-symbol operator.  Mean-zero-only operators guard their input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, NonIntegrableInputError

TWO_PI = 2.0 * np.pi

# relative mean tolerated by mean-zero-only multipliers
MEAN_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class SpectralGrid:
    """Uniform periodic grid of n points on [-half_length, half_length)."""

    n: int
    half_length: float
    spacing: float
    nodes: np.ndarray
    wavenumbers: np.ndarray  # fftfreq layout (cycles per unit length)

    @property
    def nyquist_index(self) -> int:
        return self.n // 2


def make_grid(n: int, half_length: float) -> SpectralGrid:
    """Build the collocation grid x_j = -l + j*h with h = 2l/n.

    n must be even (the transforms assume a paired +/- mode layout plus
    one unpaired Nyquist mode) and at least 8; half_length must be > 0
    and small enough that the spacing is finite.
    """
    if n != int(n) or n % 2 != 0 or n < 8:
        raise ValueError(f"grid size must be an even integer >= 8, got {n}")
    if not half_length > 0:
        raise ValueError(f"half_length must be positive, got {half_length}")
    n = int(n)
    half_length = float(half_length)
    spacing = 2.0 * half_length / n
    if not np.isfinite(spacing):
        raise ValueError(f"half_length must be finite, got {half_length}")
    nodes = -half_length + spacing * np.arange(n)
    wavenumbers = np.fft.fftfreq(n, d=spacing)
    return SpectralGrid(n=n, half_length=half_length, spacing=spacing,
                        nodes=nodes, wavenumbers=wavenumbers)


def same_grid(a: SpectralGrid, b: SpectralGrid) -> bool:
    return a is b or (a.n == b.n and a.half_length == b.half_length)


@dataclass(frozen=True, eq=False)
class RealField:
    """Real samples at the collocation points of one grid."""

    grid: SpectralGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.grid.n,):
            raise ValueError(
                f"field has {values.shape} values for a grid of {self.grid.n} points")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True, eq=False)
class Multiplier:
    """A Fourier multiplier m(xi_k) stored in the grid's fftfreq layout.

    adjointness is "self" (real symbol) or "skew" (purely imaginary symbol
    with m(-xi) = conj(m(xi))); requires_mean_zero makes apply() reject
    fields with a nonzero mean, converting an analytic hypothesis into a
    runtime check.
    """

    grid: SpectralGrid
    symbol_values: np.ndarray
    symbol_name: str
    adjointness: str = "self"
    requires_mean_zero: bool = False

    def __post_init__(self):
        sym = np.asarray(self.symbol_values, dtype=complex)
        if sym.shape != (self.grid.n,):
            raise ValueError("symbol length does not match the grid")
        if self.adjointness == "self":
            if np.max(np.abs(sym.imag)) > 1e-14 * max(1.0, np.max(np.abs(sym))):
                raise ValueError(f"self-adjoint multiplier {self.symbol_name!r} "
                                 "has a non-real symbol")
        elif self.adjointness == "skew":
            scale = max(1.0, np.max(np.abs(sym)))
            if np.max(np.abs(sym.real)) > 1e-14 * scale:
                raise ValueError(f"skew-adjoint multiplier {self.symbol_name!r} "
                                 "has a non-imaginary symbol")
            # m(-xi) = conj(m(xi)); the fftfreq layout pairs index k with n-k
            flipped = np.conj(sym[np.r_[0, self.grid.n - 1:0:-1]])
            if np.max(np.abs(sym - flipped)) > 1e-14 * scale:
                raise ValueError(f"skew-adjoint multiplier {self.symbol_name!r} "
                                 "breaks m(-xi) = conj(m(xi))")
        else:
            raise ValueError(f"unknown adjointness tag {self.adjointness!r}")
        object.__setattr__(self, "symbol_values", sym)


def _relative_mean(values: np.ndarray) -> float:
    rms = float(np.sqrt(np.mean(values ** 2)))
    if rms == 0.0:
        return 0.0
    return abs(float(np.mean(values))) / rms


def apply_multiplier(m: Multiplier, f: RealField) -> RealField:
    """Apply m in Fourier space: ifft(symbol * fft(f)), real part."""
    if not same_grid(m.grid, f.grid):
        raise GridMismatchError("multiplier and field live on different grids")
    if m.requires_mean_zero and _relative_mean(f.values) > MEAN_TOL:
        raise NonIntegrableInputError(
            f"{m.symbol_name!r} needs a mean-zero field; relative mean is "
            f"{_relative_mean(f.values):.3e}")
    out = np.fft.ifft(m.symbol_values * np.fft.fft(f.values)).real
    return RealField(f.grid, out)


def fractional_derivative_multiplier(grid: SpectralGrid, s: float) -> Multiplier:
    """|d/dx|^s with symbol (2*pi*|xi|)^s, s >= 0.

    s = 0 gives the identity (0^0 = 1 on the zero mode).
    """
    if s < 0:
        raise ValueError(f"fractional order must be >= 0, got {s}")
    return Multiplier(grid, fractional_symbol(grid, s), symbol_name=f"|d|^{s:g}")


def fractional_symbol(grid: SpectralGrid, s: float) -> np.ndarray:
    """The symbol (2*pi*|xi|)^s in the grid's fftfreq layout (ones at s = 0)."""
    return np.abs(TWO_PI * grid.wavenumbers) ** s if s > 0 else np.ones(grid.n)


def hilbert_multiplier(grid: SpectralGrid) -> Multiplier:
    """Hilbert transform J with symbol -i*sign(xi); J cos = sin.

    Zero on the zero mode and on the unpaired Nyquist mode, so J^2 = -I
    holds on mean-zero, Nyquist-free fields.
    """
    sym = -1j * np.sign(grid.wavenumbers)
    sym[grid.nyquist_index] = 0.0
    return Multiplier(grid, sym, symbol_name="hilbert", adjointness="skew")


def derivative_multiplier(grid: SpectralGrid) -> Multiplier:
    """Skew derivative d = J |d| with symbol -2i*pi*xi (see module docstring)."""
    sym = -1j * TWO_PI * grid.wavenumbers.astype(complex)
    sym[grid.nyquist_index] = 0.0
    return Multiplier(grid, sym, symbol_name="d/dx", adjointness="skew")


def antiderivative_multiplier(grid: SpectralGrid) -> Multiplier:
    """Inverse of the skew derivative: symbol -1/(2i*pi*xi), 0 on the zero mode.

    Composing with derivative_multiplier reproduces a mean-zero input to
    round-off.  Intended for mean-zero fields only; apply() enforces this.
    """
    xi = grid.wavenumbers
    sym = np.zeros(grid.n, dtype=complex)
    nonzero = xi != 0
    sym[nonzero] = -1.0 / (2j * np.pi * xi[nonzero])
    sym[grid.nyquist_index] = 0.0
    return Multiplier(grid, sym, symbol_name="d/dx^-1", adjointness="skew",
                      requires_mean_zero=True)


def regularized_quarter_root_multiplier(grid: SpectralGrid, eps: float) -> Multiplier:
    """(-d^2/dx^2 + eps^2)^(1/4) with symbol (4*pi^2*xi^2 + eps^2)^(1/4).

    eps = 0 reduces to |d/dx|^(1/2).
    """
    if eps < 0:
        raise ValueError(f"eps must be >= 0, got {eps}")
    xi = grid.wavenumbers
    sym = ((TWO_PI * xi) ** 2 + eps ** 2) ** 0.25
    return Multiplier(grid, sym, symbol_name=f"(-dxx+{eps:g}^2)^(1/4)")


def inner_product(f: RealField, g: RealField) -> float:
    """L2 pairing by the (spectrally accurate) periodic trapezoid rule."""
    if not same_grid(f.grid, g.grid):
        raise GridMismatchError("fields live on different grids")
    return float(f.grid.spacing * np.dot(f.values, g.values))


def transform(f: RealField) -> np.ndarray:
    """Continuum-scaled spectrum: values approximating fhat(xi_k).

    Includes the phase factor for the grid starting at x = -l, so an even
    profile centered at 0 has a (numerically) real spectrum.
    """
    k = np.rint(f.grid.wavenumbers * 2.0 * f.grid.half_length).astype(int)
    phase = np.where(k % 2 == 0, 1.0, -1.0)
    return f.grid.spacing * phase * np.fft.fft(f.values)


def fourier_pairing(grid: SpectralGrid, c: np.ndarray, d: np.ndarray) -> float:
    """Fourier-side pairing sum(c * conj(d)) * dxi; equals inner_product by
    the discrete Plancherel identity."""
    dxi = 1.0 / (2.0 * grid.half_length)
    return float(np.real(np.sum(c * np.conj(d))) * dxi)
