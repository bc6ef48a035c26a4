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
for an odd-symbol operator.

Fields are plain arrays of samples at the grid's nodes.  Each operator is
one function returning its symbol in the grid's fftfreq layout, and
apply(symbol, values) is ifft(symbol * fft(values)).real; every symbol is
Hermitian, m(-xi) = conj(m(xi)), so the real part drops only round-off.
The one data-dependent check is in antiderivative, the only application of
d^-1: a field with a mean has no periodic antiderivative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonIntegrableInputError

TWO_PI = 2.0 * np.pi

# relative mean tolerated by the antiderivative
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


def fractional_symbol(grid: SpectralGrid, s: float) -> np.ndarray:
    """|d/dx|^s: the symbol (2*pi*|xi|)^s, s >= 0; ones (the identity) at s = 0."""
    if s < 0:
        raise ValueError(f"fractional order must be >= 0, got {s}")
    return np.abs(TWO_PI * grid.wavenumbers) ** s if s > 0 else np.ones(grid.n)


def hilbert_symbol(grid: SpectralGrid) -> np.ndarray:
    """Hilbert transform J: the symbol -i*sign(xi); J cos = sin.

    Zero on the zero mode and on the unpaired Nyquist mode, so J^2 = -I
    holds on mean-zero, Nyquist-free fields.
    """
    sym = -1j * np.sign(grid.wavenumbers)
    sym[grid.nyquist_index] = 0.0
    return sym


def derivative_symbol(grid: SpectralGrid) -> np.ndarray:
    """Skew derivative d = J |d|: the symbol -2i*pi*xi (see module docstring)."""
    sym = -1j * TWO_PI * grid.wavenumbers.astype(complex)
    sym[grid.nyquist_index] = 0.0
    return sym


def antiderivative_symbol(grid: SpectralGrid) -> np.ndarray:
    """Inverse of the skew derivative: the symbol -1/(2i*pi*xi), 0 on the
    zero mode.  Apply it through antiderivative, which checks the mean."""
    xi = grid.wavenumbers
    sym = np.zeros(grid.n, dtype=complex)
    nonzero = xi != 0
    sym[nonzero] = -1.0 / (2j * np.pi * xi[nonzero])
    sym[grid.nyquist_index] = 0.0
    return sym


def quarter_root_symbol(grid: SpectralGrid, eps: float) -> np.ndarray:
    """(-d^2/dx^2 + eps^2)^(1/4): the symbol (4*pi^2*xi^2 + eps^2)^(1/4).

    eps = 0 reduces to |d/dx|^(1/2).
    """
    if eps < 0:
        raise ValueError(f"eps must be >= 0, got {eps}")
    return ((TWO_PI * grid.wavenumbers) ** 2 + eps ** 2) ** 0.25


def apply(symbol: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The multiplier with this fftfreq-layout symbol applied to real
    samples: ifft(symbol * fft(values)), real part."""
    return np.fft.ifft(symbol * np.fft.fft(values)).real


def antiderivative(grid: SpectralGrid, values: np.ndarray) -> np.ndarray:
    """d^-1 of a mean-zero field; NonIntegrableInputError if its relative
    mean exceeds MEAN_TOL."""
    rms = float(np.sqrt(np.mean(values ** 2)))
    mean = abs(float(np.mean(values))) / rms if rms else 0.0
    if mean > MEAN_TOL:
        raise NonIntegrableInputError(
            f"'d/dx^-1' needs a mean-zero field; relative mean is {mean:.3e}")
    return apply(antiderivative_symbol(grid), values)


def inner_product(grid: SpectralGrid, f: np.ndarray, g: np.ndarray) -> float:
    """L2 pairing by the (spectrally accurate) periodic trapezoid rule."""
    return float(grid.spacing * np.dot(f, g))


def transform(grid: SpectralGrid, values: np.ndarray) -> np.ndarray:
    """Continuum-scaled spectrum: values approximating fhat(xi_k).

    Includes the phase factor for the grid starting at x = -l, so an even
    profile centered at 0 has a (numerically) real spectrum.
    """
    k = np.rint(grid.wavenumbers * 2.0 * grid.half_length).astype(int)
    phase = np.where(k % 2 == 0, 1.0, -1.0)
    return grid.spacing * phase * np.fft.fft(values)


def fourier_pairing(grid: SpectralGrid, c: np.ndarray, d: np.ndarray) -> float:
    """Fourier-side pairing sum(c * conj(d)) * dxi; equals inner_product by
    the discrete Plancherel identity."""
    dxi = 1.0 / (2.0 * grid.half_length)
    return float(np.real(np.sum(c * np.conj(d))) * dxi)
