"""Dense assembly of the self-adjoint linearized operators.

Matrices are expressed in the orthonormal real-Fourier basis of the grid

    [ 1/sqrt(2l),
      cos(2 pi xi_1 x)/sqrt(l), sin(2 pi xi_1 x)/sqrt(l),
      ...,
      cos(2 pi xi_{n/2-1} x)/sqrt(l), sin(2 pi xi_{n/2-1} x)/sqrt(l),
      cos(2 pi xi_{n/2} x)/sqrt(2l) ]

in which every even real multiplier is diagonal, the skew derivative acts
by 2x2 rotation blocks on each (cos, sin) pair, and a pointwise potential
becomes a dense symmetric block via the conjugated sampling matrix.  The
basis is orthonormal for the trapezoid inner product, so coordinate dot
products equal L2 pairings.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ModelMismatchError
from .spectral import (TWO_PI, RealField, SpectralGrid, fractional_symbol,
                       regularized_quarter_root_multiplier, same_grid)
from .waves import (FBBM, FKDV, MODELS, NORMALIZED, Model, WaveProfile,
                    clamped_power)

SYMMETRY_TOL = 1e-10

_BASIS_CACHE: dict = {}


def real_fourier_basis(grid: SpectralGrid) -> np.ndarray:
    """n x n matrix whose columns are the orthonormal basis samples."""
    key = (grid.n, grid.half_length)
    cached = _BASIS_CACHE.get(key)
    if cached is not None:
        return cached
    n, l, x = grid.n, grid.half_length, grid.nodes
    phi = np.empty((n, n))
    phi[:, 0] = 1.0 / np.sqrt(2.0 * l)
    for k in range(1, n // 2):
        theta = TWO_PI * (k / (2.0 * l)) * x
        phi[:, 2 * k - 1] = np.cos(theta) / np.sqrt(l)
        phi[:, 2 * k] = np.sin(theta) / np.sqrt(l)
    phi[:, n - 1] = np.cos(TWO_PI * (n / (4.0 * l)) * x) / np.sqrt(2.0 * l)
    _BASIS_CACHE[key] = phi
    return phi


def on_basis(grid: SpectralGrid, symbol: np.ndarray) -> np.ndarray:
    """Diagonal, in the real-Fourier basis, of the even multiplier whose
    symbol is given in the grid's fftfreq layout."""
    n = grid.n
    diag = np.empty(n)
    diag[0] = symbol[0]
    k = np.arange(1, n // 2)
    diag[2 * k - 1] = symbol[k]
    diag[2 * k] = symbol[k]
    diag[n - 1] = symbol[n // 2]
    return diag


def pair_frequencies(grid: SpectralGrid) -> np.ndarray:
    """xi_k for the (cos, sin) pairs k = 1 .. n/2-1."""
    return np.arange(1, grid.n // 2) / (2.0 * grid.half_length)


def to_coords(grid: SpectralGrid, values: np.ndarray) -> np.ndarray:
    return grid.spacing * (real_fourier_basis(grid).T @ values)


def from_coords(grid: SpectralGrid, coords: np.ndarray) -> np.ndarray:
    return real_fourier_basis(grid) @ coords


@dataclass(frozen=True, eq=False)
class DenseMatrix:
    entries: np.ndarray
    grid: SpectralGrid | None = None
    label: str = ""

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError("DenseMatrix needs a square array")
        if not np.all(np.isfinite(entries)):
            raise ValueError("DenseMatrix entries must be finite")
        object.__setattr__(self, "entries", entries)

    @property
    def order(self) -> int:
        return self.entries.shape[0]


def symmetry_defect(entries: np.ndarray) -> float:
    scale = float(np.max(np.abs(entries)))
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(entries - entries.T))) / scale


@dataclass(frozen=True, eq=False)
class LinOperator:
    """Fourier multiplier plus pointwise potential, L = m(|d|) + V(x).

    multiplier_symbol is stored in the grid's fftfreq layout and must be
    real and even; potential holds physical samples.
    """

    grid: SpectralGrid
    multiplier_symbol: np.ndarray
    potential: np.ndarray
    label: str
    kind: str = "custom"
    s: float | None = None
    c: float | None = None

    def __post_init__(self):
        sym = np.asarray(self.multiplier_symbol, dtype=float)
        pot = np.asarray(self.potential, dtype=float)
        if sym.shape != (self.grid.n,) or pot.shape != (self.grid.n,):
            raise ValueError("symbol/potential length does not match the grid")
        flipped = sym[np.r_[0, self.grid.n - 1:0:-1]]
        if np.max(np.abs(sym - flipped)) > 1e-12 * max(1.0, np.max(np.abs(sym))):
            raise ValueError("multiplier symbol must be even in xi")
        object.__setattr__(self, "multiplier_symbol", sym)
        object.__setattr__(self, "potential", pot)

    def apply(self, f: RealField) -> RealField:
        if not same_grid(self.grid, f.grid):
            raise ValueError("operator and field live on different grids")
        out = np.fft.ifft(self.multiplier_symbol * np.fft.fft(f.values)).real
        return RealField(f.grid, out + self.potential * f.values)


def assemble(op: LinOperator) -> DenseMatrix:
    """Dense symmetric matrix of op in the real-Fourier basis."""
    phi = real_fourier_basis(op.grid)
    a = op.grid.spacing * (phi.T @ (op.potential[:, None] * phi))
    a[np.diag_indices_from(a)] += on_basis(op.grid, op.multiplier_symbol)
    a = 0.5 * (a + a.T)
    return DenseMatrix(a, grid=op.grid, label=op.label)


def kdv_linearization(U: WaveProfile) -> LinOperator:
    """L_c = |d|^s + c - (p+1) U_c^p about an fKdV wave (or normalized Q,
    the fKdV wave of speed 1)."""
    return _linearization(MODELS[FKDV], U, accepted=(FKDV, NORMALIZED))


def bbm_linearization(U: WaveProfile) -> LinOperator:
    """L_0 = c|d|^s + (c-1) - (p+1) U_c^p about an fBBM wave."""
    return _linearization(MODELS[FBBM], U, accepted=(FBBM,))


def _linearization(model: Model, U: WaveProfile, accepted: tuple) -> LinOperator:
    """a(c) |d|^s + b(c) - (p+1) U^p with (a, b) = model.coefficients(c)."""
    if U.model not in accepted:
        raise ModelMismatchError(
            f"{model.kind}_linearization needs a profile of model "
            f"{' or '.join(accepted)}, got {U.model!r}")
    if not U.c > model.speed_floor:
        raise ModelMismatchError(
            f"{model.kind}_linearization needs c > {model.speed_floor:g}")
    a, b = model.coefficients(U.c)
    sym = a * fractional_symbol(U.grid, U.s) + b
    pot = -(U.p + 1.0) * clamped_power(U.values, U.p, U.peak)
    return LinOperator(U.grid, sym, pot,
                       label=f"{model.kind}-lin(s={U.s:g},p={U.p:g},c={U.c:g})",
                       kind=model.kind, s=U.s, c=U.c)


def schrodinger_operator(V: RealField, c: float) -> LinOperator:
    """L = -d^2/dx^2 + c - V for a decaying potential V."""
    if not c > 0:
        raise ValueError(f"spectral shift c must be positive, got {c}")
    vmax = float(np.max(np.abs(V.values)))
    outer = np.abs(V.grid.nodes) >= 0.95 * V.grid.half_length
    if vmax > 0 and float(np.max(np.abs(V.values[outer]))) > 1e-6 * vmax:
        warnings.warn("Schroedinger potential decays slowly on this box",
                      stacklevel=2)
    sym = fractional_symbol(V.grid, 2.0) + c
    return LinOperator(V.grid, sym, -V.values,
                       label=f"schrodinger(c={c:g})", kind="schrodinger",
                       s=2.0, c=c)


def sandwich(L: LinOperator, eps: float) -> DenseMatrix:
    """(-d^2 + eps^2)^(1/4) L (-d^2 + eps^2)^(1/4) as a dense matrix.

    eps = 0 gives |d|^(1/2) L |d|^(1/2); its zero-mode row and column
    vanish structurally.
    """
    quarter = regularized_quarter_root_multiplier(L.grid, eps).symbol_values.real
    return congruence(assemble(L), quarter, f"sandwich(eps={eps:g})")


def symmetrizing_weight(grid: SpectralGrid, s: float) -> np.ndarray:
    """Symbol of (I+M)^(-1/2), M = |d|^s, in the grid's fftfreq layout."""
    return (1.0 + fractional_symbol(grid, s)) ** -0.5


def bbm_symmetrize(L0: LinOperator) -> DenseMatrix:
    """(I+M)^(-1/2) L0 (I+M)^(-1/2) with M = |d|^s, as a dense matrix."""
    if L0.kind != MODELS[FBBM].kind:
        raise ModelMismatchError("bbm_symmetrize expects a BBM linearization")
    if L0.s is None:
        raise ValueError("operator does not carry its dispersion exponent")
    return congruence(assemble(L0), symmetrizing_weight(L0.grid, L0.s), "bbm-sym")


def congruence(A: DenseMatrix, symbol: np.ndarray, name: str) -> DenseMatrix:
    """R A R for the even multiplier R with the given fftfreq-layout symbol."""
    r = on_basis(A.grid, symbol)
    out = r[:, None] * A.entries * r[None, :]
    return DenseMatrix(0.5 * (out + out.T), grid=A.grid, label=f"{name}[{A.label}]")


def save_matrix(dm: DenseMatrix, bin_path, json_path=None) -> tuple:
    """Raw row-major float64 dump plus a JSON header (order, label)."""
    from .io_utils import atomic_write_bytes, write_json

    bin_path = str(bin_path)
    atomic_write_bytes(bin_path, np.ascontiguousarray(dm.entries, dtype="<f8").tobytes())
    if json_path is None:
        json_path = (bin_path[:-4] if bin_path.endswith(".bin") else bin_path) + ".json"
    header = {"order": dm.order, "label": dm.label, "dtype": "float64-le",
              "layout": "row-major"}
    if dm.grid is not None:
        header["grid"] = {"n": dm.grid.n, "half_length": dm.grid.half_length}
    write_json(json_path, header)
    return bin_path, str(json_path)
