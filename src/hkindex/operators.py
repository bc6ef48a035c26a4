"""Assembly of the self-adjoint linearized operators.

Matrices are expressed in the orthonormal real-Fourier basis of the grid

    [ 1/sqrt(2l),
      cos(2 pi xi_1 x)/sqrt(l), sin(2 pi xi_1 x)/sqrt(l),
      ...,
      cos(2 pi xi_{n/2-1} x)/sqrt(l), sin(2 pi xi_{n/2-1} x)/sqrt(l),
      cos(2 pi xi_{n/2} x)/sqrt(2l) ]

in which every even real multiplier is diagonal and the skew derivative
acts by 2x2 rotation blocks on each (cos, sin) pair.  The basis is
orthonormal for the trapezoid inner product, so coordinate dot products
equal L2 pairings.

Every wave is even, so an operator is assembled as its two parity blocks
(ParityBlocks, the only matrix type of the package): the even block over
the constant, the cosines and the Nyquist cosine (modes k = 0 .. n/2) and
the odd block over the sines (k = 1 .. n/2-1).  Coordinates come in the
same layout, one vector per parity; the interleaved order above is only
the layout of a dumped matrix.  A pointwise potential V enters through
the trapezoid sums

    C_q + i S_q = h sum_j V_j exp(2i pi xi_q x_j),

one FFT of V.  Since cos a cos b = (cos(a-b) + cos(a+b))/2, each block is
a Toeplitz-plus-Hankel matrix in C_q, exactly symmetric as built; the
block coupling the parities is formed from S_q, which an even V leaves at
round-off, and is only checked.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import hankel, toeplitz

from .io_utils import atomic_write_files, json_text
from .spectral import SpectralGrid, fractional_symbol, quarter_root_symbol
from .waves import MODELS, WaveProfile, clamped_power

SYMMETRY_TOL = 1e-10


def parity_index(n: int) -> tuple:
    """Basis indices of the even modes [0, 1, 3, ..., n-3, n-1] (constant,
    cosines, Nyquist) and of the odd modes [2, 4, ..., n-2] (sines)."""
    return np.r_[0, 1:n - 1:2, n - 1], np.arange(2, n - 1, 2)


def pair_frequencies(grid: SpectralGrid) -> np.ndarray:
    """xi_k for the (cos, sin) pairs k = 1 .. n/2-1."""
    return np.arange(1, grid.n // 2) / (2.0 * grid.half_length)


def _mode_norms(grid: SpectralGrid) -> np.ndarray:
    """Normalization of the cosine of mode k = 0 .. n/2: 1/sqrt(2l) at the
    constant and the Nyquist mode, 1/sqrt(l) in between."""
    nu = np.full(grid.n // 2 + 1, 1.0 / np.sqrt(grid.half_length))
    nu[[0, -1]] = 1.0 / np.sqrt(2.0 * grid.half_length)
    return nu


def to_coords(grid: SpectralGrid, values: np.ndarray) -> tuple:
    """Real-Fourier coordinates h phi^T values of grid samples, as the
    vectors over the even modes (constant, cosines, Nyquist) and over the
    odd modes (sines)."""
    f = np.fft.rfft(values) * (grid.spacing * _mode_norms(grid))
    f[1::2] *= -1.0  # the phase (-1)^k of mode k at x_0 = -l
    return f.real.copy(), -f[1:-1].imag


@dataclass(frozen=True, eq=False)
class ParityBlocks:
    """A symmetric matrix in the real-Fourier basis of a grid as its
    diagonal blocks (even, odd) over the parity layout.

    coupling, when set, is (S, r_even, r_odd) with S_q, q = 0 .. n, from
    the FFT of the potential (S_{-q} = -S_q): the dropped block coupling
    the parities is r_even[a] (S_{a+b} - S_{a-b}) r_odd[b] / 2 over the
    even modes a and the odd modes b, kept so that a congruence checks it
    again.
    """
    blocks: tuple
    grid: SpectralGrid
    label: str = ""
    coupling: tuple | None = None

    @property
    def order(self) -> int:
        return sum(block.shape[0] for block in self.blocks)

    def dense(self) -> np.ndarray:
        """The full matrix in the interleaved basis order, with zeros
        coupling the parities."""
        entries = np.zeros((self.order, self.order))
        for idx, block in zip(parity_index(self.grid.n), self.blocks):
            entries[np.ix_(idx, idx)] = block
        return entries


def _max_abs(a: np.ndarray) -> float:
    return max(float(a.max()), -float(a.min()))


# rows per chunk of the block coupling the parities, never formed whole
_CROSS_ROWS = 64


def _cross_max(coupling: tuple) -> float:
    """max|cross| of the block coupling the even modes a (rows) to the odd
    modes b, r_even[a] (S_{a+b} - S_{a-b}) r_odd[b] / 2, _CROSS_ROWS rows
    at a time: row a of S_{a+b} is S_{a+1} .. S_{a+m-1}, a window of S, and
    row a of S_{a-b} one of S_q, q = m-1 .. -(m-1), with S_{-q} = -S_q."""
    s, r_even, r_odd = coupling
    m = r_even.size - 1
    window = np.lib.stride_tricks.sliding_window_view
    plus = window(s[1:2 * m], m - 1)
    minus = window(np.r_[s[m - 1::-1], -s[1:m]], m - 1)[::-1]
    half = 0.5 * r_even
    ends = []
    for a in range(0, m + 1, _CROSS_ROWS):
        rows = slice(a, a + _CROSS_ROWS)
        cross = plus[rows] - minus[rows]
        cross *= half[rows, None]
        cross *= r_odd
        ends += [cross.max(), cross.min()]
    return _max_abs(np.array(ends))


def _check_coupling(P: ParityBlocks) -> None:
    """Raise unless the block coupling the parities is at most SYMMETRY_TOL
    relative to max|A|: dropping it moves an eigenvalue no more than the
    asymmetry already accepted."""
    if P.coupling is None:
        return
    cross = _cross_max(P.coupling)
    scale = max(cross, *(_max_abs(b) for b in P.blocks))
    if cross > SYMMETRY_TOL * scale:
        raise ValueError(
            f"matrix {P.label!r} couples the even and odd modes "
            f"(relative cross block {cross / scale:.2e}): the "
            f"linearization is not about an even wave")


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


def assemble(op: LinOperator) -> ParityBlocks:
    """The parity blocks of op in the real-Fourier basis, from one FFT of
    its potential; ValueError if the potential couples the parities."""
    grid = op.grid
    m = grid.n // 2
    # G_q = h sum_j V_j exp(2i pi xi_q x_j), q = 0 .. n (n-periodic in q)
    g = grid.spacing * grid.n * np.fft.ifft(op.potential)
    g[1::2] *= -1.0
    g = np.append(g, g[0])
    c = g.real
    # nu_a nu_b (C_|a-b| + C_a+b) / 2 on the even modes a, b = 0 .. m,
    # scaled in place by rows and columns alike so that the block stays
    # exactly symmetric
    even = toeplitz(c[:m + 1]) + hankel(c[:m + 1], c[m:])
    even *= 0.5 / grid.half_length
    even[[0, -1]] *= np.sqrt(0.5)
    even[:, [0, -1]] *= np.sqrt(0.5)
    # (C_|a-b| - C_a+b) / (2l) on the odd modes a, b = 1 .. m-1
    odd = toeplitz(c[:m - 1]) - hankel(c[2:m + 1], c[m:2 * m - 1])
    odd *= 0.5 / grid.half_length
    even[np.diag_indices_from(even)] += op.multiplier_symbol[:m + 1]
    odd[np.diag_indices_from(odd)] += op.multiplier_symbol[1:m]
    nu = _mode_norms(grid)
    P = ParityBlocks((even, odd), grid, op.label,
                     coupling=(g.imag, nu, np.full(m - 1, nu[1])))
    _check_coupling(P)
    return P


def linearization(U: WaveProfile) -> LinOperator:
    """a(c) |d|^s + b(c) - (p+1) U^p about the wave U, with
    (a, b) = coefficients(c) of its row of MODELS."""
    model = MODELS[U.model]
    model.check_speed(U.c)
    a, b = model.coefficients(U.c)
    sym = a * fractional_symbol(U.grid, U.s) + b
    pot = -(U.p + 1.0) * clamped_power(U.values, U.p, U.peak)
    return LinOperator(U.grid, sym, pot,
                       label=f"{model.kind}-lin(s={U.s:g},p={U.p:g},c={U.c:g})")


def schrodinger_operator(grid: SpectralGrid, V: np.ndarray,
                         c: float) -> LinOperator:
    """L = -d^2/dx^2 + c - V for a decaying potential V sampled on grid."""
    if not c > 0:
        raise ValueError(f"spectral shift c must be positive, got {c}")
    vmax = float(np.max(np.abs(V)))
    outer = np.abs(grid.nodes) >= 0.95 * grid.half_length
    if vmax > 0 and float(np.max(np.abs(V[outer]))) > 1e-6 * vmax:
        warnings.warn("Schroedinger potential decays slowly on this box",
                      stacklevel=2)
    sym = fractional_symbol(grid, 2.0) + c
    return LinOperator(grid, sym, -V, label=f"schrodinger(c={c:g})")


def sandwich(A: ParityBlocks, eps: float) -> ParityBlocks:
    """(-d^2 + eps^2)^(1/4) L (-d^2 + eps^2)^(1/4) from A = assemble(L).

    eps = 0 gives |d|^(1/2) L |d|^(1/2); its zero-mode row and column
    vanish structurally.
    """
    return congruence(A, quarter_root_symbol(A.grid, eps),
                      f"sandwich(eps={eps:g})")


def symmetrizing_weight(grid: SpectralGrid, s: float) -> np.ndarray:
    """Symbol of (I+M)^(-1/2), M = |d|^s, in the grid's fftfreq layout."""
    return (1.0 + fractional_symbol(grid, s)) ** -0.5


def congruence(A: ParityBlocks, symbol: np.ndarray, name: str,
               overwrite: bool = False) -> ParityBlocks:
    """R A R for the even multiplier R with the given fftfreq-layout
    symbol; with overwrite, in A's own blocks."""
    m = A.grid.n // 2
    r_even, r_odd = symbol[:m + 1], symbol[1:m]
    blocks = []
    for block, r in zip(A.blocks, (r_even, r_odd)):
        # a_ij (r_i r_j), formed in the outer product or, with overwrite,
        # in the block; the outer product goes before the next is made
        scale = np.outer(r, r)
        blocks.append(np.multiply(block, scale,
                                  out=block if overwrite else scale))
        del scale
    coupling = None
    if A.coupling is not None:
        s, c_even, c_odd = A.coupling
        coupling = (s, c_even * r_even, c_odd * r_odd)
    out = ParityBlocks(tuple(blocks), A.grid, f"{name}[{A.label}]", coupling)
    _check_coupling(out)
    return out


def save_matrix(P: ParityBlocks, bin_path) -> tuple:
    """Raw row-major float64 dump of P.dense() plus a JSON header (order,
    label, grid) beside it, the .bin suffix replaced by .json; both files
    are written before either replaces its target."""
    entries = P.dense()
    if not np.all(np.isfinite(entries)):
        raise ValueError(f"matrix {P.label!r} has non-finite entries")
    bin_path = str(bin_path)
    json_path = (bin_path[:-4] if bin_path.endswith(".bin") else bin_path) + ".json"
    # the header is renamed into place first, so a failure leaves no new
    # matrix without it
    atomic_write_files({
        json_path: json_text({"order": P.order, "label": P.label,
                              "dtype": "float64-le", "layout": "row-major",
                              "grid": {"n": P.grid.n,
                                       "half_length": P.grid.half_length}}),
        bin_path: np.ascontiguousarray(entries, dtype="<f8").tobytes()})
    return bin_path, json_path
