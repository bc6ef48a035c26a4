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

Every wave is even, so an operator is assembled as its two parity blocks:
the even block over the constant, the cosines and the Nyquist cosine
(modes k = 0 .. n/2) and the odd block over the sines (k = 1 .. n/2-1).
Coordinates come in the same layout, one vector per parity; the
interleaved order above is only the layout of a dumped matrix.  A
pointwise potential V enters through the trapezoid sums

    C_q + i S_q = h sum_j V_j exp(2i pi xi_q x_j),

one FFT of V.  Since cos a cos b = (cos(a-b) + cos(a+b))/2, each block is
a Toeplitz-plus-Hankel matrix in C_q, exactly symmetric as built; the
block coupling the parities is made of S_q, which an even V leaves at
round-off.  It is dropped, and only a bound on its entries is kept and
checked.  OperatorBlocks, the one blocks type, assembles each
block(parity) where it is read, with no temporary of its order, in a new
array its caller owns.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .io_utils import atomic_write_files, json_text
from .spectral import SpectralGrid, fractional_symbol, quarter_root_symbol
from .waves import MODELS, WaveProfile, clamped_power

SYMMETRY_TOL = 1e-10

# rows of a block per outer product in a congruence
_ROWS = 64


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


def from_coords(grid: SpectralGrid, even: np.ndarray,
                odd: np.ndarray) -> np.ndarray:
    """The grid samples whose coordinates (to_coords) are (even, odd)."""
    f = np.asarray(even, dtype=complex).copy()
    f[1:-1] -= 1j * np.asarray(odd)
    f[1::2] *= -1.0
    return np.fft.irfft(f / (grid.spacing * _mode_norms(grid)), grid.n)


def _max_abs(a: np.ndarray) -> float:
    return max(float(a.max()), -float(a.min()))


def _check_coupling(P, block_max: float) -> None:
    """Raise unless the block coupling the parities is at most SYMMETRY_TOL
    relative to max|A| (block_max over both blocks), by its bound
    P.coupling: dropping it moves an eigenvalue no more than the asymmetry
    already accepted."""
    scale = max(P.coupling, block_max)
    if P.coupling > SYMMETRY_TOL * scale:
        raise ValueError(
            f"matrix {P.label!r} couples the even and odd modes "
            f"(relative cross block up to {P.coupling / scale:.2e}): the "
            f"linearization is not about an even wave")


def _scale(block: np.ndarray, r: np.ndarray, out: np.ndarray) -> np.ndarray:
    """a_ij (r_i r_j) in out, the outer product formed _ROWS rows at a
    time."""
    for i in range(0, r.size, _ROWS):
        np.multiply(block[i:i + _ROWS], np.outer(r[i:i + _ROWS], r),
                    out=out[i:i + _ROWS])
    return out


def span(block: np.ndarray) -> tuple:
    """(max|a_ii|, max|a_ij|, ||A||_1) of a square array (_span)."""
    return _span((i, block[i:i + _ROWS])
                 for i in range(0, block.shape[0], _ROWS))


def _span(rows) -> tuple:
    """(max|a_ii|, max|a_ij|, ||A||_1) of a square matrix A given as
    (first row, rows) pairs of _ROWS rows each, in order: the 1-norm is
    np.linalg.norm(A, 1) of the C-ordered A bit for bit, its column sums
    added in the same order, and no |A| of its order is formed."""
    diag = top = 0.0
    total = None
    for first, part in rows:
        a = np.abs(part)
        at = np.arange(a.shape[0])
        diag = max(diag, float(np.max(a[at, first + at])))
        top = max(top, float(np.max(a)))
        total = np.zeros(a.shape[1]) if total is None else total
        a[0] += total
        np.sum(a, axis=0, out=total)
    return diag, top, float(np.max(total, initial=0.0))


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


def _fourier_potential(op: LinOperator) -> np.ndarray:
    """G_q = h sum_j V_j exp(2i pi xi_q x_j), q = 0 .. n (n-periodic in q)."""
    g = op.grid.spacing * op.grid.n * np.fft.ifft(op.potential)
    g[1::2] *= -1.0
    return np.append(g, g[0])


def assemble_block(op: LinOperator, parity: int, weight=None,
                   out: np.ndarray | None = None) -> np.ndarray:
    """The even (parity 0) or odd (1) block of R op R, R the even
    multiplier with the fftfreq-layout symbol weight (I if None), or A_cos
    (2), the even block without its constant and Nyquist rows and columns,
    in out (a new array if None), from strided views of C = Re G."""
    c = _fourier_potential(op).real
    k = _block_order(op, parity)
    out = np.empty((k, k)) if out is None else out
    _block_rows(op, c, parity, 0, k, out)
    return out if weight is None else _scale(out, _block_symbol(
        op, parity, weight), out)


def _block_order(op: LinOperator, parity: int) -> int:
    return op.grid.n // 2 + 1 if parity == 0 else op.grid.n // 2 - 1


def _block_symbol(op: LinOperator, parity: int, symbol: np.ndarray):
    """The entries of an fftfreq-layout symbol on the modes of a block."""
    first = 0 if parity == 0 else 1
    return symbol[first:first + _block_order(op, parity)]


def _block_rows(op: LinOperator, c: np.ndarray, parity: int, start: int,
                stop: int, out: np.ndarray) -> None:
    """Rows start .. stop - 1 of the block of op (assemble_block, without
    the weight) in out, from C = c, each entry as the whole block has it."""
    # nu_a nu_b (C_|a-b| +- C_a+b) / 2 on the modes a, b = first .. first
    # + k - 1: + on the cosines, - on the sines
    first, k = (0 if parity == 0 else 1), _block_order(op, parity)
    window = np.lib.stride_tricks.sliding_window_view
    (np.subtract if parity == 1 else np.add)(
        window(np.r_[c[k - 1:0:-1], c[:k]], k)[::-1][start:stop],
        window(c[2 * first:], k)[start:stop], out=out)
    out *= 0.5 / op.grid.half_length
    if parity == 0:
        # by rows and columns alike, so that it stays exactly symmetric
        out[[i - start for i in (0, k - 1) if start <= i < stop]] *= \
            np.sqrt(0.5)
        out[:, [0, -1]] *= np.sqrt(0.5)
    at = np.arange(stop - start)
    out[at, start + at] += op.multiplier_symbol[first + start:first + stop]


@dataclass(frozen=True, eq=False)
class OperatorBlocks:
    """The parity blocks of R op R (assemble_block), each assembled anew by
    block(parity) and owned by the caller, who may overwrite it; the
    coupling guard runs once both parities have been assembled."""
    op: LinOperator
    weight: np.ndarray | None
    label: str
    coupling: float
    _block_max: dict = field(default_factory=dict, repr=False)

    @property
    def grid(self) -> SpectralGrid:
        return self.op.grid

    def block(self, parity: int) -> np.ndarray:
        out = assemble_block(self.op, parity, self.weight)
        self._record(parity, _max_abs(out))
        return out

    def span(self, parity: int) -> tuple:
        """(max|a_ii|, max|a_ij|, ||A||_1) of block(parity) (_span), its
        rows assembled _ROWS at a time; the coupling guard counts it as
        assembled."""
        c = _fourier_potential(self.op).real
        k = _block_order(self.op, parity)
        r = None if self.weight is None else _block_symbol(
            self.op, parity, self.weight)

        def rows():
            out = np.empty((_ROWS, k))
            for i in range(0, k, _ROWS):
                part = out[:min(_ROWS, k - i)]
                _block_rows(self.op, c, parity, i, i + part.shape[0], part)
                if r is not None:
                    np.multiply(part, np.outer(r[i:i + _ROWS], r), out=part)
                yield i, part
        span = _span(rows())
        self._record(parity, span[1])
        return span

    def _record(self, parity: int, block_max: float) -> None:
        self._block_max[parity] = block_max
        if len(self._block_max) == 2:
            _check_coupling(self, max(self._block_max.values()))

    def scaled(self, symbol: np.ndarray, label: str, coupling: float):
        """The OperatorBlocks of R op R (congruence)."""
        return OperatorBlocks(self.op, symbol if self.weight is None
                              else self.weight * symbol, label, coupling)

    def cos_block(self) -> np.ndarray:
        m = self.grid.n // 2
        out = np.empty((m - 1, m - 1), order="F")
        # exactly symmetric: assembled in its transpose
        assemble_block(self.op, 2, self.weight, out.T)
        return out


def operator_blocks(op: LinOperator) -> OperatorBlocks:
    """The parity blocks of op in the real-Fourier basis, each assembled
    where it is read from one FFT of its potential; ValueError, once both
    parities are assembled, if the potential couples them."""
    # |r_even[a] (S_{a+b} - S_{a-b}) r_odd[b] / 2| <= max|S| / l, as no
    # mode norm exceeds 1/sqrt(l)
    return OperatorBlocks(op, None, op.label, _max_abs(
        _fourier_potential(op).imag) / op.grid.half_length)


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


def sandwich(A: OperatorBlocks, eps: float) -> OperatorBlocks:
    """(-d^2 + eps^2)^(1/4) L (-d^2 + eps^2)^(1/4) from the blocks A of
    L (operator_blocks).

    eps = 0 gives |d|^(1/2) L |d|^(1/2); its zero-mode row and column
    vanish structurally.
    """
    return congruence(A, quarter_root_symbol(A.grid, eps),
                      f"sandwich(eps={eps:g})")


def symmetrizing_weight(grid: SpectralGrid, s: float) -> np.ndarray:
    """Symbol of (I+M)^(-1/2), M = |d|^s, in the grid's fftfreq layout."""
    return (1.0 + fractional_symbol(grid, s)) ** -0.5


def congruence(A, symbol: np.ndarray, name: str):
    """R A R for the even multiplier R with the given fftfreq-layout
    symbol, of the same type as A (its scaled method).  Each entry of the
    block coupling the parities is scaled by one r_even[a] r_odd[b], its
    bound by max|r_even| max|r_odd|."""
    m = A.grid.n // 2
    return A.scaled(symbol, f"{name}[{A.label}]", A.coupling
                    * _max_abs(symbol[:m + 1]) * _max_abs(symbol[1:m]))


def save_matrix(P: OperatorBlocks, bin_path) -> tuple:
    """Raw row-major float64 dump of the full matrix of P in the
    interleaved basis order, zeros coupling the parities, plus a JSON
    header (order, label, grid) beside it, the .bin suffix replaced by
    .json; both files are written before either replaces its target."""
    order = P.grid.n
    entries = np.zeros((order, order))
    for parity, idx in enumerate(parity_index(order)):
        entries[np.ix_(idx, idx)] = P.block(parity)
    if not np.all(np.isfinite(entries)):
        raise ValueError(f"matrix {P.label!r} has non-finite entries")
    bin_path = str(bin_path)
    json_path = (bin_path[:-4] if bin_path.endswith(".bin") else bin_path) + ".json"
    # the header is renamed into place first, so a failure leaves no new
    # matrix without it
    atomic_write_files({
        json_path: json_text({"order": order, "label": P.label,
                              "dtype": "float64-le", "layout": "row-major",
                              "grid": {"n": P.grid.n,
                                       "half_length": P.grid.half_length}}),
        bin_path: np.ascontiguousarray(entries, dtype="<f8").tobytes()})
    return bin_path, json_path
