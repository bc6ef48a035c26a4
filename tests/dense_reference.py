"""Dense reference computations that the fast paths are checked against.

The real-Fourier basis as an n x n matrix of samples, an operator
assembled as h phi^T (V phi) plus its multiplier diagonal, congruences by
an even multiplier on the full matrix, one full-order eigh, the
constrained quantity from each block's eigenvectors, and the
full-order restricted D A and J S formed from the dense entries.  Dense
matrices are plain arrays in the interleaved basis order of operators;
split_parity turns one into the ParityBlocks the package works on, and
from_coords is the inverse of operators.to_coords.  All of them cost
O(n^3) or O(n^2) memory and run in the tests only.
"""

import numpy as np
import scipy.linalg

from hkindex import operators as op
from hkindex import spectra as spc
from hkindex.spectral import TWO_PI


def real_fourier_basis(grid) -> np.ndarray:
    """n x n matrix whose columns are the orthonormal basis samples."""
    n, l, x = grid.n, grid.half_length, grid.nodes
    phi = np.empty((n, n))
    phi[:, 0] = 1.0 / np.sqrt(2.0 * l)
    for k in range(1, n // 2):
        theta = TWO_PI * (k / (2.0 * l)) * x
        phi[:, 2 * k - 1] = np.cos(theta) / np.sqrt(l)
        phi[:, 2 * k] = np.sin(theta) / np.sqrt(l)
    phi[:, n - 1] = np.cos(TWO_PI * (n / (4.0 * l)) * x) / np.sqrt(2.0 * l)
    return phi


def from_coords(grid, coords: tuple) -> np.ndarray:
    """Grid samples phi coords of the (even, odd) real-Fourier coordinates
    that operators.to_coords returns."""
    even, odd = coords
    z = even.astype(complex)
    z[1:-1] = 0.5 * (z[1:-1] - 1j * odd)
    z *= grid.n * op._mode_norms(grid)
    z[1::2] *= -1.0
    return np.fft.irfft(z, grid.n)


def interleave(coords: tuple) -> np.ndarray:
    """The (even, odd) coordinates in the interleaved basis order."""
    out = np.empty(sum(part.size for part in coords))
    for idx, part in zip(op.parity_index(out.size), coords):
        out[idx] = part
    return out


def split_parity(entries: np.ndarray, grid, label: str = "") -> op.ParityBlocks:
    """The parity blocks of a dense matrix, after asserting that it is
    symmetric and that the block coupling the parities is at most
    SYMMETRY_TOL relative to max|A|."""
    scale = float(np.max(np.abs(entries)))
    assert np.max(np.abs(entries - entries.T)) <= op.SYMMETRY_TOL * scale
    even, odd = op.parity_index(grid.n)
    assert np.max(np.abs(entries[np.ix_(even, odd)])) <= op.SYMMETRY_TOL * scale
    return op.ParityBlocks((entries[np.ix_(even, even)],
                            entries[np.ix_(odd, odd)]), grid, label)


def on_basis(grid, symbol: np.ndarray) -> np.ndarray:
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


def dense_matrix(L: op.LinOperator) -> np.ndarray:
    """L in the real-Fourier basis, through the basis matrix."""
    phi = real_fourier_basis(L.grid)
    a = L.grid.spacing * (phi.T @ (L.potential[:, None] * phi))
    a[np.diag_indices_from(a)] += on_basis(L.grid, L.multiplier_symbol)
    return 0.5 * (a + a.T)


def dense_congruence(a: np.ndarray, grid, symbol: np.ndarray) -> np.ndarray:
    """R A R for the even multiplier R with the given fftfreq-layout symbol."""
    r = on_basis(grid, symbol)
    out = r[:, None] * a * r[None, :]
    return 0.5 * (out + out.T)


def dense_inertia(a: np.ndarray):
    """(negative count, kernel dimension, eigenpairs) from one full eigh."""
    w, v = scipy.linalg.eigh(a)
    tol = spc.ZERO_TOL_REL * float(np.max(np.abs(w)))
    return (int(np.count_nonzero(w < -tol)),
            int(np.count_nonzero(np.abs(w) <= tol)), (w, v, tol))


def eigenvector_pseudo_quadratic(blocks: tuple, zero_tol: float,
                                 rhs: tuple) -> float:
    """<A^+ rhs, rhs> from the full eigendecomposition of each parity
    block, directions with |w| <= zero_tol dropped."""
    total = 0.0
    for block, part in zip(blocks, rhs):
        w, v = scipy.linalg.eigh(block)
        proj = v.T @ part
        kept = np.abs(w) > zero_tol
        total += float(np.sum(proj[kept] ** 2 / w[kept]))
    return total


def dense_restricted_product(a: np.ndarray, grid,
                             weights: np.ndarray | None = None) -> np.ndarray:
    """D A with the zero-mode and Nyquist rows and columns dropped, D the
    2x2 rotation blocks weights_k [[0, -1], [1, 0]]: by default the
    derivative's 2 pi xi_k; unit weights give the Hilbert transform J of
    the sandwiched problem J S."""
    a_r = a[1:-1, 1:-1]
    if weights is None:
        weights = TWO_PI * op.pair_frequencies(grid)
    da = np.empty_like(a_r)
    da[0::2, :] = -weights[:, None] * a_r[1::2, :]
    da[1::2, :] = weights[:, None] * a_r[0::2, :]
    return da


def dense_hamiltonian_eigenvalues(a: np.ndarray, grid) -> np.ndarray:
    return scipy.linalg.eigvals(dense_restricted_product(a, grid))


def dense_sandwich_hamiltonian_eigenvalues(s: np.ndarray, grid) -> np.ndarray:
    """Eigenvalues of the full-order restricted J S for a dense S."""
    return scipy.linalg.eigvals(
        dense_restricted_product(s, grid, np.ones(grid.n // 2 - 1)))
