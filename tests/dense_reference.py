"""Dense reference computations that the fast paths are checked against.

The real-Fourier basis as an n x n matrix of samples, an operator
assembled as h phi^T (V phi) plus its multiplier diagonal, congruences by
an even multiplier on the full matrix, one full-order eigh, and the
full-order restricted D A formed from the dense entries.  All of them cost
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


def dense_matrix(L: op.LinOperator) -> op.DenseMatrix:
    """L in the real-Fourier basis, through the basis matrix."""
    phi = real_fourier_basis(L.grid)
    a = L.grid.spacing * (phi.T @ (L.potential[:, None] * phi))
    a[np.diag_indices_from(a)] += on_basis(L.grid, L.multiplier_symbol)
    return op.DenseMatrix(0.5 * (a + a.T), grid=L.grid, label=L.label)


def dense_congruence(A: op.DenseMatrix, symbol: np.ndarray) -> op.DenseMatrix:
    """R A R for the even multiplier R with the given fftfreq-layout symbol."""
    r = on_basis(A.grid, symbol)
    out = r[:, None] * A.entries * r[None, :]
    return op.DenseMatrix(0.5 * (out + out.T), grid=A.grid, label=A.label)


def dense_inertia(A: op.DenseMatrix):
    """(negative count, kernel dimension, eigenpairs) from one full eigh."""
    w, v = scipy.linalg.eigh(A.entries)
    tol = spc.ZERO_TOL_REL * float(np.max(np.abs(w)))
    return (int(np.count_nonzero(w < -tol)),
            int(np.count_nonzero(np.abs(w) <= tol)), (w, v, tol))


def dense_restricted_product(A: op.DenseMatrix) -> np.ndarray:
    """D A with the zero-mode and Nyquist rows and columns dropped, D the
    derivative's 2x2 rotation blocks 2 pi xi_k [[0, -1], [1, 0]]."""
    a_r = A.entries[1:-1, 1:-1]
    weights = TWO_PI * op.pair_frequencies(A.grid)
    da = np.empty_like(a_r)
    da[0::2, :] = -weights[:, None] * a_r[1::2, :]
    da[1::2, :] = weights[:, None] * a_r[0::2, :]
    return da


def dense_hamiltonian_eigenvalues(A: op.DenseMatrix) -> np.ndarray:
    return scipy.linalg.eigvals(dense_restricted_product(A))
