"""Dense reference computations that the fast paths are checked against.

The real-Fourier basis as an n x n matrix of samples, an operator
assembled as h phi^T (V phi) plus its multiplier diagonal, congruences by
an even multiplier on the full matrix, the whole block coupling the
parities from the S_q of an operator's potential, one full-order eigh,
the inertia from each block's eigenvalues, the constrained quantity from each
block's eigenvectors, and exactly, by Gaussian elimination in rational
arithmetic, for one block, the full-order restricted D A and J S formed
from the dense entries, the Hamiltonian eigensystem from one eig of full order (the oracle of the
symmetric route of spectra), with the odd kernel deflated exactly if
asked, the small nu of that deflated operator in 40-digit arithmetic
(mpmath), the Krein forms in complex arithmetic on
whole eigenvectors, and the classification of a general complex
spectrum, one eigenvalue at a time, with a COMPLEX class and k_c.  The
plain Petviashvili loop, without mixing, with five complex transforms
per step and a residual that builds its own multiplier is the oracle of
waves._petviashvili.  Dense
matrices are plain arrays in the interleaved basis order of operators;
ParityBlocks holds both blocks of one, the oracle type of the dense gates
and the random-block tests, built from an operator by assemble or from a
dense matrix by split_parity, and from_coords is the inverse of
operators.to_coords.  The dense ones cost O(n^3) or O(n^2) memory, and
all of them run in the tests only.
"""

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np
import scipy.linalg
from scipy.linalg import hankel, toeplitz

from hkindex import operators as op
from hkindex import spectra as spc
from hkindex.errors import ConvergenceError
from hkindex.spectral import TWO_PI, SpectralGrid, apply, fractional_symbol
from hkindex.waves import (SEED_WIDTH, SolverOptions, _power_with_clamp_note,
                           clamped_power)


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


@dataclass(frozen=True, eq=False)
class ParityBlocks:
    """A symmetric matrix in the real-Fourier basis of a grid as its
    diagonal blocks (even, odd) over the parity layout, held: the oracle
    type of the random-block and dense-gate tests, read by spectra through
    the interface of operators.OperatorBlocks.  cores.core_count declines
    it, so its even counts come from the blocks' own factors.

    coupling is a bound c >= max|cross| on the dropped block coupling the
    parities, r_even[a] (S_{a+b} - S_{a-b}) r_odd[b] / 2 over the even
    modes a and the odd modes b, with S_q from the FFT of the potential
    and r the mode norms, scaled by every congruence since; 0.0 for
    blocks built without one.
    """
    blocks: tuple
    grid: SpectralGrid
    label: str = ""
    coupling: float = 0.0

    def block(self, parity: int) -> np.ndarray:
        """A copy of the even (0) or the odd (1) block."""
        return self.blocks[parity].copy()

    def cos_block(self) -> np.ndarray:
        """A_cos, the even block without its constant and Nyquist rows and
        columns, in a new Fortran-ordered array."""
        return np.array(self.blocks[0][1:-1, 1:-1], order="F")

    def span(self, parity: int) -> tuple:
        """operators.span of the even (0) or the odd (1) block."""
        return op.span(self.blocks[parity])

    @property
    def order(self) -> int:
        return sum(block.shape[0] for block in self.blocks)

    def scaled(self, symbol: np.ndarray, label: str, coupling: float):
        """R P R in new blocks (operators.congruence)."""
        r = symbol[:self.grid.n // 2 + 1], symbol[1:self.grid.n // 2]
        out = ParityBlocks(tuple(op._scale(b, ri, np.empty_like(b))
                                 for b, ri in zip(self.blocks, r)),
                           self.grid, label, coupling)
        op._check_coupling(out, max(map(op._max_abs, out.blocks)))
        return out

    def dense(self) -> np.ndarray:
        """The full matrix in the interleaved basis order, with zeros
        coupling the parities."""
        entries = np.zeros((self.order, self.order))
        for idx, block in zip(op.parity_index(self.grid.n), self.blocks):
            entries[np.ix_(idx, idx)] = block
        return entries


def assemble(L: op.LinOperator) -> ParityBlocks:
    """The parity blocks of L (operators.operator_blocks), held;
    ValueError if the potential couples the parities."""
    P = op.operator_blocks(L)
    return ParityBlocks((P.block(0), P.block(1)), L.grid, L.label,
                        P.coupling)


def split_parity(entries: np.ndarray, grid, label: str = "") -> ParityBlocks:
    """The parity blocks of a dense matrix, after asserting that it is
    symmetric and that the block coupling the parities is at most
    SYMMETRY_TOL relative to max|A|."""
    scale = float(np.max(np.abs(entries)))
    assert np.max(np.abs(entries - entries.T)) <= op.SYMMETRY_TOL * scale
    even, odd = op.parity_index(grid.n)
    assert np.max(np.abs(entries[np.ix_(even, odd)])) <= op.SYMMETRY_TOL * scale
    return ParityBlocks((entries[np.ix_(even, even)],
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


def cross_block(L: op.LinOperator, *symbols) -> np.ndarray:
    """The block coupling the even modes a (rows) to the odd modes b of L,
    after a congruence by each even multiplier whose fftfreq-layout symbol
    is given: r_even[a] (S_{a+b} - S_{a-b}) r_odd[b] / 2, whole, with
    C_q + i S_q the trapezoid sums of L's potential and r the mode norms
    times the symbols.  S_{a+b} is a Hankel matrix in S, S_{a-b} a
    Toeplitz one."""
    grid = L.grid
    m = grid.n // 2
    s = grid.spacing * grid.n * np.fft.ifft(L.potential)
    s[1::2] *= -1.0
    s = np.append(s, s[0]).imag
    nu = op._mode_norms(grid)
    r_even, r_odd = nu, np.full(m - 1, nu[1])
    for symbol in symbols:
        r_even, r_odd = r_even * symbol[:m + 1], r_odd * symbol[1:m]
    cross = hankel(s[1:m + 2], s[m + 1:2 * m]) \
        - toeplitz(np.r_[-s[1], s[:m]], -s[1:m])
    cross *= 0.5 * r_even[:, None]
    cross *= r_odd
    return cross


def dense_inertia(a: np.ndarray):
    """(negative count, kernel dimension, eigenpairs) from one full eigh."""
    w, v = scipy.linalg.eigh(a)
    tol = spc.ZERO_TOL_REL * float(np.max(np.abs(w)))
    return (int(np.count_nonzero(w < -tol)),
            int(np.count_nonzero(np.abs(w) <= tol)), (w, v, tol))


def blocks_of(P) -> tuple:
    """The (even, odd) blocks of P, ParityBlocks or
    operators.OperatorBlocks, in arrays of their own."""
    return P.block(0), P.block(1)


def block_inertia(P) -> tuple:
    """(negative count, kernel dimension, zero tolerance, eigenvalues) from
    one eigvalsh per parity block, the zero tolerance ZERO_TOL_REL max|w|
    over both blocks: the oracle of the LDL^T counts of spectra.  The
    eigenvalues of both blocks are returned ascending."""
    w = np.sort(np.concatenate([scipy.linalg.eigh(block, eigvals_only=True)
                                for block in blocks_of(P)]))
    tol = spc.ZERO_TOL_REL * float(np.max(np.abs(w)))
    return (int(np.count_nonzero(w < -tol)),
            int(np.count_nonzero(np.abs(w) <= tol)), tol, w)


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


def exact_quadratic(block: np.ndarray, rhs: np.ndarray) -> Fraction:
    """<block^-1 rhs, rhs> exactly for the float entries of a nonsingular
    block and right-hand side: Gaussian elimination on fractions.Fraction,
    each column pivoting on its first nonzero entry."""
    n = rhs.size
    rows = [[Fraction(float(v)) for v in row] + [Fraction(float(b))]
            for row, b in zip(block, rhs)]
    for k in range(n):
        pivot = next(i for i in range(k, n) if rows[i][k])
        rows[k], rows[pivot] = rows[pivot], rows[k]
        for row in rows[k + 1:]:
            f = row[k] / rows[k][k]
            row[k:] = [v - f * p for v, p in zip(row[k:], rows[k][k:])]
    x = [Fraction(0)] * n
    for k in reversed(range(n)):
        x[k] = (rows[k][n] - sum(rows[k][j] * x[j] for j in range(k + 1, n))) \
            / rows[k][k]
    return sum(Fraction(float(b)) * v for b, v in zip(rhs, x))


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


@dataclass(frozen=True, eq=False)
class FullOrderEigensystem:
    """The oracle's eigensystem of the restricted D A: complex eigenvalues
    sorted by (imag, real), and one complex column of x and u per
    eigenvalue, in the layout of spectra.HamiltonianEigensystem."""
    eigenvalues: np.ndarray
    a_cos: np.ndarray
    a_sin: np.ndarray
    scale: float                     # max |lambda|
    zero_floor: float                # |lambda| <= zero_floor counts as zero
    x: np.ndarray                    # cosine parts
    u: np.ndarray                    # sine parts over lambda
    column: np.ndarray               # column of x and u for each eigenvalue


def full_order(P, zero_floor: float,
               odd_kernel_tol: float | None = None) -> FullOrderEigensystem:
    """The eigensystem of the restricted D A from one eig of full order:
    the sine rows divided by lambda in place (u unread in the zero
    bucket).  A zero-bucket eigenvalue below sqrt(eps) max|lambda| goes on
    the imaginary axis, i |lambda| times the sign of its imaginary part,
    or of its real part when that is zero.  Its Krein forms are complex:
    classify it by reference_classification.

    With odd_kernel_tol, the odd eigen-components |w| <= odd_kernel_tol
    are deflated exactly: D A is formed on the cosine and the odd
    eigenbasis Q coordinates, (c, y) -> (-W Q diag(w) y, Q^T W A_cos c),
    with those w exact zeros, and the sine parts are Q y.  Deflating in
    the sine basis instead leaves a few eps max|w| in the kernel
    direction, which D A can amplify into the zero bucket's count."""
    even, a_sin = blocks_of(P)
    a_cos = even[1:-1, 1:-1]
    weights = spc._d_weights(P.grid)
    if odd_kernel_tol is None:
        da = dense_restricted_product(
            ParityBlocks((even, a_sin), P.grid).dense(), P.grid, weights)
    else:
        w, q = scipy.linalg.eigh(a_sin)
        w[np.abs(w) <= odd_kernel_tol] = 0.0
        a_sin = (q * w) @ q.T
        da = np.zeros((2 * w.size, 2 * w.size))
        da[0::2, 1::2] = -weights[:, None] * (q * w)
        da[1::2, 0::2] = q.T @ (weights[:, None] * a_cos)
    eigs, v = scipy.linalg.eig(da, overwrite_a=True, check_finite=False)
    v = v.astype(complex, copy=False)       # real where every lambda is
    if odd_kernel_tol is not None:
        v[1::2] = q @ v[1::2]
    scale = float(np.max(np.abs(eigs), initial=0.0))
    moved = np.abs(eigs) <= min(np.sqrt(np.finfo(float).eps) * scale,
                                zero_floor)
    side = np.where(eigs.imag != 0.0, np.sign(eigs.imag), np.sign(eigs.real))
    eigs.imag[moved] = side[moved] * np.abs(eigs[moved])
    eigs.real[moved] = 0.0
    order = spc._sorted(eigs)
    eigs, v = eigs[order], v[:, order]
    v[1::2] /= np.where(eigs != 0, eigs, 1)
    return FullOrderEigensystem(
        eigenvalues=eigs, a_cos=a_cos, a_sin=a_sin, scale=scale,
        zero_floor=zero_floor, x=v[0::2], u=v[1::2],
        column=np.arange(eigs.size))


def deflated_t_spectrum(P, odd_kernel_tol: float) -> np.ndarray:
    """The eigenvalues nu = -lambda^2 of W A_sin W A_cos, for the
    restricted D A of P with its odd eigen-components |w| <=
    odd_kernel_tol deflated exactly, in 40-digit arithmetic: the
    eigenvalues of R^T A_cos R, R = W Q diag(w)^(1/2) over the odd
    eigenpairs (w, Q) kept, and one zero per deflated one.  In doubles the
    deflation, and the eigenbasis Q itself, round: on 32-point random
    blocks with a 2-dimensional odd kernel, a small nu moves by up to
    up to 900 noise units eps max|nu| in the sine basis, and 21 in the
    eigenbasis."""
    with mpmath.workdps(40):
        w, q = mpmath.eigsy(mpmath.matrix(blocks_of(P)[1].tolist()))
        kept = [j for j in range(len(w)) if abs(w[j]) > odd_kernel_tol]
        r = mpmath.matrix(len(w), len(kept))
        for col, j in enumerate(kept):
            root = mpmath.sqrt(w[j])
            for i, weight in enumerate(spc._d_weights(P.grid)):
                r[i, col] = weight * q[i, j] * root
        a_cos = mpmath.matrix(blocks_of(P)[0][1:-1, 1:-1].tolist())
        nu = mpmath.eigsy(r.T * a_cos * r, eigvals_only=True)
        return np.concatenate([np.array([float(v) for v in nu]),
                               np.zeros(len(w) - len(kept))])


def complex_krein_forms(ham, upper: np.ndarray, clusters: list) -> np.ndarray:
    """Krein forms of the eigenvalues upper from the complex eigenvectors
    (x, y = lambda u): (vdot(x, A_cos x) + vdot(y, A_sin y)) / (|x|^2 +
    |y|^2) for a singleton, the eigenvalues of the Hermitian Gram pencil
    on the cluster's span otherwise, ascending within each cluster."""
    cols = ham.column[upper]
    x = ham.x[:, cols].astype(complex)
    y = ham.eigenvalues[upper] * ham.u[:, cols]
    ax, ay = ham.a_cos @ x, ham.a_sin @ y
    out = np.empty(upper.size)
    for cluster in clusters:
        if cluster.size == 1:
            j = cluster[0]
            denom = float(np.real(np.vdot(x[:, j], x[:, j])
                                  + np.vdot(y[:, j], y[:, j])))
            form = np.vdot(x[:, j], ax[:, j]) + np.vdot(y[:, j], ay[:, j])
            out[j] = float(np.real(form)) / denom
        else:
            xc, yc = x[:, cluster], y[:, cluster]
            g = xc.conj().T @ ax[:, cluster] + yc.conj().T @ ay[:, cluster]
            gram = xc.conj().T @ xc + yc.conj().T @ yc
            out[cluster] = np.sort(scipy.linalg.eigh(
                0.5 * (g + g.conj().T), 0.5 * (gram + gram.conj().T),
                eigvals_only=True))
    return out


CLASS_COMPLEX = "COMPLEX"


@dataclass(frozen=True, eq=False)
class ReferenceClassification:
    k_r: int
    k_c: int
    k_i_minus: int
    indeterminate: tuple          # (eigenvalue, form value) pairs
    sig_tol: float
    classes: tuple                # one label per eigenvalue (sorted order)
    form_values: np.ndarray       # Krein form value, nan off the imaginary axis

    @property
    def k_direct(self) -> int:
        return self.k_r + self.k_c + self.k_i_minus


def reference_classification(ham) -> ReferenceClassification:
    """Krein buckets of a general complex spectrum, one eigenvalue at a
    time, for a FullOrderEigensystem or a spectra.HamiltonianEigensystem.

    An eigenvalue is zero within re_tol = im_tol = spectra.IM_TOL_REL
    max|lambda| of 0 or with |lambda| <= zero_floor.  k_r counts the real
    eigenvalues in the right half-plane, k_c the complex ones there (with
    conjugates, hence even).  The imaginary eigenvalues in the upper half
    plane are clustered within im_tol and take their forms from
    complex_krein_forms; negative directions double into k_i_minus, and
    forms within spectra's sig_tol of zero are indeterminate.  The lower
    half inherits class and form positionally, sorted by |Im|."""
    eigs = ham.eigenvalues
    scale = ham.scale if ham.scale > 0 else 1.0
    re_tol = im_tol = spc.IM_TOL_REL * scale
    sig_tol = spc.SIG_TOL_REL * max(float(np.linalg.norm(ham.a_cos, 1)),
                                    float(np.linalg.norm(ham.a_sin, 1)))
    classes = np.empty(len(eigs), dtype=object)
    forms = np.full(len(eigs), np.nan)

    re, im = eigs.real, eigs.imag
    zero = ((np.abs(re) <= re_tol) & (np.abs(im) <= im_tol)) \
        | (np.abs(eigs) <= ham.zero_floor)
    real_like = (np.abs(im) <= im_tol) & ~zero
    complex_like = (np.abs(re) > re_tol) & (np.abs(im) > im_tol) & ~zero
    imag_like = (np.abs(re) <= re_tol) & (np.abs(im) > im_tol) & ~zero

    classes[zero] = spc.CLASS_ZERO
    classes[real_like & (re > 0)] = spc.CLASS_REAL_POS
    classes[real_like & (re < 0)] = spc.CLASS_REAL_NEG
    classes[complex_like] = CLASS_COMPLEX

    k_r = int(np.count_nonzero(real_like & (re > re_tol)))
    k_c = int(np.count_nonzero(complex_like & (re > re_tol)))

    upper = np.nonzero(imag_like & (im > 0))[0]
    lower = np.nonzero(imag_like & (im < 0))[0]

    indeterminate = []
    neg_total = 0
    if upper.size:
        clusters = spc._cluster_indices(im[upper], im_tol)
        for idx, val in zip(upper, complex_krein_forms(ham, upper, clusters)):
            forms[idx] = val
            if val < -sig_tol:
                classes[idx] = spc.CLASS_IMAG_NEG
                neg_total += 1
            elif val > sig_tol:
                classes[idx] = spc.CLASS_IMAG_POS
            else:
                classes[idx] = spc.CLASS_INDET
                indeterminate.append((complex(eigs[idx]), float(val)))

    upper_sorted = upper[np.argsort(im[upper])]
    lower_sorted = lower[np.argsort(-im[lower])]
    for lo, up in zip(lower_sorted, upper_sorted):
        classes[lo] = classes[up]
        forms[lo] = forms[up]
    if len(lower_sorted) != len(upper_sorted):
        warnings.warn("imaginary eigenvalues are not conjugate-paired",
                      stacklevel=2)

    return ReferenceClassification(
        k_r=k_r, k_c=k_c, k_i_minus=2 * neg_total,
        indeterminate=tuple(indeterminate), sig_tol=float(sig_tol),
        classes=tuple(classes), form_values=forms)


def dense_sandwich_hamiltonian_eigenvalues(s: np.ndarray, grid) -> np.ndarray:
    """Eigenvalues of the full-order restricted J S for a dense S."""
    return scipy.linalg.eigvals(
        dense_restricted_product(s, grid, np.ones(grid.n // 2 - 1)))


def _residual(grid: SpectralGrid, values: np.ndarray, s: float, p: float,
              a: float, b: float) -> np.ndarray:
    """a |d|^s U + b U - U^(p+1) at the samples U = values."""
    disp = apply(fractional_symbol(grid, s), values)
    return a * disp + b * values - clamped_power(
        values, p + 1.0, float(np.max(np.abs(values))))


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
