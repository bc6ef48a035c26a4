"""Eigenvalue computations for the stability pipeline.

Every function takes the parity blocks of a symmetric matrix
(operators.ParityBlocks, built by assemble or a congruence) or a result
derived from them.  They feed three kinds of quantities:

* inertia-style counts n(.) and kernels, from one symmetric eigensolve
  per block, eigenvalues only except for the odd block of a spectrum the
  Hamiltonian route reads;
* the constrained quantity <L^-1 w, w> with w the decaying antiderivative
  of the kernel generator, via a spectral pseudo-inverse: one symmetric
  linear solve per block that has no eigenvalue near zero, the block's
  eigenpairs otherwise;
* the spectrum of the Hamiltonian product (d/dx) L on the subspace where
  the derivative is invertible (zero mode and Nyquist column removed),
  with Krein-signature classification of the imaginary eigenvalues.

In the real-Fourier basis the restricted derivative is block diagonal
with 2x2 rotation blocks 2*pi*xi_k [[0, -1], [1, 0]] on each (cos, sin)
pair, so it maps the cosines to the sines.  A Hamiltonian spectrum comes
from one of two routes.  When the odd block is positive semidefinite, as
it is for every ground state, lambda^2 = -nu for the eigenvalues nu of a
symmetric matrix of order n/2-1 minus the odd kernel, built on the odd
block's eigenpairs; otherwise, or when squaring would cost too much
accuracy, from the full-order restricted D A.  J S, with unit weights,
takes the same routes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import FredholmViolationError
from .operators import ParityBlocks, pair_frequencies, to_coords
from .spectral import (TWO_PI, Multiplier, RealField, SpectralGrid,
                       antiderivative_multiplier, apply_multiplier,
                       fractional_derivative_multiplier, inner_product,
                       regularized_quarter_root_multiplier)

# defaults from the tolerance policy: scale-relative thresholds survive
# rescaling of the wave speed.  The Hamiltonian re/im tolerances sit at
# 1e-9 * max|lambda|: the dispersion tail makes max|lambda| huge (~xi^(s+1)),
# so 1e-6 would swallow genuine near-threshold eigenvalues (~5e-2 at p = 4.1,
# s = 2), while the measured eigensolver noise on real parts is < 1e-11.
ZERO_TOL_REL = 1e-8
RE_TOL_REL = 1e-9
IM_TOL_REL = 1e-9
SIG_TOL_REL = 1e-8

# |lambda| below this fraction of the first-mode magnitude of D(L0) counts
# as zero for the Hamiltonian product: eigenvalues under the box's first
# dispersion mode are unresolvable at the given truncation.  0.75 keeps the
# detached zero group of the borderline p = 2s families (a released pair
# sits at ~0.6x the first mode) while the regular ladder starts at >= 1x.
GKERNEL_FRACTION = 0.75

# edge fraction used to pin the antiderivative to its decaying branch
ANCHOR_FRACTION = 0.02

# eigenvector columns per product where a loop over eigenvalues bounds the
# temporaries to n x _COLUMN_BLOCK instead of n x n
_COLUMN_BLOCK = 256


def sym_eig(block: np.ndarray, vectors: bool) -> tuple:
    """Ascending eigenvalues of one parity block, and their eigenvector
    columns if asked (else None)."""
    if vectors:
        return scipy.linalg.eigh(block)
    return scipy.linalg.eigh(block, eigvals_only=True), None


@dataclass(frozen=True, eq=False)
class SymmetricSpectrum:
    """Eigenvalues of the even and odd blocks, and the odd block's
    eigenvectors unless only the inertia is read; the even block never
    keeps its vectors (the constrained solve reads that block itself).
    The zero tolerance is global, ZERO_TOL_REL * max|w| over both
    blocks."""
    values: tuple                    # ascending eigenvalues of each block
    vectors: tuple | None            # (None, odd eigenvector columns)
    zero_tol: float
    blocks: tuple                    # the (even, odd) blocks themselves

    @property
    def negative_count(self) -> int:
        return sum(int(np.count_nonzero(w < -self.zero_tol)) for w in self.values)

    @property
    def eigenvalues(self) -> np.ndarray:
        """The eigenvalues of both blocks, ascending."""
        return np.sort(np.concatenate(self.values))


def _spectrum(P: ParityBlocks, odd_vectors: bool) -> SymmetricSpectrum:
    values, vecs = zip(*(sym_eig(block, want) for block, want
                         in zip(P.blocks, (False, odd_vectors))))
    zero_tol = ZERO_TOL_REL * max(float(np.max(np.abs(w))) for w in values)
    return SymmetricSpectrum(values, vecs if odd_vectors else None, zero_tol,
                             P.blocks)


def symmetric_spectrum(P: ParityBlocks) -> SymmetricSpectrum:
    """Inertia and eigenvalues of a symmetric matrix, one eigh per parity
    block, with the odd block's eigenvectors (the symmetric Hamiltonian
    route builds on them)."""
    return _spectrum(P, odd_vectors=True)


def symmetric_eigenvalues(P: ParityBlocks) -> SymmetricSpectrum:
    """The same without eigenvectors, for counts that read nothing else."""
    return _spectrum(P, odd_vectors=False)


def _anchor_to_edge(grid, values: np.ndarray) -> np.ndarray:
    """Shift by the edge plateau so the antiderivative decays at the box
    boundary, matching the line-problem branch.  The mean-zero branch of
    the periodic antiderivative carries an O(1/l) constant that would
    contaminate the constrained quantity."""
    edge = np.abs(grid.nodes) >= (1.0 - ANCHOR_FRACTION) * grid.half_length
    return values - float(np.mean(values[edge]))


def _decaying_antiderivative(psi0: RealField) -> RealField:
    w = apply_multiplier(antiderivative_multiplier(psi0.grid), psi0)
    return RealField(psi0.grid, _anchor_to_edge(psi0.grid, w.values))


def _pseudo_solve_quadratic(eig: SymmetricSpectrum, rhs: tuple,
                            label: str) -> float:
    """<A^+ rhs, rhs> with eigendirections |lambda| <= zero_tol dropped,
    for the right-hand side given by its (even, odd) coordinates.

    A direction is reached by the right-hand side when its overlap exceeds
    1e-6 ||rhs||, with the norm of the whole right-hand side: a block's
    own share of an even right-hand side can be pure round-off.  A reached
    kernel direction violates the Fredholm condition; a reached kept
    direction with |lambda| < 1e3 zero_tol makes the solve near-singular.
    A block without eigenvectors and with no eigenvalue below 1e3 zero_tol
    can do neither, so its share is one symmetric linear solve; any other
    block without eigenvectors has its eigenpairs computed here.
    """
    if eig.vectors is None:
        raise ValueError(f"the constrained solve for {label!r} needs "
                         "eigenvectors; it got an eigenvalues-only spectrum")
    tol = eig.zero_tol
    rhs_norm = float(np.linalg.norm(np.concatenate(rhs)))
    total, worst, near_singular = 0.0, 0.0, False
    for block, w, v, part in zip(eig.blocks, eig.values, eig.vectors, rhs):
        if v is None and np.min(np.abs(w)) >= 1e3 * tol:
            total += float(part @ scipy.linalg.solve(
                block, part, assume_a="sym", check_finite=False))
            continue
        if v is None:
            w, v = sym_eig(block, vectors=True)
        proj = v.T @ part
        reached = np.abs(proj) > 1e-6 * rhs_norm
        kernel = np.abs(w) <= tol
        if np.any(kernel & reached):
            worst = max(worst, float(np.max(np.abs(proj[kernel & reached]))))
        kept = ~kernel
        near_singular |= bool(np.any(kept & reached & (np.abs(w) < 1e3 * tol)))
        total += float(np.sum(proj[kept] ** 2 / w[kept]))
    if worst > 0.0:
        raise FredholmViolationError(
            f"right-hand side is not orthogonal to the kernel of {label!r} "
            f"(relative overlap {worst / max(rhs_norm, 1e-300):.2e})")
    if near_singular:
        warnings.warn(f"near-singular constrained solve for {label!r}",
                      stacklevel=3)
    return total


def constrained_quantity(A: ParityBlocks, psi0: RealField,
                         eig: SymmetricSpectrum) -> float:
    """<L^-1 (d^-1 psi0), d^-1 psi0> via the spectral pseudo-inverse, from
    the symmetric spectrum eig of A = assemble(L).

    The antiderivative is pinned to its decaying branch; the solve drops
    the numerically computed kernel directions and verifies the Fredholm
    compatibility of the right-hand side first.
    """
    rhs = _decaying_antiderivative(psi0)
    return _pseudo_solve_quadratic(eig, to_coords(A.grid, rhs.values), A.label)


def constrained_quantity_sandwiched(A: ParityBlocks, psi0: RealField,
                                    eps: float, eig: SymmetricSpectrum) -> float:
    """The same quantity computed through the regularized sandwich of the
    assembled operator A = assemble(L), from the symmetric spectrum eig of
    sandwich(A, eps),

        <(Lsand_eps)^-1 g_eps, g_eps>,
        g_eps = (-d^2+eps^2)^(-1/4) |d| d^-1 psi0,

    which is how the eps-independence of the index is checked.
    """
    grid = A.grid
    xi = grid.wavenumbers
    quarter = regularized_quarter_root_multiplier(grid, eps).symbol_values.real
    sym = np.zeros(grid.n, dtype=complex)
    nz = quarter > 0
    # |d| d^-1 has symbol i*sign(xi); zero mode and Nyquist are dropped
    sym[nz] = 1j * np.sign(xi[nz]) / quarter[nz]
    sym[grid.nyquist_index] = 0.0
    m = Multiplier(grid, sym, symbol_name=f"reg-quarter-inv-J(eps={eps:g})",
                   adjointness="skew")
    g = apply_multiplier(m, psi0)
    return _pseudo_solve_quadratic(eig, to_coords(grid, g.values),
                                   f"sandwich(eps={eps:g})[{A.label}]")


def slope_analytic(s: float, p: float, c: float, q_norm_sq: float) -> float:
    """d/dc <U_c, U_c> from the scaling law: (2/p - 1/s) c^(2/p-1/s-1) <Q,Q>."""
    if not (s > 0 and p > 0 and c > 0 and q_norm_sq >= 0):
        raise ValueError("slope_analytic needs positive arguments")
    expo = 2.0 / p - 1.0 / s
    return expo * c ** (expo - 1.0) * q_norm_sq


@dataclass(frozen=True)
class BbmSlope:
    finite_difference: float
    closed_form: float
    step_warning: bool


def bbm_slope(u_family, c: float, dc: float, normalized) -> BbmSlope:
    """d/dc <(I+M) U_c, U_c> two ways: centered finite difference of the
    family, and the closed form in terms of the normalized state

        (c-1)^(2/p-1/s-1) c^(1/s-2) / (p s) *
        ( c (2sc - p) <Q,Q> + (c-1) (2sc + (s-1)p) <|d|^(s/2) Q, |d|^(s/2) Q> ),

    the c-derivative of <(I+M) U_c, U_c> = (c-1)^(2/p) (c/(c-1))^(1/s)
    (<Q,Q> + (c-1)/c <|d|^(s/2) Q, |d|^(s/2) Q>).

    A mismatch beyond 5 percent flags the step as too large.
    """
    if not c - dc > 1.0:
        raise ValueError("finite-difference stencil leaves the range c > 1")

    def energy_pairing(profile) -> float:
        f = profile.as_field()
        half = apply_multiplier(
            fractional_derivative_multiplier(profile.grid, profile.s / 2.0), f)
        return inner_product(f, f) + inner_product(half, half)

    fd = (energy_pairing(u_family(c + dc)) - energy_pairing(u_family(c - dc))) / (2.0 * dc)

    s, p = normalized.s, normalized.p
    qf = normalized.as_field()
    half_q = apply_multiplier(
        fractional_derivative_multiplier(normalized.grid, s / 2.0), qf)
    qq = inner_product(qf, qf)
    hq = inner_product(half_q, half_q)
    bracket = c * (2.0 * s * c - p) * qq \
        + (c - 1.0) * (2.0 * s * c + (s - 1.0) * p) * hq
    closed = (c - 1.0) ** (2.0 / p - 1.0 / s - 1.0) * c ** (1.0 / s - 2.0) \
        * bracket / (p * s)
    mismatch = abs(fd - closed) > 0.05 * max(abs(fd), abs(closed), 1e-300)
    return BbmSlope(finite_difference=fd, closed_form=closed, step_warning=mismatch)


# ---------------------------------------------------------------------------
# Hamiltonian product (d/dx) L on the mean-zero, Nyquist-free subspace
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class HamiltonianEigensystem:
    """Spectrum of the restricted D A, each eigenvector held as the pair
    (x, y) of its cosine and sine coordinates: D A v = lambda v reads
    -W A_sin y = lambda x and W A_cos x = lambda y.  The symmetric route
    keeps one real pair (x, u = y / lambda) per lambda^2, shared by
    +-lambda, with a zero column for the kernel pair; the full-order solve
    keeps complex x and y per eigenvalue."""
    eigenvalues: np.ndarray          # complex, length n-2, sorted by (imag, real)
    a_cos: np.ndarray                # cosine block of the restricted factor
    a_sin: np.ndarray                # sine block of the restricted factor
    weights: np.ndarray              # W = 2*pi*xi_k, D on the (cos, sin) pairs
    scale: float                     # max |lambda|
    zero_floor: float                # |lambda| <= zero_floor counts as zero
    x: np.ndarray                    # cosine parts
    column: np.ndarray               # column of x (and u) for each eigenvalue
    u: np.ndarray | None = None      # symmetric route: sine parts over lambda
    y: np.ndarray | None = None      # full order: sine parts, matching order

    def pairs(self, idx: np.ndarray) -> tuple:
        """(x, y, A_cos x, A_sin y) for the eigenvalues idx."""
        x = self.x[:, self.column[idx]]
        if self.y is not None:
            y = self.y[:, idx]
            return x, y, self.a_cos @ x, self.a_sin @ y
        lam, u = self.eigenvalues[idx], self.u[:, self.column[idx]]
        return x, lam * u, self.a_cos @ x, lam * (self.a_sin @ u)


def _factor(P: ParityBlocks) -> tuple:
    """(A_cos, A_sin, W): the restricted blocks and the weights of D."""
    return (P.blocks[0][1:-1, 1:-1], P.blocks[1],
            TWO_PI * pair_frequencies(P.grid))


def _sorted(eigs: np.ndarray) -> np.ndarray:
    return np.lexsort((eigs.real, eigs.imag))


def _unresolved_on_imaginary_axis(eigs: np.ndarray, scale: float,
                                  zero_floor: float) -> np.ndarray:
    """eigs with each one in the zero bucket and below the squaring noise
    sqrt(eps) * scale moved onto the imaginary axis, i |lambda| times the
    sign of its imaginary part, or of its real part when that is zero.

    A generalized-kernel pair splits by about that noise in either solve,
    and whether it comes out real or imaginary is a rounding error that
    flips with the BLAS thread count; both solves report it the same way.
    """
    noise = float(np.sqrt(np.finfo(float).eps)) * scale
    moved = np.abs(eigs) <= min(noise, zero_floor)
    side = np.where(eigs.imag != 0.0, np.sign(eigs.imag), np.sign(eigs.real))
    eigs = eigs.copy()
    eigs.imag[moved] = side[moved] * np.abs(eigs[moved])
    eigs.real[moved] = 0.0
    return eigs


def _odd_factor(eig: SymmetricSpectrum, weights: np.ndarray):
    """(R, w_+, V_0): W A_sin W = R R^T with R = W V_+ diag(sqrt(w_+)) over
    the odd eigenpairs above the zero tolerance, V_0 the kernel that R
    deflates; None when the odd block has a negative eigenvalue."""
    w, v = eig.values[1], eig.vectors[1]
    if np.any(w < -eig.zero_tol):
        return None
    kept = w > eig.zero_tol
    r = v[:, kept] * weights[:, None]
    r *= np.sqrt(w[kept])
    return r, w[kept], v[:, ~kept]


def _roots(nu: np.ndarray, kernel_dim: int) -> np.ndarray:
    """lambda = +sqrt(-nu), then -sqrt(-nu), then kernel_dim pairs at 0."""
    root = np.sqrt((-nu).astype(complex))
    # 0 - root, not -root, so that zero parts print as 0.0, not -0.0
    return np.concatenate([root, 0.0 - root, np.zeros(2 * kernel_dim)])


def hamiltonian_eigensystem(P: ParityBlocks, eig: SymmetricSpectrum,
                            zero_floor: float) -> HamiltonianEigensystem:
    """Eigenvalues, sorted by (imag, real), and eigenvectors of the
    restricted D A, given the symmetric spectrum eig of A; |lambda| <=
    zero_floor counts as zero.

    With W A_sin W = R R^T, lambda^2 = -nu for the eigenpairs (nu, z) of
    T = R^T A_cos R, and x = R z.  y = lambda u solves -W A_sin y =
    lambda x, u = -A_sin^+ W^-1 x plus the kernel share that W A_cos x =
    lambda y fixes (dividing W A_cos x by lambda would amplify the error
    of x by scale / |lambda|).  Real roots are refined by the two-sided
    Rayleigh quotient.  nu carries about eps scale^2 of absolute error,
    lambda sqrt(eps) scale: the full-order D A is solved instead when ten
    times that exceeds zero_floor or the odd block is indefinite.  A
    zero-bucket eigenvalue below that noise goes on the imaginary axis."""
    a_cos, a_sin, weights = _factor(P)
    factor = _odd_factor(eig, weights)
    if factor is None:
        return _full_order(a_cos, a_sin, weights, zero_floor)
    r, w, kernel = factor
    # divide and conquer: faster than the default here, for an n^2 workspace
    nu, z = scipy.linalg.eigh(r.T @ (a_cos @ r), overwrite_a=True,
                              check_finite=False, driver="evd")
    scale = float(np.sqrt(np.max(np.abs(nu), initial=0.0)))
    if 10.0 * float(np.sqrt(np.finfo(float).eps)) * scale > zero_floor:
        del r, z  # free the symmetric route's matrices first
        return _full_order(a_cos, a_sin, weights, zero_floor)
    k, t = kernel.shape[1], nu.size
    # one zero column past the last, for the kernel pair
    z = np.hstack([z, np.zeros((t, 1))])
    x = r @ z
    r /= weights[:, None]
    r /= w
    u = r @ z  # V_+ diag(w_+)^(-1/2) z
    del r, z
    u *= -1.0
    share = (a_cos @ (weights[:, None] * kernel)).T @ x[:, :t]
    u[:, :t] -= kernel @ (share / nu)
    # A (x, -y) is a left eigenvector for a real lambda, so the two-sided
    # Rayleigh quotient's error is quadratic in that of the vectors
    real = np.nonzero(nu < -zero_floor ** 2)[0]
    lam, xr, ur = np.sqrt(-nu[real]), x[:, real], u[:, real]
    ax, au = a_cos @ xr, a_sin @ ur
    nu[real] = -(2.0 * lam * np.sum(ax * weights[:, None] * au, axis=0) / (
        np.sum(xr * ax, axis=0) - lam ** 2 * np.sum(ur * au, axis=0))) ** 2
    eigs = _unresolved_on_imaginary_axis(_roots(nu, k), scale, zero_floor)
    column = np.concatenate([np.arange(t), np.arange(t), np.full(2 * k, t)])
    order = _sorted(eigs)
    return HamiltonianEigensystem(
        eigenvalues=eigs[order], a_cos=a_cos, a_sin=a_sin, weights=weights,
        scale=scale, zero_floor=zero_floor, x=x, column=column[order], u=u)


def _full_order(a_cos: np.ndarray, a_sin: np.ndarray, weights: np.ndarray,
                zero_floor: float) -> HamiltonianEigensystem:
    """The eigensystem from one eig of the full-order restricted D A, whose
    rows and columns interleave the (cos, sin) pairs."""
    da = np.zeros((2 * weights.size, 2 * weights.size))
    da[0::2, 1::2] = -weights[:, None] * a_sin
    da[1::2, 0::2] = weights[:, None] * a_cos
    eigs, v = scipy.linalg.eig(da, overwrite_a=True, check_finite=False)
    scale = float(np.max(np.abs(eigs), initial=0.0))
    eigs = _unresolved_on_imaginary_axis(eigs, scale, zero_floor)
    order = _sorted(eigs)
    eigs, v = eigs[order], v[:, order]
    return HamiltonianEigensystem(
        eigenvalues=eigs, a_cos=a_cos, a_sin=a_sin, weights=weights,
        scale=scale, zero_floor=zero_floor, x=v[0::2],
        column=np.arange(eigs.size), y=v[1::2])


def eigenpair_residual(ham: HamiltonianEigensystem,
                       cls: KreinClassification) -> float:
    """max ||D A v - lambda v|| / (scale ||v||) over the eigenvalues
    outside the zero bucket, _COLUMN_BLOCK at a time so that no full-order
    eigenvector matrix is formed."""
    idx = np.nonzero(np.asarray(cls.classes) != CLASS_ZERO)[0]
    w = ham.weights[:, None]
    worst = 0.0
    for start in range(0, idx.size, _COLUMN_BLOCK):
        part = idx[start:start + _COLUMN_BLOCK]
        x, y, ax, ay = ham.pairs(part)
        lam = ham.eigenvalues[part]
        res = np.abs(-w * ay - lam * x) ** 2 + np.abs(w * ax - lam * y) ** 2
        norm = np.abs(x) ** 2 + np.abs(y) ** 2
        rel = np.sqrt(np.sum(res, axis=0) / np.sum(norm, axis=0))
        worst = max(worst, float(np.max(rel)) / ham.scale)
    return worst


def sandwich_hamiltonian_spectrum(S: ParityBlocks,
                                  eig: SymmetricSpectrum) -> np.ndarray:
    """Eigenvalues of J S on the restricted subspace (the reformulated
    problem: J S is similar to D A through |d|^(1/2)), given the symmetric
    spectrum eig of S: hamiltonian_eigensystem's two routes with unit
    weights, eigenvalues only."""
    a_cos, a_sin, _ = _factor(S)
    ones = np.ones(a_sin.shape[0])
    factor = _odd_factor(eig, ones)
    if factor is None:
        return _full_order(a_cos, a_sin, ones, 0.0).eigenvalues
    r, _, kernel = factor
    eigs = _roots(scipy.linalg.eigvalsh(r.T @ (a_cos @ r), overwrite_a=True,
                                        check_finite=False), kernel.shape[1])
    return eigs[_sorted(eigs)]


CLASS_ZERO = "ZERO"
CLASS_REAL_POS = "REAL_POS"
CLASS_REAL_NEG = "REAL_NEG"
CLASS_COMPLEX = "COMPLEX"
CLASS_IMAG_POS = "IMAG_POS_SIG"
CLASS_IMAG_NEG = "IMAG_NEG_SIG"
CLASS_INDET = "INDET"


@dataclass(frozen=True, eq=False)
class KreinClassification:
    k_r: int
    k_c: int
    k_i_minus: int
    indeterminate: tuple          # (eigenvalue, form value) pairs
    re_tol: float
    im_tol: float
    sig_tol: float
    classes: tuple                # one label per eigenvalue (sorted order)
    form_values: np.ndarray       # Krein form value, nan off the imaginary axis

    @property
    def k_direct(self) -> int:
        return self.k_r + self.k_c + self.k_i_minus


def _cluster_indices(values: np.ndarray, gap: float) -> list:
    """Group sorted positions whose consecutive difference is <= gap."""
    return np.split(np.arange(values.size),
                    np.nonzero(np.diff(values) > gap)[0] + 1)


def _complex_forms(ham: HamiltonianEigensystem, upper: np.ndarray,
                   clusters: list) -> np.ndarray:
    """Krein form values of the eigenvalues upper, grouped into clusters
    of positions in upper, from complex eigenvectors: <A v, v> / <v, v>
    for a singleton, the eigenvalues of the Hermitian Gram pencil on the
    cluster's span otherwise, ascending within each cluster."""
    x, y, ax, ay = ham.pairs(upper)
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
            g = 0.5 * (g + g.conj().T)
            gram = xc.conj().T @ xc + yc.conj().T @ yc
            out[cluster] = np.sort(scipy.linalg.eigh(
                g, 0.5 * (gram + gram.conj().T), eigvals_only=True))
    return out


def _real_forms(ham: HamiltonianEigensystem, upper: np.ndarray,
                clusters: list) -> np.ndarray:
    """The same on the symmetric route, in real arithmetic.  The
    eigenvector of lambda = i omega is (x, i omega u) with x and u real,
    so <A v, v> / <v, v> = (x.A_cos x + omega^2 u.A_sin u) /
    (|x|^2 + omega^2 |u|^2), and the Gram pencil of a cluster is real
    symmetric in the columns (x, omega u).  Singletons are evaluated
    _COLUMN_BLOCK columns at a time."""
    omega, cols = ham.eigenvalues.imag[upper], ham.column[upper]
    out = np.empty(upper.size)
    single = np.array([c[0] for c in clusters if c.size == 1], dtype=int)
    for start in range(0, single.size, _COLUMN_BLOCK):
        j = single[start:start + _COLUMN_BLOCK]
        x, u, w2 = ham.x[:, cols[j]], ham.u[:, cols[j]], omega[j] ** 2
        form = np.sum(x * (ham.a_cos @ x), axis=0) \
            + w2 * np.sum(u * (ham.a_sin @ u), axis=0)
        out[j] = form / (np.sum(x * x, axis=0) + w2 * np.sum(u * u, axis=0))
    for cluster in clusters:
        if cluster.size > 1:
            x = ham.x[:, cols[cluster]]
            u = ham.u[:, cols[cluster]] * omega[cluster]
            g = x.T @ (ham.a_cos @ x) + u.T @ (ham.a_sin @ u)
            gram = x.T @ x + u.T @ u
            out[cluster] = scipy.linalg.eigh(
                0.5 * (g + g.T), 0.5 * (gram + gram.T), eigvals_only=True)
    return out


def classify_krein(ham: HamiltonianEigensystem) -> KreinClassification:
    """Sort the Hamiltonian eigenvalues into Krein buckets.

    k_r counts real eigenvalues in the right half-plane, k_c complex ones
    there (with conjugates, hence even).  Purely imaginary eigenvalues are
    classified by the sign of the Hermitian form <A v, v> on their
    eigenspace; negative directions double into k_i_minus (conjugate pairs
    carry equal counts) and form values within sig_tol of zero land in the
    indeterminate list rather than being counted.  re_tol and im_tol are
    RE_TOL_REL and IM_TOL_REL times max|lambda|, sig_tol is SIG_TOL_REL
    times the 1-norm of the restricted factor.

    The eigensystem's zero_floor widens the zero bucket to
    |lambda| <= zero_floor: callers pass a fraction of the box's first
    dispersion mode so that sub-box-resolution eigenvalues (the
    generalized-kernel group and its truncation-split debris) are never
    misread as unstable modes.
    """
    eigs = ham.eigenvalues
    scale = ham.scale if ham.scale > 0 else 1.0
    re_tol = RE_TOL_REL * scale
    im_tol = IM_TOL_REL * scale
    # the 1-norm of the restricted factor, block diagonal by parity
    sig_tol = SIG_TOL_REL * max(float(np.linalg.norm(ham.a_cos, 1)),
                                float(np.linalg.norm(ham.a_sin, 1)))

    classes = np.empty(len(eigs), dtype=object)
    forms = np.full(len(eigs), np.nan)

    re, im = eigs.real, eigs.imag
    zero = ((np.abs(re) <= re_tol) & (np.abs(im) <= im_tol)) \
        | (np.abs(eigs) <= ham.zero_floor)
    real_like = (np.abs(im) <= im_tol) & ~zero
    complex_like = (np.abs(re) > re_tol) & (np.abs(im) > im_tol) & ~zero
    imag_like = (np.abs(re) <= re_tol) & (np.abs(im) > im_tol) & ~zero

    classes[zero] = CLASS_ZERO
    classes[real_like & (re > 0)] = CLASS_REAL_POS
    classes[real_like & (re < 0)] = CLASS_REAL_NEG
    classes[complex_like] = CLASS_COMPLEX

    k_r = int(np.count_nonzero(real_like & (re > re_tol)))
    k_c = int(np.count_nonzero(complex_like & (re > re_tol)))

    upper = np.nonzero(imag_like & (im > 0))[0]
    lower = np.nonzero(imag_like & (im < 0))[0]

    indeterminate = []
    neg_total = 0
    if upper.size:
        clusters = _cluster_indices(im[upper], max(im_tol, 1e-9 * scale))
        krein_forms = _real_forms if ham.u is not None else _complex_forms
        for idx, val in zip(upper, krein_forms(ham, upper, clusters)):
            forms[idx] = val
            if val < -sig_tol:
                classes[idx] = CLASS_IMAG_NEG
                neg_total += 1
            elif val > sig_tol:
                classes[idx] = CLASS_IMAG_POS
            else:
                classes[idx] = CLASS_INDET
                indeterminate.append((complex(eigs[idx]), float(val)))

    # conjugate partners inherit the class and form value positionally:
    # sorting the lower half by |Im| aligns it with the upper half
    upper_sorted = upper[np.argsort(im[upper])]
    lower_sorted = lower[np.argsort(-im[lower])]
    for lo, up in zip(lower_sorted, upper_sorted):
        classes[lo] = classes[up]
        forms[lo] = forms[up]
    if len(lower_sorted) != len(upper_sorted):
        warnings.warn("imaginary eigenvalues are not conjugate-paired",
                      stacklevel=2)

    k_i_minus = 2 * neg_total
    return KreinClassification(
        k_r=k_r, k_c=k_c, k_i_minus=k_i_minus,
        indeterminate=tuple(indeterminate),
        re_tol=float(re_tol), im_tol=float(im_tol), sig_tol=float(sig_tol),
        classes=tuple(classes), form_values=forms)


def gkernel_floor(grid: SpectralGrid, symbol: np.ndarray) -> float:
    """Magnitude of the first constant-coefficient Hamiltonian mode,
    2*pi*xi_1 * symbol(xi_1), for the fftfreq-layout symbol of the
    symmetric factor's constant-coefficient part (m w^2 for a factor
    W L W with multiplier m and weight w): the spectral resolution of the
    box."""
    xi1 = 1.0 / (2.0 * grid.half_length)
    return TWO_PI * xi1 * float(symbol[1])


def generalized_kernel_dim(ham: HamiltonianEigensystem) -> int:
    """Algebraic multiplicity of 0 in the restricted D A spectrum.

    Counts eigenvalues with |lambda| <= ham.zero_floor: the pipeline sets
    that floor to GKERNEL_FRACTION * gkernel_floor, and anything below a
    fixed fraction of the box's first dispersion mode is indistinguishable
    from zero at this truncation.
    """
    return int(np.count_nonzero(np.abs(ham.eigenvalues) <= ham.zero_floor))


def spectrum_rows(ham: HamiltonianEigensystem, cls: KreinClassification) -> list:
    """(re, im, class, krein_form_value) rows for the CSV export."""
    return [(float(lam.real), float(lam.imag), str(label), float(form))
            for lam, label, form in zip(ham.eigenvalues, cls.classes,
                                        cls.form_values)]
