"""Eigenvalue computations for the stability pipeline.

Every function takes the parity blocks of a symmetric matrix
(operators.OperatorBlocks, each block assembled where it is read: see
symmetric_spectrum for the two matrices of order n/2 it holds at once)
and factors each block, an array of its own, in place; or it takes a
result derived from them.  They feed three kinds of quantities:

* inertia counts n(.), by Sylvester's law from Bunch-Kaufman LDL^T
  factors of shifted blocks, or for the even block from the wave's core
  (cores.core_count): the zero tolerance ZERO_TOL_REL max|w| is
  bracketed by max|a_ii| and the 1-norm, and a count is taken
  where both ends of the bracket give it (the second only where the first
  is not 0, _counts), from the eigenvalues otherwise; the odd block's few
  eigenvalues below 1e3 zero_tol (the kernel Q' and any near-singular
  one) come as certified Ritz pairs from inverse iteration with the
  factor of the shifted block;
* the constrained quantity <L^-1 w, w> with w the decaying antiderivative
  of the kernel generator, via a spectral pseudo-inverse: one solve with
  the LDL^T factor of the even block, which the solve makes in the block
  and drops, and one with the odd block's Cholesky factor with the kernel
  deflated, which the spectrum keeps for the solve and for T;
* the spectrum of the Hamiltonian product (d/dx) L on the subspace where
  the derivative is invertible (zero mode and Nyquist column removed),
  with Krein-signature classification of the imaginary eigenvalues.

In the real-Fourier basis the restricted derivative is block diagonal
with 2x2 rotation blocks 2*pi*xi_k [[0, -1], [1, 0]] on each (cos, sin)
pair, so it maps the cosines to the sines.  A Hamiltonian spectrum has one
route: the odd block is positive semidefinite, as it is for every ground
state, so lambda^2 = -nu for the eigenvalues nu of one symmetric matrix
of order n/2-1 minus the odd kernel, T, formed from the odd block's
Cholesky factor, with one Householder reflector per deflated kernel
direction, by two triangular products.  An indefinite odd block raises
TheoryConsistencyError.  The error of nu measured at most 1.45 noise
units eps max|nu| on operators, which NOISE_BAND = 10 units covers, and
up to 16.8 and 6.0 units on two random blocks of the tests (an 8-point
block with an odd eigenvalue of 4e-7, and a 32-point block with a
2-dimensional odd kernel); a nu within NOISE_BAND units of a threshold
that decides its class raises UnresolvedEigenvalueError.  J S is the
same solve with unit weights on
the pairs: it is similar to D A, so it has the same nu and noise unit.
Every lambda is real, imaginary or zero, and the pair +-lambda shares one
eigenvector column, held as the real pair (x, u) of (x, lambda u): each
column is classified once, from its nu, and one evaluator gives every
Krein form in real arithmetic.  A counting verdict reads only k_r, the
number of nu < -zero_floor^2, and takes it as an inertia count of T, by
LDL^T factors at the ends of a noise band; it makes no eigensolve,
unless a nu lies in that band.  The solve without vectors takes the
eigenvalues of T only, with the same noise band, layout and zero bucket.

The even counts come from the wave's core where it settles them
(cores.core_count), and a counting verdict of unweighted blocks first
tries the wave's round-off core (cores.core_counts); where a certificate
fails there, the dense route above decides from the start.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import cores
from .errors import (FredholmViolationError, TheoryConsistencyError,
                     UnresolvedEigenvalueError)
from .operators import OperatorBlocks, pair_frequencies, span, to_coords
from .spectral import (TWO_PI, SpectralGrid, antiderivative, apply,
                       fractional_symbol, hilbert_symbol, inner_product,
                       quarter_root_symbol)

# defaults from the tolerance policy: scale-relative thresholds survive
# rescaling of the wave speed.  Imaginary eigenvalues within IM_TOL_REL *
# max|lambda| of each other are one cluster for the Krein forms: the
# dispersion tail makes max|lambda| huge (~xi^(s+1)), so a wider gap would
# merge distinct small eigenvalues, while the measured eigensolver noise is
# < 1e-11 max|lambda|.
ZERO_TOL_REL = 1e-8
IM_TOL_REL = 1e-9
SIG_TOL_REL = 1e-8

# |lambda| below this fraction of the first-mode magnitude of D(L0) counts
# as zero for the Hamiltonian product: eigenvalues under the box's first
# dispersion mode are unresolvable at the given truncation.  0.75 keeps the
# detached zero group of the borderline p = 2s families (a released pair
# sits at ~0.6x the first mode) while the regular ladder starts at >= 1x.
GKERNEL_FRACTION = 0.75

# half-width, in noise units eps max|nu|, of the band around the
# thresholds +-zero_floor^2 in which a Hamiltonian nu = -lambda^2 is refused.
# Against the full-order eigenvalues at s = 2, the error of nu is at most
# 1.12 units where |nu| <= 1e-4 max|nu| (grids (1024, 10) to (2048, 80)),
# and the nu nearest a threshold lies 12.7 units out at (4096, 80), p = 2.
NOISE_BAND = 10.0

# edge fraction used to pin the antiderivative to its decaying branch
ANCHOR_FRACTION = 0.02

# eigenvector columns per product where a loop over eigenvalues bounds the
# temporaries to n x _COLUMN_BLOCK instead of n x n
_COLUMN_BLOCK = 256


def _ldl(block: np.ndarray, shift: float, work: np.ndarray) -> tuple:
    """(LDL^T, ipiv): the Bunch-Kaufman factor of block + shift I, computed
    in a Fortran-ordered view of the head of the 1-D array work, or of the
    exactly symmetric block itself (its transpose) if work is the block.
    Upper storage with the blocked workspace reproduces scipy.linalg.solve(
    assume_a="sym") bit for bit; LAPACK's default workspace runs unblocked,
    about three times slower at order 1025."""
    n = block.shape[0]
    if work is block:
        out = block.T
    else:
        out = work[:block.size].reshape(block.shape, order="F")
        out[...] = block
    out.flat[::n + 1] += shift
    ldu, ipiv, _ = scipy.linalg.lapack.dsytrf(
        out, lower=0, lwork=int(scipy.linalg.lapack.dsytrf_lwork(n)[0]),
        overwrite_a=1)
    return ldu, ipiv


def _negatives(ldu: np.ndarray, ipiv: np.ndarray) -> int:
    """Negative eigenvalues of the factored matrix, by Sylvester's law
    those of D: the negative 1x1 pivots and, for each 2x2 pivot (two rows
    with the same negative ipiv), its negative eigenvalues."""
    d = ldu.diagonal()
    two = np.nonzero(ipiv < 0)[0][0::2]
    single = np.ones(d.size, dtype=bool)
    single[two] = single[two + 1] = False
    mid = 0.5 * (d[two] + d[two + 1])
    radius = np.hypot(0.5 * (d[two] - d[two + 1]), ldu[two, two + 1])
    return int(np.count_nonzero(d[single] < 0)
               + np.count_nonzero(mid - radius < 0)
               + np.count_nonzero(mid + radius < 0))


def _bracket(spans) -> tuple:
    """ZERO_TOL_REL times the ends of the bracket of max|w| over the
    symmetric blocks with the given spans (operators.span): max|a_ii|, a
    Rayleigh quotient, and the 1-norm, which bounds the 2-norm of a
    symmetric matrix."""
    return (ZERO_TOL_REL * max(block[0] for block in spans),
            ZERO_TOL_REL * max(block[2] for block in spans))


def _counts(block: np.ndarray, ends: tuple) -> tuple:
    """#{w < -z} at the ends z0 <= z1 of a bracket, from LDL^T factors in
    one work array (_ldl), at z1 unless the count at z0 is 0, which
    settles it."""
    work = np.empty(block.size)
    first = _negatives(*_ldl(block, ends[0], work))
    if first == 0:
        return first, first
    return first, _negatives(*_ldl(block, ends[1], work))


def _even_counts(P, ends: tuple) -> tuple:
    """The even block's counts at the ends of a bracket: from the wave's
    core where it settles them (cores.core_count), else from factors."""
    core = cores.core_count(P, ends)
    return _counts(P.block(0), ends) if core is None else (core, core)


def negative_count(P) -> int:
    """n(P) = #{w < -zero_tol}, zero_tol = ZERO_TOL_REL max|w| over both
    blocks, without the spectrum: #{w < -z} is the negative count of the
    LDL^T factor of each block + z I, at both ends z of the bracket of
    zero_tol (_bracket, _counts; the even block's span is read without
    assembling it), or for the even block, from the wave's core where it
    settles both (_even_counts).  Where the ends give
    different counts, the eigenvalues decide."""
    odd = P.block(1)
    ends = _bracket([P.span(0), span(odd)])
    counts = [_even_counts(P, ends), _counts(odd, ends)]
    if all(at_low == at_high for at_low, at_high in counts):
        return sum(at_low for at_low, _ in counts)
    values = [scipy.linalg.eigh(P.block(i), eigvals_only=True)
              for i in (0, 1)]
    tol = ZERO_TOL_REL * max(float(np.max(np.abs(w))) for w in values)
    return sum(int(np.count_nonzero(w < -tol)) for w in values)


def _decide(groups: list, spans: list) -> list | None:
    """The side of zero_tol of each eigenvalue w +- eps, for each group
    (w, eps): 0 below -1e3 zero_tol, 1 below -zero_tol, 2 within zero_tol
    (the kernel), 3 below 1e3 zero_tol (near-singular), 4 beyond.  None
    unless each interval lies on one side at both ends of the bracket of
    zero_tol that the blocks' spans give; every zero_tol between them then
    puts it on the same side."""
    def side(v, tol):
        return ((v >= -1e3 * tol).astype(int) + (v >= -tol) + (v > tol)
                + (v >= 1e3 * tol))
    ends = [max(span[i] for span in spans) for i in (0, 1)]
    sides = []
    for w, eps in groups:
        at = [side(w + d, tol) for d in (-eps, eps) for tol in ends]
        if not all(np.array_equal(at[0], a) for a in at[1:]):
            return None
        sides.append(at[0])
    return sides


# inverse iteration on the odd block: a ground state's kernel takes two to
# four steps from the constant start; more than _INVERSE_COLUMNS
# eigenvalues below the shift, as the sandwich |d|^(1/2) L |d|^(1/2) has
# in its near-singular band, go to the eigenpairs
_INVERSE_STEPS = 10
_INVERSE_COLUMNS = 4

def _inverse_iteration(block: np.ndarray, factor: tuple, count: int,
                       shift: float, spans: list) -> tuple | None:
    """(w, x, eps, sides): count Ritz pairs of block from inverse iteration
    with the LDL^T factor of block - shift I, started from a constant
    column (and seeded random ones past it).  With x orthonormal, count
    eigenvalues lie within eps = ||block x - x diag(w)||_F of the w
    (Kahan), so where every w + eps lies below the shift, they are the
    count eigenvalues that the factor puts there.  None unless that holds,
    and their sides (_decide) are certified, within _INVERSE_STEPS."""
    x = np.random.default_rng(0).standard_normal((block.shape[0], count))
    x[:, :1] = 1.0
    for _ in range(_INVERSE_STEPS * (count <= _INVERSE_COLUMNS)):
        x = np.linalg.qr(scipy.linalg.lapack.dsytrs(*factor, x)[0])[0]
        h = x.T @ (block @ x)
        w, turn = np.linalg.eigh(0.5 * (h + h.T))
        x = x @ turn
        eps = float(np.linalg.norm(block @ x - x * w))
        if np.all(w + eps < shift) and (sides := _decide([(w, eps)], spans)):
            return w, x, eps, sides
    return None


def _deflated_cholesky(block: np.ndarray, kernel: np.ndarray) -> tuple | None:
    """(C, kernel, qr, tau): the Cholesky factor C C^T of block + sigma K
    K^T, K the orthonormal kernel columns, in the block, and the
    Householder reflectors H (LAPACK's qr, tau) of C^-1 K.  Where
    K spans the kernel, block = C (I - P) C^T with P the projector onto
    span C^-1 K = H[:, :k], so block = (C H E)(C H E)^T with E the last
    columns of I.  None where the shifted block is not positive definite."""
    sigma = 1e-3 * float(np.max(np.abs(block.diagonal()))) or 1.0
    # in the exactly symmetric block's transpose: Fortran order, same entries
    if kernel.shape[1]:
        scipy.linalg.blas.dsyrk(sigma, kernel, beta=1.0, c=block.T, lower=1,
                                overwrite_c=1)
    c, info = scipy.linalg.lapack.dpotrf(block.T, lower=1, overwrite_a=1)
    if info:
        return None
    g = scipy.linalg.lapack.dtrtrs(c, kernel, lower=1)[0]
    return (c, kernel, *scipy.linalg.lapack.dgeqrf(g)[:2])


def _reflect(fac: tuple, a: np.ndarray, side: str, trans: str) -> np.ndarray:
    """H a, H^T a, a H or a H^T (side "L"/"R", trans "N"/"T") for the
    reflectors H of a deflated Cholesky factor, in place where a is
    Fortran-ordered."""
    _, kernel, qr, tau = fac
    if not kernel.shape[1]:
        return a
    return scipy.linalg.lapack.dormqr(side, trans, qr, tau, a, max(a.shape),
                                      overwrite_c=1)[0]


@dataclass(frozen=True, eq=False)
class SymmetricSpectrum:
    """Inertia of a symmetric matrix, with what its solves read: the even
    block's eigenvalues where they decided, and the odd block's eigenpairs
    below 1e3 z_high with the deflated Cholesky factor (_deflated_cholesky)
    that the odd solve and the Hamiltonian route share.  It keeps no factor
    of the even block: the constrained solve makes its own
    (_pseudo_solve_quadratic).  Every decision at the zero tolerance
    ZERO_TOL_REL max|w| over both blocks is made at both ends of its
    bracket, so zero_tol decides as the exact value does."""
    even_values: np.ndarray | None   # even eigenvalues, where they decided
    odd_low: tuple                   # (w, x): odd eigenpairs below 1e3 z_high
    odd_factor: tuple | None         # (C, kernel, qr, tau); None: indefinite
    zero_tol: float
    negative_count: int


def symmetric_spectrum(P) -> SymmetricSpectrum:
    """Inertia of a symmetric matrix, and the odd factor its solves read.

    Each block brackets its max|w| by max|a_ii| and its 1-norm (_bracket;
    the even block's read from its span, P.span, where it is not
    assembled), and z_high, the upper end of zero_tol, sets the shift 1e3
    z_high.
    Equal counts of the even block -+ the shift put no even eigenvalue
    within 1e3 zero_tol, so they are its count, and the block itself is
    not factored.  The shifted counts come from the wave's core where it
    settles them, else from factors (_even_counts).  The factor of the odd
    block - the shift counts its eigenvalues below the shift, and inverse
    iteration with it gives them as certified Ritz pairs: the kernel, kept
    near-singular ones and negative ones.  Where the shifted counts
    differ, or the Ritz pairs are not certified, the even eigenvalues,
    without vectors, decide in place of those counts and make the even
    span exact; where the Ritz pairs are not certified, or a decision
    differs between the ends of the bracket, the odd eigenpairs make
    zero_tol exact and decide in place of the Ritz pairs.  Without a
    negative odd eigenvalue, the odd block's Cholesky factor, taken in the
    odd block once its shifted factor is freed, deflates the kernel."""
    spans = [list(_bracket([P.span(0)]))]
    odd = P.block(1)
    spans.append(list(_bracket([span(odd)])))
    shift = 1e3 * max(high for _, high in spans)
    gap = set(_even_counts(P, (-shift, shift)))
    factor = _ldl(odd, -shift, np.empty(odd.size))
    low = _inverse_iteration(odd, factor, _negatives(*factor), shift, spans)
    del factor
    sides = None if low is None else low[3]
    even_values = None
    if low is None or len(gap) > 1:
        even_values = scipy.linalg.eigh(P.block(0), eigvals_only=True)
        spans[0] = [ZERO_TOL_REL * float(np.max(np.abs(even_values)))] * 2
        if low is not None:
            sides = _decide([(low[0], low[2]), (even_values, 0.0)], spans)
    if sides is None:
        # the odd eigenpairs decide, at the exact zero_tol
        values, vectors = scipy.linalg.eigh(odd)
        below = values < shift
        low = values[below], vectors[:, below]
        spans[1] = [ZERO_TOL_REL * float(np.max(np.abs(values)))] * 2
        sides = _decide([(low[0], 0.0), (even_values, 0.0)], spans)
    count = sum(int(np.count_nonzero(side <= 1)) for side in sides)
    count += gap.pop() if even_values is None else 0
    odd_factor = None if np.any(sides[0] <= 1) else _deflated_cholesky(
        odd, low[1][:, sides[0] == 2])
    return SymmetricSpectrum(even_values, low[:2], odd_factor,
                             max(high for _, high in spans), count)


def _anchor_to_edge(grid, values: np.ndarray) -> np.ndarray:
    """Shift by the edge plateau so the antiderivative decays at the box
    boundary, matching the line-problem branch.  The mean-zero branch of
    the periodic antiderivative carries an O(1/l) constant that would
    contaminate the constrained quantity."""
    edge = np.abs(grid.nodes) >= (1.0 - ANCHOR_FRACTION) * grid.half_length
    return values - float(np.mean(values[edge]))


def _decaying_antiderivative(grid, psi0: np.ndarray) -> np.ndarray:
    return _anchor_to_edge(grid, antiderivative(grid, psi0))


def _pseudo_solve_quadratic(P, eig: SymmetricSpectrum, rhs: tuple) -> float:
    """<A^+ rhs, rhs> with eigendirections |lambda| <= zero_tol dropped,
    for the right-hand side given by its (even, odd) coordinates.

    The even share is one solve with the LDL^T factor of P's even block,
    assembled and factored in place after the theory check below, and
    dropped on return.  A ground state's kernel is odd (Frank and
    Lenzmann, Acta Math. 210, 2013), so an even eigenvalue within zero_tol
    is a theory failure, and a kept one below 1e3 zero_tol makes the solve
    near-singular.  An odd
    direction is reached by the right-hand side when its overlap exceeds
    1e-6 ||rhs||, with the norm of the whole right-hand side: a block's
    own share of an even right-hand side can be pure round-off.  A reached
    kernel direction violates the Fredholm condition; a reached kept
    direction with |lambda| < 1e3 zero_tol makes the solve near-singular.
    Every odd direction of either kind is among the odd block's low
    eigenpairs, and its share is |(C H)^-1 b|^2 without the deflated
    coordinates, b the odd share without its kernel component.
    """
    tol, label = eig.zero_tol, P.label
    even, odd = rhs
    # without its eigenvalues, the even block has none below 1e3 zero_tol
    size = np.inf if eig.even_values is None else np.abs(eig.even_values)
    if np.any(size <= tol):
        raise TheoryConsistencyError(
            f"the even block of {label!r} has an eigenvalue within zero_tol "
            f"= {tol:.3e}: a ground state's kernel is odd")
    near_singular = bool(np.any(size < 1e3 * tol))
    block = P.block(0)
    total = float(even @ scipy.linalg.lapack.dsytrs(
        *_ldl(block, 0.0, block), even)[0])
    fac = _odd_factor(eig, label)
    c, kernel = fac[:2]
    y = scipy.linalg.lapack.dtrtrs(c, odd - kernel @ (kernel.T @ odd),
                                   lower=1)[0]
    y = _reflect(fac, y[:, None], "L", "T")[kernel.shape[1]:]
    total += float(np.sum(y ** 2))
    w, x = eig.odd_low
    proj = np.abs(x.T @ odd)
    rhs_norm = float(np.linalg.norm(np.concatenate(rhs)))
    reached, zero = proj > 1e-6 * rhs_norm, np.abs(w) <= tol
    if np.any(zero & reached):
        raise FredholmViolationError(
            f"right-hand side is not orthogonal to the kernel of {label!r} "
            f"(relative overlap "
            f"{np.max(proj[zero & reached]) / max(rhs_norm, 1e-300):.2e})")
    if near_singular or np.any(~zero & reached & (np.abs(w) < 1e3 * tol)):
        warnings.warn(f"near-singular constrained solve for {label!r}",
                      stacklevel=3)
    return total


def constrained_quantity(A, psi0: np.ndarray,
                         eig: SymmetricSpectrum) -> float:
    """<L^-1 (d^-1 psi0), d^-1 psi0> via the spectral pseudo-inverse, from
    the symmetric spectrum eig of A, the parity blocks of L.

    The antiderivative is pinned to its decaying branch; the solve drops
    the numerically computed kernel directions and verifies the Fredholm
    compatibility of the right-hand side first.
    """
    rhs = _decaying_antiderivative(A.grid, psi0)
    return _pseudo_solve_quadratic(A, eig, to_coords(A.grid, rhs))


def constrained_quantity_sandwiched(S, psi0: np.ndarray,
                                    eps: float, eig: SymmetricSpectrum) -> float:
    """The same quantity computed through the regularized sandwich S =
    sandwich(A, eps) of the parity blocks A of L, from the symmetric
    spectrum eig of S,

        <(Lsand_eps)^-1 g_eps, g_eps>,
        g_eps = (-d^2+eps^2)^(-1/4) |d| d^-1 psi0,

    which is how the eps-independence of the index is checked.
    """
    grid = S.grid
    quarter = quarter_root_symbol(grid, eps)
    # |d| d^-1 = -J on mean-zero fields; J is 0 on the zero mode, where
    # the quarter root vanishes at eps = 0
    sym = np.divide(-hilbert_symbol(grid), quarter, where=quarter > 0,
                    out=np.zeros(grid.n, dtype=complex))
    return _pseudo_solve_quadratic(S, eig, to_coords(grid, apply(sym, psi0)))


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
        grid, f = profile.grid, profile.values
        half = apply(fractional_symbol(grid, profile.s / 2.0), f)
        return inner_product(grid, f, f) + inner_product(grid, half, half)

    fd = (energy_pairing(u_family(c + dc)) - energy_pairing(u_family(c - dc))) / (2.0 * dc)

    s, p = normalized.s, normalized.p
    grid, qf = normalized.grid, normalized.values
    half_q = apply(fractional_symbol(grid, s / 2.0), qf)
    qq = inner_product(grid, qf, qf)
    hq = inner_product(grid, half_q, half_q)
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
    """Spectrum of the restricted D A (or J S, unit weights), each
    eigenvector held as its cosine coordinates x and its sine coordinates
    y = lambda u: D A v = lambda v reads -W A_sin y = lambda x and
    W A_cos x = lambda y.  Eigenvalue i reads the columns column[i] of x
    and u, both real: one pair per lambda^2 = -nu, shared by +-lambda, and
    a zero column, nu = 0, for the kernel pair.  Every lambda is real or
    imaginary."""
    eigenvalues: np.ndarray          # complex, length n-2, sorted by (imag, real)
    a_cos: np.ndarray                # cosine block of the restricted factor
    a_sin: np.ndarray                # sine block of the restricted factor
    weights: np.ndarray              # W on the (cos, sin) pairs: 2*pi*xi_k for D
    scale: float                     # max |lambda|
    zero_floor: float                # |lambda| <= zero_floor counts as zero
    x: np.ndarray | None             # cosine parts, None for counts only
    u: np.ndarray | None             # sine parts over lambda, or None
    column: np.ndarray               # column of x and u for each eigenvalue
    nu: np.ndarray                   # -lambda^2 of each column

    @property
    def modulus(self) -> np.ndarray:
        """|lambda| of each column."""
        return np.sqrt(np.abs(self.nu))

    def split(self) -> tuple:
        """(real, imaginary): masks of the columns outside the zero bucket
        |lambda| <= zero_floor, by the sign of nu."""
        zero = self.modulus <= self.zero_floor
        return ~zero & (self.nu < 0), ~zero & (self.nu > 0)

    def pairs(self, cols: np.ndarray) -> tuple:
        """(x, |lambda| u, A_cos x, |lambda| A_sin u) for the columns cols:
        the eigenvector (x, lambda u) with the phase lambda / |lambda|
        taken off its sine part, so that every entry is real."""
        lam = self.modulus[cols]
        x, u = self.x[:, cols], self.u[:, cols]
        return x, lam * u, self.a_cos @ x, lam * (self.a_sin @ u)


def _d_weights(grid: SpectralGrid) -> np.ndarray:
    """W of D on the (cos, sin) pairs, 2*pi*xi_k."""
    return TWO_PI * pair_frequencies(grid)


def _sorted(eigs: np.ndarray) -> np.ndarray:
    return np.lexsort((eigs.real, eigs.imag))


def _odd_factor(eig: SymmetricSpectrum, label: str) -> tuple:
    """The deflated Cholesky factor (C, kernel, qr, tau) of the odd block.
    A ground state's odd block, and every even congruence of it, is
    positive semidefinite with the kernel Q' (Frank and Lenzmann, Acta
    Math. 210, 2013): a negative eigenvalue there is a theory failure."""
    if eig.odd_factor is None:
        w = eig.odd_low[0]
        raise TheoryConsistencyError(
            f"the odd block of {label!r} has the eigenvalue {w[0]:.3e} below "
            f"-zero_tol = {-eig.zero_tol:.3e}: it is not positive semidefinite")
    return eig.odd_factor


def _restricted_t(t_mat: np.ndarray, fac: tuple,
                  weights: np.ndarray) -> np.ndarray:
    """T = R^T A_cos R, R = W C H E, formed in t_mat, a Fortran-ordered
    A_cos (the even block without its constant and Nyquist rows and
    columns), by two triangular products and the reflectors H of the odd
    block's deflated Cholesky factor fac = (C, kernel, qr, tau)
    (_odd_factor); E drops the deflated columns."""
    c, kernel = fac[:2]
    k = kernel.shape[1]
    t_mat *= weights[:, None]
    t_mat *= weights
    blas = scipy.linalg.blas
    t_mat = blas.dtrmm(1.0, c, t_mat, side=1, lower=1, overwrite_b=1)
    t_mat = blas.dtrmm(1.0, c, t_mat, lower=1, trans_a=1, overwrite_b=1)
    return _reflect(fac, _reflect(fac, t_mat, "L", "T"), "R", "N")[k:, k:]


def _t_spectrum(t_mat: np.ndarray, zero_floor: float, label: str,
                vectors: bool) -> tuple:
    """(nu, z, max|nu|): the eigenvalues of T, overwritten, and its
    eigenvectors if vectors (else None); UnresolvedEigenvalueError for a
    nu within NOISE_BAND noise units eps max|nu| of +-zero_floor^2."""
    # divide and conquer: faster than the default here, for an n^2 workspace
    found = scipy.linalg.eigh(t_mat, eigvals_only=not vectors,
                              overwrite_a=True, check_finite=False,
                              driver="evd")
    nu, z = found if vectors else (found, None)
    top = float(np.max(np.abs(nu), initial=0.0))
    noise = float(np.finfo(float).eps) * top
    # the distance to the nearer of +-zero_floor^2; where the zero bucket is
    # narrower than the band, the band also covers the threshold 0
    gap = np.abs(np.abs(nu) - zero_floor ** 2)
    if np.any(gap <= NOISE_BAND * noise):
        i = int(np.argmin(gap))
        raise UnresolvedEigenvalueError(
            f"{label!r}: lambda^2 = {-nu[i]:.6e} lies {gap[i] / noise:.2f} "
            f"noise units (eps max|nu| = {noise:.2e}) from +-zero_floor^2 = "
            f"{zero_floor ** 2:.6e}; its class cannot be read on this grid")
    return nu, z, top


def t_matrix(P, eig: SymmetricSpectrum) -> np.ndarray:
    """T (_restricted_t) of D A, formed in the A_cos of A's parity blocks P,
    from A's spectrum eig."""
    return _restricted_t(P.cos_block(), _odd_factor(eig, P.label),
                         _d_weights(P.grid))


def real_pair_count(t_mat: np.ndarray, zero_floor: float, label: str) -> int:
    """k_r = #{nu < -zero_floor^2} of the restricted D A, without its
    spectrum, from its T (t_matrix).  By Sylvester's law k_r is the
    negative count of the LDL^T factor of T + zero_floor^2 I, taken in one
    work array at the ends of the band NOISE_BAND eps ||T||_1 around the
    shift (_counts).  As ||T||_1 >= max|nu|, the band holds the refusal
    band of _t_spectrum around -zero_floor^2; where the ends differ, a nu
    lies in it, and the eigenvalues of the T in hand decide or refuse.  A
    nu near +zero_floor^2 is not refused: it decides zero against
    imaginary, and neither counts."""
    band = NOISE_BAND * float(np.finfo(float).eps) * float(
        np.linalg.norm(t_mat, 1))
    shift = zero_floor ** 2
    counts = set(_counts(t_mat, (shift - band, shift + band)))
    if len(counts) == 1:
        return counts.pop()
    nu = _t_spectrum(t_mat, zero_floor, label, vectors=False)[0]
    return int(np.count_nonzero(nu < -zero_floor ** 2))


def hamiltonian_eigensystem(P, eig: SymmetricSpectrum,
                            zero_floor: float,
                            weights: np.ndarray | None = None,
                            vectors: bool = True) -> HamiltonianEigensystem:
    """Eigenvalues, sorted by (imag, real), and eigenvectors if vectors
    (else x and u are None) of the restricted skew product with the
    weights W on the (cos, sin) pairs, given the symmetric spectrum eig of
    A; |lambda| <= zero_floor counts as zero.  Weights None are D's,
    2*pi*xi_k, for D A; unit weights give the J S of the sandwich.

    The odd block's deflated Cholesky factor gives A_sin = (C H E)(C H E)^T
    (_deflated_cholesky), so W A_sin W = R R^T with R = W C H E, and
    lambda^2 = -nu for the eigenpairs (nu, z) of T = R^T A_cos R, which
    two triangular products and the reflectors form; x = R z.  y = lambda
    u solves -W A_sin y = lambda x: u = -C^-T H E z plus the kernel share
    that W A_cos x = lambda y fixes (dividing W A_cos x by lambda would
    amplify the error of x by scale / |lambda|).  With vectors, real roots
    are refined by the two-sided Rayleigh quotient; without, nu are T's
    eigenvalues.  The vectors are those of the product with the odd kernel
    deflated, and the quotient on the undeflated A_sin restores, to first
    order, the kernel components that T drops: a real root near the
    generalized kernel needs them, as its u lies almost wholly on the
    kernel.  At fkdv (2, 4.1, 1), n = 2048, lambda is 1.0e-9 from the dense
    two-sided reference 0.0472719683, and 8.8e-8 with the deflated A_sin.

    The error of nu measured at most 1.45 noise units eps max|nu| on
    operators, and up to 16.8 on random blocks (see the module
    docstring); that of lambda is that of nu over 2 |lambda|.  A nu
    within NOISE_BAND units of +-zero_floor^2, where its class would
    change, raises UnresolvedEigenvalueError; a
    zero-bucket nu below one unit goes on the imaginary axis.  An
    indefinite odd block raises TheoryConsistencyError."""
    a_cos, a_sin = P.block(0)[1:-1, 1:-1], P.block(1)
    weights = _d_weights(P.grid) if weights is None else weights
    fac = _odd_factor(eig, P.label)
    c, kernel = fac[:2]
    k = kernel.shape[1]
    nu, z, top = _t_spectrum(_restricted_t(P.cos_block(), fac, weights),
                             zero_floor, P.label, vectors)
    noise, scale = float(np.finfo(float).eps) * top, float(np.sqrt(top))
    t = nu.size
    x = u = None
    if vectors:
        # E z, with one zero column past the last for the kernel pair
        u = np.zeros((t + k, t + 1), order="F")
        u[k:, :t] = z
        del z
        u = _reflect(fac, u, "L", "N")
        blas = scipy.linalg.blas
        x = blas.dtrmm(1.0, c, u, lower=1)
        x *= weights[:, None]
        u = blas.dtrsm(-1.0, c, u, lower=1, trans_a=1, overwrite_b=1)
        share = (a_cos @ (weights[:, None] * kernel)).T @ x[:, :t]
        u[:, :t] -= kernel @ (share / nu)
        # A (x, -y) is a left eigenvector for a real lambda, so the
        # two-sided Rayleigh quotient's error is quadratic in that of the
        # vectors
        real = np.nonzero(nu < -zero_floor ** 2)[0]
        lam, xr, ur = np.sqrt(-nu[real]), x[:, real], u[:, real]
        ax, au = a_cos @ xr, a_sin @ ur
        nu[real] = -(2.0 * lam * np.sum(ax * weights[:, None] * au, axis=0)
                     / (np.sum(xr * ax, axis=0)
                        - lam ** 2 * np.sum(ur * au, axis=0))) ** 2
    # a generalized-kernel pair splits by about one noise unit, to the real
    # or the imaginary axis by a rounding that changes with the BLAS thread
    # count: a zero-bucket nu below one unit goes on the imaginary axis
    nu = np.where(np.abs(nu) <= min(noise, zero_floor ** 2), np.abs(nu), nu)
    root = np.sqrt((-nu).astype(complex))
    # 0 - root, not -root, so that zero parts print as 0.0, not -0.0
    eigs = np.concatenate([root, 0.0 - root, np.zeros(2 * k)])
    column = np.concatenate([np.arange(t), np.arange(t), np.full(2 * k, t)])
    order = _sorted(eigs)
    return HamiltonianEigensystem(
        eigenvalues=eigs[order], a_cos=a_cos, a_sin=a_sin, weights=weights,
        scale=scale, zero_floor=zero_floor, x=x, u=u, column=column[order],
        nu=np.append(nu, 0.0))


def eigenpair_residual(ham: HamiltonianEigensystem) -> float:
    """max ||D A v - lambda v|| / (scale ||v||) over the columns outside
    the zero bucket, one per pair +-lambda, _COLUMN_BLOCK at a time so
    that no full-order eigenvector matrix is formed.  With the real pairs,
    the residual is (W A_sin y + |lambda| x, W A_cos x + nu / |lambda| y)."""
    real, imag = ham.split()
    cols = np.nonzero(real | imag)[0]
    w = ham.weights[:, None]
    worst = 0.0
    for start in range(0, cols.size, _COLUMN_BLOCK):
        part = cols[start:start + _COLUMN_BLOCK]
        x, y, ax, ay = ham.pairs(part)
        lam = ham.modulus[part]
        turn = np.where(real[part], lam, -lam)
        res = (w * ay + lam * x) ** 2 + (w * ax - turn * y) ** 2
        rel = np.sqrt(np.sum(res, axis=0) / np.sum(x * x + y * y, axis=0))
        worst = max(worst, float(np.max(rel)) / ham.scale)
    return worst


CLASS_ZERO = "ZERO"
CLASS_REAL_POS = "REAL_POS"
CLASS_REAL_NEG = "REAL_NEG"
CLASS_IMAG_POS = "IMAG_POS_SIG"
CLASS_IMAG_NEG = "IMAG_NEG_SIG"
CLASS_INDET = "INDET"


@dataclass(frozen=True, eq=False)
class KreinClassification:
    k_r: int
    k_i_minus: int
    indeterminate: tuple          # (eigenvalue, form value) pairs
    sig_tol: float
    classes: tuple                # one label per eigenvalue (sorted order)
    form_values: np.ndarray       # Krein form value, nan off the imaginary axis


def _cluster_indices(values: np.ndarray, gap: float) -> list:
    """Group sorted positions whose consecutive difference is <= gap."""
    return np.split(np.arange(values.size),
                    np.nonzero(np.diff(values) > gap)[0] + 1)


def _krein_forms(ham: HamiltonianEigensystem, cols: np.ndarray,
                 clusters: list) -> np.ndarray:
    """Krein form values of the imaginary columns cols, grouped into
    clusters of positions in cols.  The eigenvector of lambda is
    (x, lambda u), so a singleton's <A v, v> / <v, v> is (x^T A_cos x +
    |lambda|^2 u^T A_sin u) / (|x|^2 + |lambda|^2 |u|^2), evaluated
    _COLUMN_BLOCK columns at a time; a cluster takes the eigenvalues of
    the Gram pencil of the real pairs on its span, ascending."""
    lam2 = ham.modulus[cols] ** 2
    out = np.empty(cols.size)
    single = np.array([c[0] for c in clusters if c.size == 1], dtype=int)
    for start in range(0, single.size, _COLUMN_BLOCK):
        j = single[start:start + _COLUMN_BLOCK]
        x, u, w2 = ham.x[:, cols[j]], ham.u[:, cols[j]], lam2[j]
        form = np.sum(x * (ham.a_cos @ x), axis=0) \
            + w2 * np.sum(u * (ham.a_sin @ u), axis=0)
        out[j] = form / (np.sum(x * x, axis=0) + w2 * np.sum(u * u, axis=0))
    for cluster in clusters:
        if cluster.size > 1:
            x, y, ax, ay = ham.pairs(cols[cluster])
            g = x.T @ ax + y.T @ ay
            gram = x.T @ x + y.T @ y
            out[cluster] = scipy.linalg.eigh(
                0.5 * (g + g.T), 0.5 * (gram + gram.T), eigvals_only=True)
    return out


def classify_krein(ham: HamiltonianEigensystem) -> KreinClassification:
    """Sort the Hamiltonian eigenvalues into Krein buckets, once per
    eigenvector column, from the column's nu = -lambda^2.

    A column in the zero bucket (HamiltonianEigensystem.split) gives ZERO
    rows.  A real column, nu < 0, gives a REAL_POS and a REAL_NEG row, and
    k_r counts these columns.  An imaginary column, nu > 0, is classified
    by the sign of the form <A v, v> on its eigenspace, a cluster of
    columns within IM_TOL_REL max|lambda| by the Gram pencil on their
    span; both rows +-lambda take the column's class and form value.
    Negative directions double into k_i_minus, and form values within
    sig_tol of zero land in the indeterminate list rather than being
    counted.  sig_tol is SIG_TOL_REL times the 1-norm of the restricted
    factor.

    The eigensystem's zero_floor widens the zero bucket to
    |lambda| <= zero_floor: callers pass a fraction of the box's first
    dispersion mode so that sub-box-resolution eigenvalues (the
    generalized-kernel group and its truncation-split debris) are never
    misread as unstable modes.
    """
    # the 1-norm of the restricted factor, block diagonal by parity
    sig_tol = SIG_TOL_REL * max(float(np.linalg.norm(ham.a_cos, 1)),
                                float(np.linalg.norm(ham.a_sin, 1)))
    real, imag = ham.split()
    lam = ham.modulus
    cols = np.nonzero(imag)[0]
    cols = cols[np.argsort(lam[cols], kind="stable")]
    forms = np.full(lam.size, np.nan)
    forms[cols] = _krein_forms(
        ham, cols, _cluster_indices(lam[cols], IM_TOL_REL * ham.scale))

    labels = np.full(lam.size, CLASS_ZERO, dtype=object)
    labels[real] = CLASS_REAL_POS
    labels[imag] = CLASS_INDET
    labels[forms > sig_tol] = CLASS_IMAG_POS
    labels[forms < -sig_tol] = CLASS_IMAG_NEG
    classes = labels[ham.column]
    classes[(classes == CLASS_REAL_POS) & (ham.eigenvalues.real < 0)] = \
        CLASS_REAL_NEG
    return KreinClassification(
        k_r=int(np.count_nonzero(real)),
        k_i_minus=2 * int(np.count_nonzero(forms < -sig_tol)),
        indeterminate=tuple((complex(0.0, lam[j]), float(forms[j]))
                            for j in cols if labels[j] == CLASS_INDET),
        sig_tol=float(sig_tol), classes=tuple(classes),
        form_values=forms[ham.column])


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

    Counts the eigenvalues of the zero bucket of HamiltonianEigensystem.split,
    |lambda| <= ham.zero_floor: the pipeline sets that floor to
    GKERNEL_FRACTION * gkernel_floor, and anything below a fixed fraction
    of the box's first dispersion mode is indistinguishable from zero at
    this truncation.
    """
    real, imag = ham.split()
    return int(np.count_nonzero(~(real | imag)[ham.column]))


def spectrum_rows(ham: HamiltonianEigensystem, cls: KreinClassification) -> list:
    """(re, im, class, krein_form_value) rows for the CSV export."""
    return [(float(lam.real), float(lam.imag), str(label), float(form))
            for lam, label, form in zip(ham.eigenvalues, cls.classes,
                                        cls.form_values)]
