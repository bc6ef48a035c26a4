"""Eigenvalue computations for the stability pipeline.

Symmetric matrices (assembled in the orthonormal real-Fourier basis) feed
three kinds of quantities:

* inertia-style counts n(.) and kernels, from a dense symmetric solve;
* the constrained quantity <L^-1 w, w> with w the decaying antiderivative
  of the kernel generator, via a spectral pseudo-inverse;
* the spectrum of the Hamiltonian product (d/dx) L on the subspace where
  the derivative is invertible (zero mode and Nyquist column removed),
  with Krein-signature classification of the imaginary eigenvalues.

In the real-Fourier basis the restricted derivative is block diagonal
with 2x2 rotation blocks 2*pi*xi_k [[0, -1], [1, 0]] on each (cos, sin)
pair, so forming D A costs O(n^2).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import FredholmViolationError
from .operators import DenseMatrix, LinOperator, assemble, pair_frequencies, \
    symmetry_defect, to_coords, from_coords, SYMMETRY_TOL
from .spectral import (TWO_PI, RealField, SpectralGrid,
                       antiderivative_multiplier, apply_multiplier,
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


@dataclass(frozen=True, eq=False)
class SpectralReport:
    label: str
    eigenvalues: np.ndarray
    zero_tol: float
    negative_count: int
    kernel_dim: int
    kernel_vectors: tuple


def sym_eig(A: DenseMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Full symmetric eigendecomposition; rejects non-symmetric input."""
    defect = symmetry_defect(A.entries)
    if defect > SYMMETRY_TOL:
        raise ValueError(f"matrix {A.label!r} is not symmetric "
                         f"(defect {defect:.2e})")
    return scipy.linalg.eigh(A.entries)


def report_from_eig(A: DenseMatrix, w: np.ndarray, v: np.ndarray,
                    zero_tol: float | None = None) -> SpectralReport:
    scale = float(np.max(np.abs(w))) if w.size else 0.0
    tol = zero_tol if zero_tol is not None else ZERO_TOL_REL * scale
    negative = int(np.count_nonzero(w < -tol))
    kernel_mask = np.abs(w) <= tol
    if A.grid is not None:
        kernel_vectors = tuple(from_coords(A.grid, v[:, i])
                               for i in np.nonzero(kernel_mask)[0])
    else:
        kernel_vectors = tuple(v[:, i] for i in np.nonzero(kernel_mask)[0])
    return SpectralReport(label=A.label, eigenvalues=w, zero_tol=tol,
                          negative_count=negative,
                          kernel_dim=int(np.count_nonzero(kernel_mask)),
                          kernel_vectors=kernel_vectors)


def symmetric_spectrum(A: DenseMatrix, zero_tol: float | None = None) -> SpectralReport:
    w, v = sym_eig(A)
    return report_from_eig(A, w, v, zero_tol)


def _anchor_to_edge(grid, values: np.ndarray) -> np.ndarray:
    """Shift by the edge plateau so the antiderivative decays at the box
    boundary, matching the line-problem branch.  The mean-zero branch of
    the periodic antiderivative carries an O(1/l) constant that would
    contaminate the constrained quantity."""
    edge = np.abs(grid.nodes) >= (1.0 - ANCHOR_FRACTION) * grid.half_length
    return values - float(np.mean(values[edge]))


def decaying_antiderivative(psi0: RealField) -> RealField:
    w = apply_multiplier(antiderivative_multiplier(psi0.grid), psi0)
    return RealField(psi0.grid, _anchor_to_edge(psi0.grid, w.values))


def _pseudo_solve_quadratic(w: np.ndarray, v: np.ndarray, rhs_coords: np.ndarray,
                            zero_tol_abs: float, label: str) -> float:
    """<A^+ rhs, rhs> with eigendirections |lambda| <= tol dropped."""
    proj = v.T @ rhs_coords
    rhs_norm = float(np.linalg.norm(rhs_coords))
    kernel = np.abs(w) <= zero_tol_abs
    bad = kernel & (np.abs(proj) > 1e-6 * rhs_norm)
    if np.any(bad):
        worst = float(np.max(np.abs(proj[bad]))) / max(rhs_norm, 1e-300)
        raise FredholmViolationError(
            f"right-hand side is not orthogonal to the kernel of {label!r} "
            f"(relative overlap {worst:.2e})")
    kept = ~kernel
    if np.any(np.abs(w[kept]) < 1e3 * zero_tol_abs):
        warnings.warn(f"near-singular constrained solve for {label!r}",
                      stacklevel=3)
    return float(np.sum(proj[kept] ** 2 / w[kept]))


def constrained_quantity(L: LinOperator | DenseMatrix, psi0: RealField,
                         zero_tol: float | None = None,
                         eig: tuple | None = None) -> float:
    """<L^-1 (d^-1 psi0), d^-1 psi0> via the spectral pseudo-inverse.

    eig, when given, is the eigensystem (w, v) of the assembled L; then
    nothing is assembled and L may be that matrix itself.  The
    antiderivative is pinned to its decaying branch; the solve drops the
    numerically computed kernel directions and verifies the Fredholm
    compatibility of the right-hand side first.
    """
    w, v = eig if eig is not None else sym_eig(assemble(L))
    rhs = decaying_antiderivative(psi0)
    coords = to_coords(L.grid, rhs.values)
    scale = float(np.max(np.abs(w)))
    tol = zero_tol if zero_tol is not None else ZERO_TOL_REL * scale
    return _pseudo_solve_quadratic(w, v, coords, tol, L.label)


def constrained_quantity_sandwiched(L: LinOperator, psi0: RealField, eps: float,
                                    zero_tol: float | None = None) -> float:
    """The same quantity computed through the regularized sandwich,

        <(Lsand_eps)^-1 g_eps, g_eps>,
        g_eps = (-d^2+eps^2)^(-1/4) |d| d^-1 psi0,

    which is how the eps-independence of the index is checked.
    """
    from .operators import sandwich
    from .spectral import Multiplier

    grid = L.grid
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
    S = sandwich(L, eps)
    w, v = sym_eig(S)
    coords = to_coords(grid, g.values)
    scale = float(np.max(np.abs(w)))
    tol = zero_tol if zero_tol is not None else ZERO_TOL_REL * scale
    return _pseudo_solve_quadratic(w, v, coords, tol, S.label)


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
        ( [(4-p)sc + 2(s-1)p] <Q,Q> + [2sc + (s-1)p] <|d|^(s/2) Q, |d|^(s/2) Q> ).

    A mismatch beyond 5 percent flags the step as too large.
    """
    from .spectral import fractional_derivative_multiplier, inner_product
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
    bracket = ((4.0 - p) * s * c + 2.0 * (s - 1.0) * p) * qq \
        + (2.0 * s * c + (s - 1.0) * p) * hq
    closed = (c - 1.0) ** (2.0 / p - 1.0 / s - 1.0) * c ** (1.0 / s - 2.0) \
        * bracket / (p * s)
    mismatch = abs(fd - closed) > 0.05 * max(abs(fd), abs(closed), 1e-300)
    return BbmSlope(finite_difference=fd, closed_form=closed, step_warning=mismatch)


# ---------------------------------------------------------------------------
# Hamiltonian product (d/dx) L on the mean-zero, Nyquist-free subspace
# ---------------------------------------------------------------------------

def restricted(A: DenseMatrix) -> np.ndarray:
    """Drop the zero-mode and Nyquist rows/columns (indices 0 and n-1)."""
    return A.entries[1:-1, 1:-1]


def _restricted_product(A: DenseMatrix, weights: np.ndarray | None = None):
    """(A_r, D A_r) on the restricted subspace, where D is block diagonal
    with 2x2 rotation blocks weights_k [[0, -1], [1, 0]]: by default the
    derivative, weights 2*pi*xi_k; unit weights give the Hilbert transform."""
    if A.grid is None:
        raise ValueError("Hamiltonian product needs the grid reference")
    a_r = restricted(A)
    if weights is None:
        weights = TWO_PI * pair_frequencies(A.grid)
    da = np.empty_like(a_r)
    da[0::2, :] = -weights[:, None] * a_r[1::2, :]
    da[1::2, :] = weights[:, None] * a_r[0::2, :]
    return a_r, da


@dataclass(frozen=True, eq=False)
class HamiltonianEigensystem:
    eigenvalues: np.ndarray          # complex, length n-2
    vectors: np.ndarray              # complex columns, matching order
    a_restricted: np.ndarray         # the symmetric factor on the subspace
    grid: object
    scale: float                     # max |lambda|
    quadruple_defect: float          # distance from {-conj(lambda)} closure


def _quadruple_defect(eigs: np.ndarray, scale: float) -> float:
    if eigs.size == 0 or scale == 0.0:
        return 0.0
    mirror = -np.conj(eigs)
    dist = np.abs(eigs[:, None] - mirror[None, :]).min(axis=1)
    return float(dist.max()) / scale


def hamiltonian_eigensystem(A: DenseMatrix) -> HamiltonianEigensystem:
    """Eigenvalues, sorted by (imag, real), and eigenvectors of the
    restricted D A."""
    defect = symmetry_defect(A.entries)
    if defect > SYMMETRY_TOL:
        raise ValueError(f"symmetric factor has asymmetry defect {defect:.2e}")
    a_r, da = _restricted_product(A)
    eigs, vecs = scipy.linalg.eig(da, check_finite=False)
    order = np.lexsort((eigs.real, eigs.imag))
    eigs, vecs = eigs[order], vecs[:, order]
    scale = float(np.max(np.abs(eigs))) if eigs.size else 0.0
    return HamiltonianEigensystem(
        eigenvalues=eigs, vectors=vecs, a_restricted=a_r, grid=A.grid,
        scale=scale, quadruple_defect=_quadruple_defect(eigs, scale))


def sandwich_hamiltonian_spectrum(S: DenseMatrix) -> np.ndarray:
    """Eigenvalues of J S on the restricted subspace (the reformulated
    problem, where the skew factor is the bounded Hilbert transform)."""
    _, js = _restricted_product(S, np.ones(S.order // 2 - 1))
    eigs = scipy.linalg.eigvals(js, check_finite=False)
    order = np.lexsort((eigs.real, eigs.imag))
    return eigs[order]


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
    clusters, current = [], [0]
    for i in range(1, len(values)):
        if values[i] - values[i - 1] <= gap:
            current.append(i)
        else:
            clusters.append(current)
            current = [i]
    clusters.append(current)
    return clusters


def classify_krein(ham: HamiltonianEigensystem,
                   re_tol: float | None = None,
                   im_tol: float | None = None,
                   sig_tol: float | None = None,
                   zero_floor: float = 0.0) -> KreinClassification:
    """Sort the Hamiltonian eigenvalues into Krein buckets.

    k_r counts real eigenvalues in the right half-plane, k_c complex ones
    there (with conjugates, hence even).  Purely imaginary eigenvalues are
    classified by the sign of the Hermitian form <A v, v> on their
    eigenspace; negative directions double into k_i_minus (conjugate pairs
    carry equal counts) and form values within sig_tol of zero land in the
    indeterminate list rather than being counted.

    zero_floor widens the zero bucket to |lambda| <= zero_floor: callers
    pass a fraction of the box's first dispersion mode so that sub-box-
    resolution eigenvalues (the generalized-kernel group and its
    truncation-split debris) are never misread as unstable modes.
    """
    eigs = ham.eigenvalues
    scale = ham.scale if ham.scale > 0 else 1.0
    re_tol = RE_TOL_REL * scale if re_tol is None else re_tol
    im_tol = IM_TOL_REL * scale if im_tol is None else im_tol
    if sig_tol is None:
        sig_tol = SIG_TOL_REL * float(np.linalg.norm(ham.a_restricted, 1))

    classes = np.empty(len(eigs), dtype=object)
    forms = np.full(len(eigs), np.nan)

    re, im = eigs.real, eigs.imag
    zero = ((np.abs(re) <= re_tol) & (np.abs(im) <= im_tol)) \
        | (np.abs(eigs) <= zero_floor)
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
    upper_classes: dict = {}
    if upper.size:
        vec_u = ham.vectors[:, upper]
        av = ham.a_restricted @ vec_u
        gap = max(im_tol, 1e-9 * scale)
        for cluster in _cluster_indices(im[upper], gap):
            members = [upper[i] for i in cluster]
            if len(cluster) == 1:
                v = vec_u[:, cluster[0]]
                denom = float(np.real(np.vdot(v, v)))
                vals = np.array([float(np.real(np.vdot(v, av[:, cluster[0]]))) / denom])
            else:
                vc = vec_u[:, cluster]
                g = vc.conj().T @ av[:, cluster]
                g = 0.5 * (g + g.conj().T)
                gram = vc.conj().T @ vc
                vals = scipy.linalg.eigh(g, 0.5 * (gram + gram.conj().T),
                                         eigvals_only=True)
            vals = np.sort(vals)
            for idx, val in zip(members, vals):
                forms[idx] = val
                if val < -sig_tol:
                    upper_classes[idx] = CLASS_IMAG_NEG
                    neg_total += 1
                elif val > sig_tol:
                    upper_classes[idx] = CLASS_IMAG_POS
                else:
                    upper_classes[idx] = CLASS_INDET
                    indeterminate.append((complex(eigs[idx]), float(val)))
    for idx, label in upper_classes.items():
        classes[idx] = label

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


def generalized_kernel_dim(L: LinOperator, tol: float = GKERNEL_FRACTION) -> int:
    """Algebraic multiplicity of 0 in the restricted D A spectrum.

    Counts eigenvalues with |lambda| <= tol * gkernel_floor: anything
    below a fixed fraction of the box's first dispersion mode is
    indistinguishable from zero at this truncation.
    """
    _, da = _restricted_product(assemble(L))
    eigs = scipy.linalg.eigvals(da, check_finite=False)
    floor = gkernel_floor(L.grid, L.multiplier_symbol)
    return int(np.count_nonzero(np.abs(eigs) <= tol * floor))


def spectrum_rows(ham: HamiltonianEigensystem, cls: KreinClassification) -> list:
    """(re, im, class, krein_form_value) rows for the CSV export."""
    rows = []
    for lam, label, form in zip(ham.eigenvalues, cls.classes, cls.form_values):
        rows.append((float(lam.real), float(lam.imag), str(label), float(form)))
    return rows
