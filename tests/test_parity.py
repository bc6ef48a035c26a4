"""The parity split against the dense full-order path.

Every solve of the verdict pipeline runs on the even (cosine) and odd
(sine) blocks of the symmetric factor.  The full-order solves stay as the
reference: one eigh of A and one eig of the restricted D A or J S, all in
dense_reference, and the full-order eig of spectra, which is also the
Hamiltonian fallback.
"""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

from hkindex import operators as op
from hkindex import spectra as spc
from hkindex import spectral as sp
from hkindex import verdicts as vd
from hkindex import waves as wv
from hkindex.errors import FredholmViolationError
from hkindex.spectral import TWO_PI

from conftest import diagonal_on_grid, eigensystem, kernel_dim, quiet
from dense_reference import (dense_congruence, dense_hamiltonian_eigenvalues,
                             dense_inertia, dense_matrix,
                             dense_sandwich_hamiltonian_eigenvalues,
                             eigenvector_pseudo_quadratic, interleave,
                             split_parity)

REGRESSION_CASES = [(wv.FKDV, 2.0, 2.0, 1.0), (wv.FKDV, 2.0, 5.0, 1.0),
                    (wv.FBBM, 2.0, 2.0, 2.0)]
SMALL = vd.NumericsConfig(n=512, half_length=30.0)


def nearest_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Largest distance from a point of either set to the other set."""
    gaps = np.abs(a[:, None] - b[None, :])
    return float(max(gaps.min(axis=1).max(), gaps.min(axis=0).max()))


@pytest.fixture(scope="module", params=REGRESSION_CASES,
                ids=lambda c: "-".join(map(str, c)))
def small_pipeline(request):
    model, s, p, c = request.param
    with quiet():
        data = getattr(vd, f"{wv.MODELS[model].kind}_verdict")(
            s, p, c, SMALL, keep_pipeline=True)
    return wv.MODELS[model], data


def dense_factor(model, data) -> np.ndarray:
    """The pipeline's symmetric factor, assembled through the basis matrix
    and, for a weighted model, congruent by (I+M)^(-1/2) on the full
    matrix, cross block included."""
    A = dense_matrix(data.operator)
    if model.weighted:
        A = dense_congruence(A, data.grid,
                             op.symmetrizing_weight(data.grid, data.wave.s))
    return A


def constrained_rhs(model, data) -> tuple:
    """The (even, odd) coordinates of the constrained solve's right-hand
    side, the decaying antiderivative of psi0 (weighted for fBBM)."""
    psi0 = sp.apply_multiplier(sp.derivative_multiplier(data.grid),
                               data.wave.as_field())
    if model.weighted:
        weight = op.symmetrizing_weight(data.grid, data.wave.s)
        psi0 = sp.apply_multiplier(
            sp.Multiplier(data.grid, 1.0 / weight, "sqrt(I+M)"), psi0)
    rhs = spc._decaying_antiderivative(psi0)
    return op.to_coords(data.grid, rhs.values)


class TestAgainstDensePath:
    def test_counts_and_constrained_quantity(self, small_pipeline):
        model, data = small_pipeline
        n_neg, kernel, (w, v, tol) = dense_inertia(dense_factor(model, data))
        report = spc.symmetric_spectrum(data.matrix)
        assert data.result.n_L == report.negative_count == n_neg
        assert kernel_dim(report) == kernel
        proj = v.T @ interleave(constrained_rhs(model, data))
        kept = np.abs(w) > tol
        d_dense = float(np.sum(proj[kept] ** 2 / w[kept]))
        assert data.result.d == pytest.approx(d_dense, rel=1e-10, abs=0.0)

    def test_hamiltonian_spectrum_and_classes(self, small_pipeline):
        model, data = small_pipeline
        ham, cls = data.eigensystem, data.classification
        assert ham.y is None
        reference = dense_factor(model, data)
        dense = spc._full_order(
            *spc._factor(split_parity(reference, data.grid)), ham.zero_floor)
        dense_cls = spc.classify_krein(dense)
        # the symmetric route reports the deflated kernel pair at 0, among
        # the real eigenvalues, where the dense solve splits it to
        # +-delta i: the ZERO rows may sort elsewhere, so they are counted,
        # and every other row is compared in order
        classes = np.array(cls.classes)
        dense_classes = np.array(dense_cls.classes)
        zero, dense_zero = (classes == spc.CLASS_ZERO,
                            dense_classes == spc.CLASS_ZERO)
        assert np.count_nonzero(zero) == np.count_nonzero(dense_zero)
        assert np.array_equal(classes[~zero], dense_classes[~dense_zero])
        assert (cls.k_r, cls.k_c, cls.k_i_minus) == \
            (dense_cls.k_r, dense_cls.k_c, dense_cls.k_i_minus)
        big = np.abs(dense.eigenvalues) > 1e-3 * dense.scale
        rel = np.abs(ham.eigenvalues[big] - dense.eigenvalues[big]) \
            / np.abs(dense.eigenvalues[big])
        assert rel.max() <= 1e-9
        forms = np.isfinite(dense_cls.form_values)
        assert np.array_equal(forms, np.isfinite(cls.form_values))
        assert np.array_equal(np.sign(cls.form_values[forms]),
                              np.sign(dense_cls.form_values[forms]))
        eigs = dense_hamiltonian_eigenvalues(reference, data.grid)
        eigs = eigs[np.abs(eigs) > 1e-3 * dense.scale]
        assert np.count_nonzero(big) == eigs.size
        gaps = np.abs(ham.eigenvalues[:, None] - eigs[None, :]).min(axis=0)
        assert np.max(gaps / np.abs(eigs)) <= 1e-9

    def test_unstable_eigenvalue_near_threshold(self):
        # gKdV p = 4.1 on the default grid: the unstable lambda ~ 0.047 sits
        # at 7e-7 of max|lambda|, where squaring costs the most accuracy.
        # The root of T alone is about 1e-6 off; the two-sided Rayleigh
        # quotient brings it to about 1e-8
        with quiet():
            data = vd.kdv_verdict(2.0, 4.1, 1.0, keep_pipeline=True)
        ham, cls = data.eigensystem, data.classification
        dense = spc._full_order(*spc._factor(data.matrix), ham.zero_floor)
        dense_cls = spc.classify_krein(dense)
        got = ham.eigenvalues[np.array(cls.classes) == spc.CLASS_REAL_POS]
        want = dense.eigenvalues[
            np.array(dense_cls.classes) == spc.CLASS_REAL_POS]
        assert got.size == want.size == 1
        assert abs(got[0] - want[0]) <= 1e-7 * abs(want[0])


# (model, s, p, c, half_length) at n = 512: the p = 4.1 box is the
# smallest whose zero floor stays below the unstable eigenvalue
INDEX_CASES = [(wv.FKDV, 2.0, 2.0, 1.0, 30.0), (wv.FKDV, 2.0, 5.0, 1.0, 30.0),
               (wv.FKDV, 2.0, 4.1, 1.0, 56.0), (wv.FBBM, 1.5, 1.0, 1.5, 100.0)]


@pytest.fixture(scope="module", params=INDEX_CASES,
                ids=lambda c: "-".join(map(str, c[:4])))
def spied_pipeline(request):
    """(model, pipeline, eigh calls): every scipy.linalg.eigh call of one
    verdict, as (matrix, keyword arguments)."""
    model, s, p, c, half_length = request.param
    calls = []

    def spy(a, *args, _eigh=scipy.linalg.eigh, **kw):
        calls.append((a, kw))
        return _eigh(a, *args, **kw)

    with pytest.MonkeyPatch.context() as mp, quiet():
        mp.setattr(scipy.linalg, "eigh", spy)
        data = getattr(vd, f"{wv.MODELS[model].kind}_verdict")(
            s, p, c, vd.NumericsConfig(n=512, half_length=half_length),
            keep_pipeline=True)
    return wv.MODELS[model], data, calls


def complex_reference(ham: spc.HamiltonianEigensystem):
    """The symmetric-route eigensystem as the full-order solve holds it,
    complex (x, y = lambda u) per eigenvalue, so that classify_krein
    takes its complex path."""
    return dataclasses.replace(
        ham, x=ham.x[:, ham.column], y=ham.eigenvalues * ham.u[:, ham.column],
        u=None, column=np.arange(ham.eigenvalues.size))


def assert_same_classification(cls, ref) -> None:
    assert cls.classes == ref.classes
    assert (cls.k_r, cls.k_c, cls.k_i_minus) == \
        (ref.k_r, ref.k_c, ref.k_i_minus)
    assert [lam for lam, _ in cls.indeterminate] == \
        [lam for lam, _ in ref.indeterminate]
    assert np.allclose([f for _, f in cls.indeterminate],
                       [f for _, f in ref.indeterminate], rtol=1e-12, atol=0)
    forms = np.isfinite(ref.form_values)
    assert np.array_equal(forms, np.isfinite(cls.form_values))
    assert np.all(np.abs(cls.form_values[forms] - ref.form_values[forms])
                  <= 1e-12 * np.abs(ref.form_values[forms]))


class TestEvenBlockSolve:
    def test_matches_the_eigenvector_path(self, spied_pipeline):
        model, data, _ = spied_pipeline
        eig = spc.symmetric_spectrum(data.matrix)
        reference = eigenvector_pseudo_quadratic(
            data.matrix.blocks, eig.zero_tol, constrained_rhs(model, data))
        assert data.result.d == pytest.approx(reference, rel=1e-10, abs=0.0)

    def test_eigenvectors_of_the_odd_block_only(self, spied_pipeline):
        # one eigh with vectors on a parity block (the odd one, which
        # builds R) and one on T; the even block is read for eigenvalues
        _, data, calls = spied_pipeline
        even, odd = data.matrix.blocks
        with_vectors = [(a, kw) for a, kw in calls
                        if not kw.get("eigvals_only", False)]
        assert len(with_vectors) == 2
        assert with_vectors[0][0] is odd
        assert with_vectors[1][1].get("driver") == "evd"
        assert any(a is even and kw.get("eigvals_only") for a, kw in calls)


def repeated_imaginary_pair() -> op.ParityBlocks:
    """A_sin = I and W A_cos W with the eigenvalues 1, 2, 2, 3 .. 6 in a
    random basis: lambda = +-i sqrt(2) is a double pair on the symmetric
    route."""
    grid = sp.make_grid(16, 2.0)
    weights = TWO_PI * op.pair_frequencies(grid)
    q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((7, 7)))
    m = (q * np.array([1.0, 2.0, 2.0, 3.0, 4.0, 5.0, 6.0])) @ q.T
    even = np.eye(9)
    even[1:-1, 1:-1] = 0.5 * (m + m.T) / np.outer(weights, weights)
    return op.ParityBlocks((even, np.eye(7)), grid, "repeated")


class TestRealKreinForms:
    def test_match_the_complex_forms(self, spied_pipeline):
        _, data, _ = spied_pipeline
        ham = data.eigensystem
        assert ham.u is not None
        assert_same_classification(data.classification,
                                   spc.classify_krein(complex_reference(ham)))

    def test_cluster_of_a_repeated_eigenvalue(self):
        ham = eigensystem(repeated_imaginary_pair(), 1e-3)
        assert ham.u is not None
        double = np.abs(ham.eigenvalues - np.sqrt(2.0) * 1j) <= 1e-12
        assert np.count_nonzero(double) == 2
        cls = spc.classify_krein(ham)
        assert_same_classification(cls,
                                   spc.classify_krein(complex_reference(ham)))
        assert cls.classes.count(spc.CLASS_IMAG_POS) == 14

    def test_no_square_temporaries(self, q22):
        # the complex path held x, y, A_cos x and A_sin y for every
        # eigenvalue in the upper half, about 8 n/2 x n/2 real arrays;
        # the real forms go _COLUMN_BLOCK columns at a time
        L = op.kdv_linearization(wv.kdv_wave(q22, 1.0))
        floor = spc.gkernel_floor(q22.grid, L.multiplier_symbol)
        ham = eigensystem(op.assemble(L), spc.GKERNEL_FRACTION * floor)
        assert ham.u is not None and q22.grid.n == 1024
        tracemalloc.start()
        try:
            spc.classify_krein(ham)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * ham.x.nbytes


class TestParityGuard:
    def test_odd_perturbation_rejected(self, grid_small):
        x = grid_small.nodes
        even = 2.0 / np.cosh(x) ** 2
        L = op.schrodinger_operator(
            sp.RealField(grid_small, even + 1e-6 * x * np.exp(-x ** 2)), 0.5)
        with pytest.raises(ValueError, match="even and odd"):
            op.assemble(L)


def parity_rhs(rhs: np.ndarray) -> tuple:
    even, odd = op.parity_index(rhs.size)
    return rhs[even], rhs[odd]


class TestPseudoSolve:
    def test_fredholm_threshold_uses_the_whole_rhs_norm(self):
        # kernel on the first sine (index 2); the right-hand side is the
        # first cosine plus a 1e-7 sine share, below 1e-6 of the whole
        # norm, though all of the odd block's own norm
        diag = np.ones(8)
        diag[2] = 0.0
        eig = spc.symmetric_spectrum(diagonal_on_grid(diag))
        rhs = np.zeros(8)
        rhs[1], rhs[2] = 1.0, 1e-7
        assert spc._pseudo_solve_quadratic(eig, parity_rhs(rhs), "diag") == \
            pytest.approx(1.0, rel=1e-12)
        rhs[2] = 1e-5
        with pytest.raises(FredholmViolationError):
            spc._pseudo_solve_quadratic(eig, parity_rhs(rhs), "diag")

    def test_eigenvalues_only_spectrum_rejected(self):
        eig = spc.symmetric_eigenvalues(diagonal_on_grid(np.ones(8)))
        with pytest.raises(ValueError, match="needs eigenvectors"):
            spc._pseudo_solve_quadratic(eig, parity_rhs(np.ones(8)), "diag")

    def test_near_singular_warning_needs_a_reached_direction(self):
        # first cosine (index 1) kept but near-singular: 5e-8 against the
        # zero tolerance 1e-8
        diag = np.ones(8)
        diag[1] = 5e-8
        eig = spc.symmetric_spectrum(diagonal_on_grid(diag))
        rhs = np.zeros(8)
        rhs[3] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert spc._pseudo_solve_quadratic(
                eig, parity_rhs(rhs), "diag") == 1.0
        rhs[1] = 1.0
        with pytest.warns(UserWarning, match="near-singular"):
            spc._pseudo_solve_quadratic(eig, parity_rhs(rhs), "diag")

    def test_bbm_translation_mode_does_not_warn(self):
        # the odd translation eigenvalue sits just above the zero tolerance
        # but an even right-hand side never reaches it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = vd.bbm_verdict(1.5, 1.0, 1.5,
                                 vd.NumericsConfig(n=512, half_length=100.0))
        assert res.K_direct == 0


class TestFallbackSelection:
    def test_squaring_noise_against_the_zero_floor(self, grid_small):
        sym = np.abs(2 * np.pi * grid_small.wavenumbers) ** 2 + 1.0
        A = op.assemble(op.LinOperator(grid_small, sym, np.zeros(grid_small.n),
                                       label="positive", kind="custom"))
        noise = np.sqrt(np.finfo(float).eps) * eigensystem(A, 0.0).scale
        kept = eigensystem(A, 20.0 * noise)
        full = eigensystem(A, 5.0 * noise)
        assert kept.y is None and full.y is not None
        assert eigensystem(A, 0.0).y is not None
        assert nearest_distance(kept.eigenvalues, full.eigenvalues) \
            <= 1e-9 * full.scale

    def test_indefinite_odd_block_takes_the_full_order(self):
        # A_sin = diag(-1, 1, 1) has no square root: lambda = +-w1 is real
        # and the other roots are imaginary, all on the axes
        grid = sp.make_grid(8, 2.0)
        a = np.eye(8)
        a[np.ix_([1, 3, 5], [1, 3, 5])] = np.diag([1.0, 2.0, 3.0])
        a[np.ix_([2, 4, 6], [2, 4, 6])] = np.diag([-1.0, 1.0, 1.0])
        ham = eigensystem(split_parity(a, grid), 1e-3)
        assert ham.y is not None
        dense = dense_hamiltonian_eigenvalues(a, grid)
        assert nearest_distance(ham.eigenvalues, dense) <= 1e-12
        cls = spc.classify_krein(ham)
        assert (cls.k_r, cls.k_c, cls.k_i_minus) == (1, 0, 0)

    def test_non_real_root_outside_the_zero_bucket(self):
        # A_cos = diag(1, -1, 2) and A_sin coupling the first two sines
        # (indefinite, so the full order is solved): -(W A_sin)(W A_cos)
        # has the roots +-i w1 w2, a complex quadruple
        grid = sp.make_grid(8, 2.0)
        a = np.eye(8)
        a[np.ix_([1, 3, 5], [1, 3, 5])] = np.diag([1.0, -1.0, 2.0])
        a[np.ix_([2, 4, 6], [2, 4, 6])] = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
        ham = eigensystem(split_parity(a, grid), 1e-3)
        assert ham.y is not None
        dense = dense_hamiltonian_eigenvalues(a, grid)
        assert nearest_distance(ham.eigenvalues, dense) <= 1e-12
        assert spc.classify_krein(ham).k_c == 2

    def test_sub_noise_roots_reported_on_the_imaginary_axis(self):
        # scale 1: the squaring noise is sqrt(eps) = 1.5e-8
        eigs = np.array([1e-9, -1e-9, 1e-9 + 2e-9j, -1e-9 - 2e-9j, 2e-9j,
                         1e-6, 0.5j, 1.0], dtype=complex)
        out = spc._unresolved_on_imaginary_axis(eigs, 1.0, 1e-2)
        moved = np.abs(eigs[2])
        assert np.array_equal(out, [1e-9j, -1e-9j, moved * 1j, -moved * 1j,
                                    2e-9j, 1e-6, 0.5j, 1.0])
        assert not np.any(np.signbit(out.real))
        # only zero-bucket eigenvalues move, so no class can change
        assert np.array_equal(
            spc._unresolved_on_imaginary_axis(eigs, 1.0, 1e-10), eigs)


@st.composite
def even_operators(draw):
    """A linearization |2 pi xi|^s + c + V on n <= 64 points with a random
    even potential V."""
    n = draw(st.sampled_from([8, 16, 32, 64]))
    grid = sp.make_grid(n, draw(st.floats(2.0, 20.0)))
    s = draw(st.floats(0.5, 2.0))
    c = draw(st.floats(0.1, 2.0))
    raw = np.array(draw(st.lists(st.floats(-4.0, 4.0), min_size=n,
                                 max_size=n)))
    potential = 0.5 * (raw + raw[np.r_[0, n - 1:0:-1]])
    sym = sp.fractional_symbol(grid, s) + c
    return op.LinOperator(grid, sym, potential, label="random")


@given(even_operators())
def test_assembled_blocks_equal_the_basis_matrix(L):
    blocks, dense = op.assemble(L).dense(), dense_matrix(L)
    assert np.max(np.abs(blocks - dense)) <= 1e-13 * np.max(np.abs(dense))


@given(even_operators())
def test_block_inertia_equals_full_inertia(L):
    n_neg, kernel, _ = dense_inertia(dense_matrix(L))
    report = spc.symmetric_spectrum(op.assemble(L))
    assert (report.negative_count, kernel_dim(report)) == (n_neg, kernel)


@given(even_operators())
def test_block_hamiltonian_spectrum_equals_dense(L):
    dense = dense_hamiltonian_eigenvalues(dense_matrix(L), L.grid)
    scale = float(np.max(np.abs(dense)))
    noise = np.sqrt(np.finfo(float).eps) * scale
    ham = eigensystem(op.assemble(L), 20.0 * noise)
    assert nearest_distance(ham.eigenvalues, dense) <= 10.0 * noise


@given(even_operators())
def test_sandwich_hamiltonian_spectrum_equals_dense(L):
    # J S from the symmetric route (or the full order, when the odd block
    # is indefinite) against the full-order J S of the sandwich formed on
    # the dense matrix
    quarter = sp.regularized_quarter_root_multiplier(L.grid, 0.0)
    dense = dense_sandwich_hamiltonian_eigenvalues(
        dense_congruence(dense_matrix(L), L.grid,
                         quarter.symbol_values.real), L.grid)
    scale = float(np.max(np.abs(dense)))
    noise = np.sqrt(np.finfo(float).eps) * scale
    S = op.sandwich(op.assemble(L), 0.0)
    half = spc.sandwich_hamiltonian_spectrum(S, spc.symmetric_spectrum(S))
    assert nearest_distance(half, dense) <= 10.0 * noise
