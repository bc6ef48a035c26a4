import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hkindex import operators as op
from hkindex import spectra as spc
from hkindex import spectral as sp
from hkindex import waves as wv
from hkindex.errors import FredholmViolationError, TheoryConsistencyError

from conftest import (diagonal_on_grid, eigensystem, quiet, sym_eig_calls,
                      wave)
from dense_reference import ParityBlocks, assemble, block_inertia, from_coords


class TestSymmetricSpectrum:
    def test_identity_matrix(self):
        P = diagonal_on_grid(np.ones(8))
        with sym_eig_calls() as calls:
            rep = spc.symmetric_spectrum(P)
        assert rep.negative_count == spc.negative_count(P) == 0
        # the factors certified both blocks: no eigendecomposition, no odd
        # eigenvalue below the shift, and the odd Cholesky factor is I
        assert calls == []
        assert rep.even_values is None and rep.factor is not None
        assert rep.odd_low[0].size == 0
        assert np.array_equal(np.tril(rep.odd_factor[0]), np.eye(3))

    def test_small_diagonal(self):
        # the even block holds -1 and 0: its shifted counts differ, so its
        # eigenvalues, computed once without vectors, decide with the
        # exact zero tolerance.  A ground state's kernel is odd, so a
        # constrained solve on an even eigenvalue within zero_tol is a
        # theory failure
        P = diagonal_on_grid([-1.0, 0.0, 2.0, 1.0, 1.0, 1.0, 1.0, 1.0])
        with sym_eig_calls() as calls:
            rep = spc.symmetric_spectrum(P)
        assert calls == [(5, False)]
        assert rep.negative_count == spc.negative_count(P) == 1
        assert block_inertia(P)[:2] == (1, 1)
        assert rep.zero_tol == pytest.approx(2e-8)
        assert rep.even_values[:2].tolist() == [-1.0, 0.0]
        # the second cosine, of eigenvalue 1
        rhs = (np.array([0.0, 0.0, 1.0, 0.0, 0.0]), np.zeros(3))
        with pytest.raises(TheoryConsistencyError, match="even block"):
            spc._pseudo_solve_quadratic(rep, rhs, "diag")

    def test_kdv_kernel_vector_aligned_with_derivative(self, pipeline22):
        rep = spc.symmetric_spectrum(pipeline22.matrix)
        assert rep.negative_count == 1
        assert block_inertia(pipeline22.matrix)[1] == 1
        dq = sp.apply(sp.derivative_symbol(pipeline22.grid),
                      pipeline22.wave.values)
        # the kernel lies in the odd block, as dQ is odd: the one certified
        # Ritz vector below the shift, which the Cholesky factor deflates
        w, v = rep.odd_low
        (i,) = np.nonzero(np.abs(w) <= rep.zero_tol)[0]
        assert np.array_equal(rep.odd_factor[1], v[:, [i]])
        kv = from_coords(pipeline22.grid,
                         (np.zeros(pipeline22.grid.n // 2 + 1),
                          v[:, i]))
        cosine = abs(np.dot(kv, dq)) / (np.linalg.norm(kv) * np.linalg.norm(dq))
        assert cosine >= 1.0 - 1e-6

    def test_factor_counts_match_the_eigenvalues(self, pipeline22):
        # the LDL^T counts, the certified Ritz values and zero tolerance
        # decide as the eigenvalues and the exact tolerance do
        P = pipeline22.matrix
        n_neg, kernel, tol, _ = block_inertia(P)
        with sym_eig_calls() as calls:
            rep = spc.symmetric_spectrum(P)
        assert calls == [] and rep.even_values is None
        assert rep.negative_count == spc.negative_count(P) == n_neg
        assert tol <= rep.zero_tol <= 1.01 * tol
        assert np.count_nonzero(np.abs(rep.odd_low[0]) <= rep.zero_tol) \
            == kernel


@pytest.fixture(scope="module")
def spectrum22(pipeline22):
    return spc.symmetric_spectrum(pipeline22.matrix)


class TestConstrainedQuantity:
    def test_gkdv_p2_value(self, pipeline22):
        # -1/2 d/dc <U_c, U_c> = -1/4 <Q, Q> = -1 for the sqrt(2) sech family
        assert pipeline22.result.d == pytest.approx(-1.0, abs=1e-3)

    def test_cross_check_against_scaling_law(self, pipeline22):
        res = pipeline22.result
        expected = -0.5 * res.slope_reference
        assert abs(res.d - expected) <= 1e-4 * abs(expected)

    def test_borderline_family_value_is_small(self):
        grid = sp.make_grid(2048, 100.0)
        q = wv.solve_ground_state(1.0, 2.0, grid)
        A = assemble(op.linearization(q))
        psi0 = sp.apply(sp.derivative_symbol(grid), q.values)
        with quiet():
            d = spc.constrained_quantity(A, psi0, spc.symmetric_spectrum(A))
        assert abs(d) <= 1e-3

    def test_nonzero_mean_psi0_rejected(self, pipeline22, spectrum22):
        from hkindex.errors import NonIntegrableInputError
        psi0 = pipeline22.wave.values
        with pytest.raises(NonIntegrableInputError):
            spc.constrained_quantity(pipeline22.matrix, psi0, spectrum22)

    def test_fredholm_violation_detected(self, pipeline22, spectrum22):
        # an even mean-zero psi0 has an odd antiderivative, overlapping the
        # odd kernel vector dQ
        values = pipeline22.wave.values
        psi0 = values - np.mean(values)
        with pytest.raises(FredholmViolationError):
            with quiet():
                spc.constrained_quantity(pipeline22.matrix, psi0, spectrum22)


class TestSlopeAnalytic:
    def test_reference_point(self):
        assert spc.slope_analytic(2.0, 2.0, 1.0, 4.0) == pytest.approx(2.0)

    def test_borderline_vanishes(self):
        for c in (0.5, 1.0, 3.0):
            assert spc.slope_analytic(1.0, 2.0, c, 5.0) == 0.0
            assert spc.slope_analytic(0.75, 1.5, c, 2.0) == 0.0

    def test_supercritical_is_negative(self):
        assert spc.slope_analytic(2.0, 5.0, 1.0, 3.0) < 0.0

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            spc.slope_analytic(-1.0, 2.0, 1.0, 4.0)


class TestBbmSlope:
    def test_fd_and_closed_form_agree(self, q22):
        res = spc.bbm_slope(lambda c: wave(wv.FBBM, q22, c), 2.0, 0.01, q22)
        assert res.finite_difference > 0
        assert res.closed_form > 0
        assert not res.step_warning

    @pytest.mark.parametrize("c", [1.5, 2.0, 3.0])
    def test_closed_form_matches_finite_difference_off_c2(self, q22, c):
        res = spc.bbm_slope(lambda cc: wave(wv.FBBM, q22, cc), c, 0.01, q22)
        # the centred difference is accurate to O(dc^2) ~ 1e-5 relative
        assert res.closed_form == pytest.approx(res.finite_difference, rel=1e-4)

    def test_s1_reduction_drops_s_minus_one_terms(self, grid_s1):
        q = wv.solve_ground_state(1.0, 2.0, grid_s1)
        half = sp.apply(sp.fractional_symbol(grid_s1, 0.5), q.values)
        qq = sp.inner_product(grid_s1, q.values, q.values)
        hq = sp.inner_product(grid_s1, half, half)
        c = 2.0
        res = spc.bbm_slope(lambda cc: wave(wv.FBBM, q, cc), c, 0.01, q)
        # at s=1 the bracket reduces to c(2c-p)<Q,Q> + 2c(c-1)<|d|^(1/2)Q, .>
        reduced = (c - 1.0) ** (2.0 / q.p - 1.0 / q.s - 1.0) * c ** (1.0 / q.s - 2.0) \
            * (c * (2.0 * c - q.p) * qq + 2.0 * c * (c - 1.0) * hq) / q.p
        assert res.closed_form == pytest.approx(reduced, rel=1e-12)

    def test_s2_p4_bracket_positive(self, grid40):
        q = wv.solve_ground_state(2.0, 4.0, grid40)
        res = spc.bbm_slope(lambda cc: wave(wv.FBBM, q, cc), 2.0, 0.01, q)
        assert res.closed_form > 0
        assert res.finite_difference > 0

    def test_step_leaving_range_rejected(self, q22):
        with pytest.raises(ValueError):
            spc.bbm_slope(lambda cc: wave(wv.FBBM, q22, cc), 1.05, 0.1, q22)


class TestHamiltonianSpectrum:
    def test_identity_gives_derivative_spectrum(self, grid_small):
        m = grid_small.n // 2
        eye = ParityBlocks((np.eye(m + 1), np.eye(m - 1)), grid_small)
        eigs = spc.hamiltonian_eigensystem(
            eye, spc.symmetric_spectrum(eye), 0.0).eigenvalues
        expected = 2.0 * np.pi * op.pair_frequencies(grid_small)
        got = np.sort(eigs.imag[eigs.imag > 0])
        assert np.allclose(got, expected, rtol=1e-12)
        assert np.max(np.abs(eigs.real)) <= 1e-12

    def test_stable_case_has_no_real_part(self, pipeline22):
        eigs = pipeline22.eigensystem.eigenvalues
        assert np.max(np.abs(eigs.real)) <= 1e-6 * pipeline22.eigensystem.scale

    def test_unstable_case_has_one_real_pair(self, pipeline25):
        ham = pipeline25.eigensystem
        re_tol = 1e-6 * ham.scale
        eigs = ham.eigenvalues
        pos_real = eigs[(eigs.real > re_tol) & (np.abs(eigs.imag) <= re_tol)]
        assert len(pos_real) == 1
        assert pos_real[0].imag == pytest.approx(0.0, abs=re_tol)

    def test_eigenpair_residual(self, pipeline22, pipeline25):
        for data in (pipeline22, pipeline25):
            assert not np.iscomplexobj(data.eigensystem.x)
            assert spc.eigenpair_residual(data.eigensystem) <= 1e-6

    def test_residual_flags_corrupted_eigenvector(self, pipeline25):
        ham, cls = pipeline25.eigensystem, pipeline25.classification
        unstable = cls.classes.index(spc.CLASS_REAL_POS)
        x = ham.x.copy()
        x[:, ham.column[unstable]] = np.random.default_rng(0).standard_normal(
            x.shape[0])
        corrupted = dataclasses.replace(ham, x=x)
        assert spc.eigenpair_residual(corrupted) > 1e-2

    def test_sandwich_equivalence(self, pipeline22):
        S = op.sandwich(pipeline22.matrix, 0.0)
        ham = pipeline22.eigensystem
        sand = spc.hamiltonian_eigensystem(
            S, spc.symmetric_spectrum(S), ham.zero_floor,
            np.ones(S.grid.n // 2 - 1)).eigenvalues
        cut = 1e-3 * ham.scale
        a = ham.eigenvalues[np.abs(ham.eigenvalues) > cut]
        b = sand[np.abs(sand) > cut]
        dist = np.abs(b[None, :] - a[:, None]).min(axis=1) / np.abs(a)
        assert dist.max() <= 1e-6


class TestClassifyKrein:
    def test_stable_counts(self, pipeline22):
        cls = pipeline22.classification
        assert (cls.k_r, cls.k_i_minus) == (0, 0)
        assert cls.k_i_minus % 2 == 0

    def test_unstable_counts(self, pipeline25):
        cls = pipeline25.classification
        assert (cls.k_r, cls.k_i_minus) == (1, 0)

    def test_positive_definite_form_gives_no_negative_signature(self, grid_small):
        # multiplier-only operator: A positive definite on the subspace
        sym = np.abs(2 * np.pi * grid_small.wavenumbers) ** 2 + 1.0
        L = op.LinOperator(grid_small, sym, np.zeros(grid_small.n),
                           label="positive")
        ham = eigensystem(assemble(L), 0.0)
        cls = spc.classify_krein(ham)
        assert cls.k_i_minus == 0
        assert cls.k_r == 0
        assert all(c in (spc.CLASS_IMAG_POS, spc.CLASS_ZERO) for c in cls.classes)

    def test_every_eigenvalue_in_exactly_one_bucket(self, pipeline22):
        cls = pipeline22.classification
        assert len(cls.classes) == len(pipeline22.eigensystem.eigenvalues)
        assert all(isinstance(c, str) and c for c in cls.classes)

    def test_zero_floor_absorbs_small_eigenvalues(self, grid_small):
        sym = np.abs(2 * np.pi * grid_small.wavenumbers) ** 2 + 1.0
        L = op.LinOperator(grid_small, sym, np.zeros(grid_small.n),
                           label="positive")
        A = assemble(L)
        floor = 2.0 * eigensystem(A, 0.0).scale
        cls = spc.classify_krein(eigensystem(A, floor))
        assert all(c == spc.CLASS_ZERO for c in cls.classes)
        assert (cls.k_r, cls.k_i_minus) == (0, 0)


@given(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=30),
       st.floats(0.0, 2.0))
def test_clusters_match_a_running_scan(values, gap):
    values = np.sort(values)
    clusters, current = [], [0]
    for i in range(1, values.size):
        if values[i] - values[i - 1] <= gap:
            current.append(i)
        else:
            clusters.append(current)
            current = [i]
    clusters.append(current)
    assert [c.tolist() for c in spc._cluster_indices(values, gap)] == clusters


def kernel_eigensystem(L: op.LinOperator) -> spc.HamiltonianEigensystem:
    """The Hamiltonian eigensystem of a bare operator with the pipeline's
    zero floor, a fraction of the box's first dispersion mode."""
    floor = spc.gkernel_floor(L.grid, L.multiplier_symbol)
    return eigensystem(assemble(L), spc.GKERNEL_FRACTION * floor)


class TestGeneralizedKernel:
    def test_regular_wave_has_dimension_two(self, pipeline22):
        assert spc.generalized_kernel_dim(pipeline22.eigensystem) == 2

    def test_invertible_product_has_dimension_zero(self, grid_small):
        sym = np.abs(2 * np.pi * grid_small.wavenumbers) ** 2 + 0.5
        L = op.LinOperator(grid_small, sym, np.zeros(grid_small.n),
                           label="V=0")
        assert spc.generalized_kernel_dim(kernel_eigensystem(L)) == 0

    def test_borderline_family_at_least_three(self):
        grid = sp.make_grid(2048, 50.0)
        q = wv.solve_ground_state(1.0, 2.0, grid,
                                  wv.SolverOptions(tol=1e-11, max_iters=2000))
        L = op.linearization(q)
        assert spc.generalized_kernel_dim(kernel_eigensystem(L)) >= 3


class TestEpsilonChain:
    def test_sign_stable_and_converging(self, pipeline22):
        psi0 = sp.apply(sp.derivative_symbol(pipeline22.grid),
                        pipeline22.wave.values)
        with quiet():
            values = [spc.constrained_quantity_sandwiched(
                pipeline22.matrix, psi0, eps, spc.symmetric_spectrum(
                    op.sandwich(pipeline22.matrix, eps)))
                for eps in (1e-1, 1e-2, 1e-3)]
        assert all(v < 0 for v in values)
        assert abs(values[2] - values[1]) <= abs(values[1] - values[0])
