"""The parity split against the dense full-order path.

Every solve of the verdict pipeline runs on the even (cosine) and odd
(sine) blocks of the symmetric factor.  The full-order solves stay as the
reference, all in dense_reference: one eigh of A, one eig of the
restricted D A or J S, and the full-order Hamiltonian eigensystem with
complex Krein forms.  spectra has one Hamiltonian route, lambda^2 = -nu
from a symmetric solve.  It raises TheoryConsistencyError for an
indefinite odd block, and UnresolvedEigenvalueError for a nu within
NOISE_BAND noise units eps max|nu| of a threshold that decides a class.
"""

import tracemalloc
import warnings
import weakref
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given
from hypothesis import strategies as st

from hkindex import cores
from hkindex import operators as op
from hkindex import spectra as spc
from hkindex import spectral as sp
from hkindex import verdicts as vd
from hkindex import waves as wv
from hkindex.errors import (FredholmViolationError, TheoryConsistencyError,
                            UnresolvedEigenvalueError)
from hkindex.spectral import TWO_PI

from conftest import (count_calls, diagonal_on_grid, eigensystem,
                      ldl_targets, quiet, sech_profile, sym_eig_calls)
from dense_reference import (ParityBlocks, assemble, block_inertia,
                             blocks_of, dense_congruence,
                             dense_hamiltonian_eigenvalues, dense_inertia,
                             dense_matrix,
                             dense_sandwich_hamiltonian_eigenvalues,
                             deflated_t_spectrum,
                             eigenvector_pseudo_quadratic, exact_quadratic,
                             full_order, interleave,
                             reference_classification, split_parity)
from test_atlas import ATLAS

REGRESSION_CASES = [(wv.FKDV, 2.0, 2.0, 1.0), (wv.FKDV, 2.0, 5.0, 1.0),
                    (wv.FBBM, 2.0, 2.0, 2.0)]
SMALL = vd.NumericsConfig(n=512, half_length=30.0)
EPS = float(np.finfo(float).eps)


def nearest_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Largest distance from a point of either set to the other set."""
    gaps = np.abs(a[:, None] - b[None, :])
    return float(max(gaps.min(axis=1).max(), gaps.min(axis=0).max()))


def indefinite_odd_block(P: ParityBlocks) -> bool:
    """The odd block has an eigenvalue below -zero_tol, by the oracle's
    eigenvalues and exact tolerance."""
    tol = block_inertia(P)[2]
    return bool(scipy.linalg.eigvalsh(P.block(1))[0] < -tol)


def assert_same_counts_and_classes(cls, ref) -> None:
    """The counts and the classes outside the zero bucket of cls equal
    those of the oracle's classification ref.

    The symmetric route reports the deflated kernel pair at 0, among the
    real eigenvalues, where the oracle splits it to +-delta i: the ZERO
    rows may sort elsewhere, so they are counted, and every other row is
    compared in order."""
    classes, ref_classes = np.array(cls.classes), np.array(ref.classes)
    zero, ref_zero = (classes == spc.CLASS_ZERO,
                      ref_classes == spc.CLASS_ZERO)
    assert np.count_nonzero(zero) == np.count_nonzero(ref_zero)
    assert np.array_equal(classes[~zero], ref_classes[~ref_zero])
    assert (cls.k_r, 0, cls.k_i_minus) == (ref.k_r, ref.k_c, ref.k_i_minus)


def column_counts(ham) -> tuple:
    """(real, imaginary, zero-bucket) column counts."""
    real, imag = ham.split()
    return tuple(int(np.count_nonzero(m)) for m in (real, imag, ~(real | imag)))


def assert_counts_only_agrees(P: ParityBlocks, eig, zero_floor: float,
                              units: float):
    """The eigenvalue-only solve of P has the column counts, the
    generalized kernel and, where the classes are decided (|nu| <= 1e-4
    max|nu|), the nu within the given noise units of the solve with
    vectors, whose Krein classification finds no negative signature."""
    full = spc.hamiltonian_eigensystem(P, eig, zero_floor)
    counts = spc.hamiltonian_eigensystem(P, eig, zero_floor, vectors=False)
    assert counts.x is None and counts.u is None
    assert column_counts(counts) == column_counts(full)
    assert spc.generalized_kernel_dim(counts) == \
        spc.generalized_kernel_dim(full)
    top = float(np.max(np.abs(full.nu)))
    small = np.abs(full.nu) <= 1e-4 * top
    assert np.all(np.abs(counts.nu[small] - full.nu[small])
                  <= units * EPS * top)
    assert spc.classify_krein(full).k_i_minus == 0


def assert_matches_oracle(ham, cls, oracle):
    """The counts and classes of cls equal those of the full-order
    oracle, classified through reference_classification, and the
    eigenvalues above 1e-3 scale agree within 1e-9 relative.  Returns the
    oracle's classification."""
    ref = reference_classification(oracle)
    assert_same_counts_and_classes(cls, ref)
    cut = 1e-3 * oracle.scale
    got = ham.eigenvalues[np.abs(ham.eigenvalues) > cut]
    want = oracle.eigenvalues[np.abs(oracle.eigenvalues) > cut]
    assert got.size == want.size
    gaps = np.abs(got[:, None] - want[None, :]).min(axis=0)
    assert np.max(gaps / np.abs(want)) <= 1e-9
    return ref


def odd_kernel_deflated(P: ParityBlocks) -> ParityBlocks:
    """P with the odd eigen-components |w| <= zero_tol removed, by the
    oracle's eigenpairs and exact tolerance: the operator whose D A the
    factor route solves, as it drops the odd kernel by design."""
    tol = block_inertia(P)[2]
    odd = P.block(1)
    w, v = scipy.linalg.eigh(odd)
    kernel = np.abs(w) <= tol
    odd -= (v[:, kernel] * w[kernel]) @ v[:, kernel].T
    return ParityBlocks((P.block(0), 0.5 * (odd + odd.T)), P.grid,
                        P.label)


def assert_small_nu_match(ham, reference: np.ndarray, units: float) -> None:
    """Every nu of T with |nu| <= 1e-4 max|nu| lies within the given noise
    units eps max|nu| of one of the reference nu = -lambda^2."""
    nu = ham.nu[:-1]
    top = float(np.max(np.abs(nu), initial=0.0))
    small = nu[np.abs(nu) <= 1e-4 * top]
    gaps = np.abs(small[:, None] - reference[None, :])
    assert np.all(gaps.min(axis=1, initial=np.inf) <= units * EPS * top)


def assert_factor_route_matches_the_oracle(P: ParityBlocks) -> None:
    """The factor route's Hamiltonian spectrum of P against the full-order
    oracle of P with its odd kernel deflated exactly, on the zero floor 20
    sqrt(eps) max|lambda|: the same counts and classes, and the small nu
    of T (the counting solve: with vectors, a real root is refined on the
    undeflated A_sin) within NOISE_BAND / 2 noise units of the 40-digit
    reference.  On these random blocks, forming T loses more than on an
    operator: on one 32-point block with a 2-dimensional odd kernel the
    route's nu is 4.7 units from the reference (the odd eigenpair
    construction of R 4.3), and on one 8-point block with an odd
    eigenvalue of 4e-7, a draw outside the derandomized set, 16.8.  An
    odd block with an eigenvalue below -zero_tol is a theory-consistency
    failure instead."""
    tol = block_inertia(P)[2]
    scale = float(np.max(np.abs(dense_hamiltonian_eigenvalues(
        odd_kernel_deflated(P).dense(), P.grid))))
    floor = 20.0 * np.sqrt(EPS) * scale
    if indefinite_odd_block(P):
        with pytest.raises(TheoryConsistencyError, match="odd block"):
            eigensystem(P, floor)
        return
    ham, oracle = eigensystem(P, floor), full_order(P, floor, tol)
    assert_same_counts_and_classes(spc.classify_krein(ham),
                                   reference_classification(oracle))
    assert_small_nu_match(eigensystem(P, floor, vectors=False),
                          deflated_t_spectrum(P, tol), spc.NOISE_BAND / 2.0)


@pytest.fixture(scope="module", params=REGRESSION_CASES,
                ids=lambda c: "-".join(map(str, c)))
def small_pipeline(request):
    model, s, p, c = request.param
    with quiet():
        data = vd.verdict(model, s, p, c, SMALL, keep_pipeline=True)
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
    psi0 = sp.apply(sp.derivative_symbol(data.grid), data.wave.values)
    if model.weighted:
        weight = op.symmetrizing_weight(data.grid, data.wave.s)
        psi0 = sp.apply(1.0 / weight, psi0)
    return op.to_coords(data.grid, spc._decaying_antiderivative(data.grid, psi0))


class TestAgainstDensePath:
    def test_counts_and_constrained_quantity(self, small_pipeline):
        model, data = small_pipeline
        n_neg, kernel, (w, v, tol) = dense_inertia(dense_factor(model, data))
        report = spc.symmetric_spectrum(data.matrix)
        assert data.result.n_L == report.negative_count == n_neg
        assert block_inertia(data.matrix)[:2] == (n_neg, kernel)
        proj = v.T @ interleave(constrained_rhs(model, data))
        kept = np.abs(w) > tol
        d_dense = float(np.sum(proj[kept] ** 2 / w[kept]))
        assert data.result.d == pytest.approx(d_dense, rel=1e-10, abs=0.0)

    def test_hamiltonian_spectrum_and_classes(self, small_pipeline):
        model, data = small_pipeline
        ham, cls = data.eigensystem, data.classification
        assert not np.iscomplexobj(ham.x)
        reference = dense_factor(model, data)
        dense = full_order(split_parity(reference, data.grid), ham.zero_floor)
        dense_cls = assert_matches_oracle(ham, cls, dense)
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
            data = vd.verdict(wv.FKDV, 2.0, 4.1, 1.0, keep_pipeline=True)
        ham, cls = data.eigensystem, data.classification
        dense = full_order(data.matrix, ham.zero_floor)
        dense_cls = reference_classification(dense)
        got = ham.eigenvalues[np.array(cls.classes) == spc.CLASS_REAL_POS]
        want = dense.eigenvalues[
            np.array(dense_cls.classes) == spc.CLASS_REAL_POS]
        assert got.size == want.size == 1
        assert abs(got[0] - want[0]) <= 1e-7 * abs(want[0])


# (model, s, p, c, half_length) of the atlas's records at n = 512: fkdv
# (2, 2, 1) and (2, 5, 1) on l = 30, (2, 4.1, 1) on the smallest box whose
# zero floor stays below the unstable eigenvalue, and fbbm (1.5, 1, 1.5)
INDEX_CASES = [(point["model"], point["s"], point["p"], point["c"],
                point["half_length"])
               for point in ATLAS["points"] if point.get("n") == 512]


@pytest.fixture(scope="module", params=INDEX_CASES,
                ids=lambda c: "-".join(map(str, c[:4])))
def spied_pipeline(request):
    """(model, pipeline, eigh calls): every scipy.linalg.eigh call of one
    verdict, as (matrix, further positional arguments, keyword
    arguments)."""
    model, s, p, c, half_length = request.param
    calls = []

    def spy(a, *args, _eigh=scipy.linalg.eigh, **kw):
        calls.append((a, args, kw))
        return _eigh(a, *args, **kw)

    with pytest.MonkeyPatch.context() as mp, quiet():
        mp.setattr(scipy.linalg, "eigh", spy)
        data = vd.verdict(
            model, s, p, c, vd.NumericsConfig(n=512, half_length=half_length),
            keep_pipeline=True)
    return wv.MODELS[model], data, calls


def assert_same_classification(cls, ref) -> None:
    assert cls.classes == ref.classes
    assert (cls.k_r, 0, cls.k_i_minus) == (ref.k_r, ref.k_c, ref.k_i_minus)
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
        reference = eigenvector_pseudo_quadratic(
            blocks_of(data.matrix), block_inertia(data.matrix)[2],
            constrained_rhs(model, data))
        assert data.result.d == pytest.approx(reference, rel=1e-10, abs=0.0)

    def test_eigenvectors_of_the_odd_block_only(self, spied_pipeline):
        # no eigh on a parity block: the only eigenvectors of one are the
        # odd block's certified Ritz vectors below the shift, from inverse
        # iteration, and its Cholesky factor builds R; the even block, and
        # both blocks of L0 for fBBM, are counted by LDL^T factors.  One
        # eigh, on T.  A Gram pencil of the Krein forms passes its second
        # matrix as a positional argument
        _, data, calls = spied_pipeline
        assert not [a for a, args, kw in calls
                    if not args and kw.get("driver") != "evd"]
        assert sum(kw.get("driver") == "evd" for _, _, kw in calls) == 1
        w, x = spc.symmetric_spectrum(data.matrix).odd_low
        assert x.shape == (data.grid.n // 2 - 1, w.size) \
            and w.size == 1

    def test_even_factor_is_freed_before_the_hamiltonian_solve(
            self, monkeypatch):
        # the even block's factor serves the constrained solve only: no
        # factor of the even block's order, in the block or in a work
        # array, is alive where T is formed, by a counting verdict
        # (t_matrix) or by one that keeps its pipeline
        m = SMALL.n // 2
        alive, seen, ldl = [], [], spc._ldl

        def factor(block, shift, work):
            out = ldl(block, shift, work)
            if block.shape[0] == m + 1:
                alive.extend(weakref.ref(a) for a in (block, work, *out))
            return out
        monkeypatch.setattr(spc, "_ldl", factor)
        for name in ("t_matrix", "hamiltonian_eigensystem"):
            def spy(*args, _fn=getattr(spc, name), **kw):
                seen.append([ref for ref in alive if ref() is not None])
                return _fn(*args, **kw)
            monkeypatch.setattr(spc, name, spy)
        monkeypatch.setattr(cores, "core_counts", lambda *args: None)
        with quiet():
            for keep in (False, True):
                vd.verdict(wv.FKDV, 2.0, 2.0, 1.0, SMALL, keep_pipeline=keep)
        assert alive and seen == [[], []]


# every benchmark item and acceptance case, on its default grid
DEFAULT_GRID_CASES = [
    (wv.FKDV, 2.0, 2.0, 1.0), (wv.FKDV, 2.0, 5.0, 1.0),
    (wv.FKDV, 2.0, 4.1, 1.0), (wv.FBBM, 1.5, 1.0, 1.5),
    (wv.FBBM, 2.0, 2.0, 3.0),
    pytest.param(wv.FKDV, 0.6, 1.2, 1.0, marks=pytest.mark.slow)]


@pytest.mark.parametrize("model, s, p, c", DEFAULT_GRID_CASES)
def test_no_case_reaches_the_fallback(model, s, p, c):
    # on the dense route, which runs wherever the wave's core declines
    # (cores.core_counts; forced here), the bracket decides every count
    # and class of a counting verdict: no parity block takes an
    # eigensolve, and the odd block's kernel (or, at s = 0.6, its one
    # near-singular eigenvalue) is a certified Ritz pair.  The two factors
    # of T agree on k_r, so nothing takes an eigh
    low, spectrum = [], spc.symmetric_spectrum

    def spied(P, *args, **kw):
        eig = spectrum(P, *args, **kw)
        low.append(eig.odd_low[0])
        return eig
    with pytest.MonkeyPatch.context() as mp, quiet(), \
            sym_eig_calls() as calls:
        mp.setattr(spc, "symmetric_spectrum", spied)
        mp.setattr(cores, "core_counts", lambda *args: None)
        vd.verdict(model, s, p, c)
    assert calls == []
    assert [w.size for w in low] == [1]


def repeated_imaginary_pair() -> ParityBlocks:
    """A_sin = I and W A_cos W with the eigenvalues 1, 2, 2, 3 .. 6 in a
    random basis: lambda = +-i sqrt(2) is a double pair on the symmetric
    route."""
    grid = sp.make_grid(16, 2.0)
    weights = TWO_PI * op.pair_frequencies(grid)
    q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((7, 7)))
    m = (q * np.array([1.0, 2.0, 2.0, 3.0, 4.0, 5.0, 6.0])) @ q.T
    even = np.eye(9)
    even[1:-1, 1:-1] = 0.5 * (m + m.T) / np.outer(weights, weights)
    return ParityBlocks((even, np.eye(7)), grid, "repeated")


class TestRealKreinForms:
    def test_match_the_complex_forms(self, spied_pipeline):
        _, data, _ = spied_pipeline
        ham = data.eigensystem
        assert not np.iscomplexobj(ham.x)
        assert_same_classification(data.classification,
                                   reference_classification(ham))

    def test_cluster_of_a_repeated_eigenvalue(self):
        ham = eigensystem(repeated_imaginary_pair(), 1e-3)
        assert not np.iscomplexobj(ham.x)
        double = np.abs(ham.eigenvalues - np.sqrt(2.0) * 1j) <= 1e-12
        assert np.count_nonzero(double) == 2
        cls = spc.classify_krein(ham)
        assert_same_classification(cls, reference_classification(ham))
        assert cls.classes.count(spc.CLASS_IMAG_POS) == 14

    def test_cluster_behind_a_real_column(self):
        # the real column 0 puts each imaginary column one past its
        # position among the imaginary columns
        ham = eigensystem(prescribed_nu([-0.5, 2.0, 2.0, 3.0]), 1e-3)
        cls = spc.classify_krein(ham)
        assert_same_classification(cls, reference_classification(ham))
        assert cls.classes.count(spc.CLASS_REAL_POS) == 1

    def test_no_square_temporaries(self, q22):
        # the complex path held x, y, A_cos x and A_sin y for every
        # eigenvalue in the upper half, about 8 n/2 x n/2 real arrays;
        # the real forms go _COLUMN_BLOCK columns at a time
        L = op.linearization(q22)
        floor = spc.gkernel_floor(q22.grid, L.multiplier_symbol)
        ham = eigensystem(assemble(L), spc.GKERNEL_FRACTION * floor)
        assert not np.iscomplexobj(ham.x) and q22.grid.n == 1024
        tracemalloc.start()
        try:
            spc.classify_krein(ham)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * ham.x.nbytes


def test_counts_only_solve_agrees(spied_pipeline):
    _, data, _ = spied_pipeline
    assert_counts_only_agrees(data.matrix, spc.symmetric_spectrum(data.matrix),
                              data.eigensystem.zero_floor, 2.0)


def test_small_nu_match_the_full_order_oracle(spied_pipeline):
    # on the index cases every nu of the factor route with |nu| <= 1e-4
    # max|nu| lies within 2 noise units of the full-order oracle's (at
    # most 1.10 units measured; 1.45 on the default fBBM grid), with and
    # without vectors
    _, data, _ = spied_pipeline
    P, floor = data.matrix, data.eigensystem.zero_floor
    oracle = full_order(odd_kernel_deflated(P), floor)
    for ham in (data.eigensystem, eigensystem(P, floor, vectors=False)):
        assert_small_nu_match(ham, -oracle.eigenvalues ** 2, 2.0)


class TestSandwichReformulation:
    def test_j_s_has_the_classes_of_d_a(self, spied_pipeline):
        # the reformulated problem J S, the sandwich |d|^(1/2) A |d|^(1/2)
        # with unit weights, keeps the index: its classes, counts and
        # generalized kernel are those of the verdict's D A
        _, data, _ = spied_pipeline
        S = op.sandwich(data.matrix, 0.0)
        ham = spc.hamiltonian_eigensystem(
            S, spc.symmetric_spectrum(S), data.eigensystem.zero_floor,
            np.ones(S.grid.n // 2 - 1))
        cls, ref = spc.classify_krein(ham), data.classification
        assert cls.classes == ref.classes
        assert (cls.k_r, cls.k_i_minus) == (ref.k_r, ref.k_i_minus)
        assert spc.generalized_kernel_dim(ham) == \
            cls.classes.count(spc.CLASS_ZERO)


def positive_operator() -> ParityBlocks:
    """|2 pi xi|^2 + 1 on 256 points: every eigenvalue of D A imaginary."""
    grid = sp.make_grid(256, 30.0)
    sym = np.abs(2 * np.pi * grid.wavenumbers) ** 2 + 1.0
    return assemble(op.LinOperator(grid, sym, np.zeros(grid.n),
                                   label="positive"))


def pair_blocks(cos_diag: list, sin_block) -> tuple:
    """(a, grid): the identity on 8 points with the given diagonal on the
    cosines and the given block on the sines."""
    grid = sp.make_grid(8, 2.0)
    a = np.eye(8)
    a[np.ix_([1, 3, 5], [1, 3, 5])] = np.diag(cos_diag)
    a[np.ix_([2, 4, 6], [2, 4, 6])] = sin_block
    return a, grid


# A_sin = diag(-1, 1, 1) has no square root: lambda = +-w1 is real and the
# other roots are imaginary, all on the axes
INDEFINITE_ODD_BLOCK = ([1.0, 2.0, 3.0], np.diag([-1.0, 1.0, 1.0]))
# A_cos = diag(1, -1, 2) and A_sin coupling the first two sines
# (indefinite): -(W A_sin)(W A_cos) has the roots +-i w1 w2, a complex
# quadruple
NON_REAL_ROOT = ([1.0, -1.0, 2.0], [[0, 1, 0], [1, 0, 0], [0, 0, 1]])

FULL_ORDER_CASES = {
    "positive": positive_operator,
    "indefinite-odd-block": lambda: split_parity(
        *pair_blocks(*INDEFINITE_ODD_BLOCK)),
    "non-real-root": lambda: split_parity(*pair_blocks(*NON_REAL_ROOT)),
    "repeated-pair": repeated_imaginary_pair,
}


class TestFullOrderKreinForms:
    @pytest.mark.parametrize("case", FULL_ORDER_CASES)
    def test_small_matrices_match_the_oracle(self, case):
        # the symmetric route where the odd block is positive semidefinite,
        # a theory-consistency failure where it is not
        P = FULL_ORDER_CASES[case]()
        oracle = full_order(P, 1e-3)
        assert np.iscomplexobj(oracle.x)
        assert np.any(np.isfinite(
            reference_classification(oracle).form_values))
        if indefinite_odd_block(P):
            with pytest.raises(TheoryConsistencyError, match="odd block"):
                eigensystem(P, 1e-3)
        else:
            ham = eigensystem(P, 1e-3)
            assert_matches_oracle(ham, spc.classify_krein(ham), oracle)

    def test_repeated_pair_at_full_order(self):
        ham = full_order(repeated_imaginary_pair(), 1e-3)
        cls = reference_classification(ham)
        double = np.abs(ham.eigenvalues - np.sqrt(2.0) * 1j) <= 1e-12
        assert np.count_nonzero(double) == 2
        assert cls.classes.count(spc.CLASS_IMAG_POS) == 14

    @pytest.mark.parametrize("p", [2.0, 5.0])
    def test_verdicts_match_the_oracle(self, p):
        with quiet():
            data = vd.verdict(wv.FKDV, 2.0, p, 1.0, SMALL, keep_pipeline=True)
        oracle = full_order(data.matrix, data.eigensystem.zero_floor)
        assert_matches_oracle(data.eigensystem, data.classification, oracle)


class TestParityGuard:
    def test_odd_perturbation_rejected(self, grid_small):
        x = grid_small.nodes
        even = 2.0 / np.cosh(x) ** 2
        L = op.schrodinger_operator(
            grid_small, even + 1e-6 * x * np.exp(-x ** 2), 0.5)
        with pytest.raises(ValueError, match="even and odd"):
            assemble(L)


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
        P = diagonal_on_grid(diag)
        eig = spc.symmetric_spectrum(P)
        rhs = np.zeros(8)
        rhs[1], rhs[2] = 1.0, 1e-7
        assert spc._pseudo_solve_quadratic(P, eig, parity_rhs(rhs)) == \
            pytest.approx(1.0, rel=1e-12)
        rhs[2] = 1e-5
        with pytest.raises(FredholmViolationError):
            spc._pseudo_solve_quadratic(P, eig, parity_rhs(rhs))

    def test_bracket_fallback_gives_the_same_d(self, small_pipeline,
                                               monkeypatch):
        # a high end of 1e8 times the bracket's puts every eigenvalue
        # between the shifted counts and inside the bracket: the even
        # eigenvalues and the odd eigenpairs are computed, once each,
        # zero_tol is exact, and the factors solve as before: the even
        # block's, made by the solve in the block, and the odd Cholesky one
        model, data = small_pipeline
        bracket = spc._bracket
        monkeypatch.setattr(spc, "_bracket", lambda blocks: (
            bracket(blocks)[0], 1e8 * bracket(blocks)[1]))
        with sym_eig_calls() as calls, quiet():
            eig = spc.symmetric_spectrum(data.matrix)
            with ldl_targets() as targets:
                d = spc._pseudo_solve_quadratic(
                    data.matrix, eig, constrained_rhs(model, data))
        n = data.grid.n
        assert sorted(calls) == [(n // 2 - 1, True), (n // 2 + 1, False)]
        n_neg, _, tol, _ = block_inertia(data.matrix)
        assert eig.even_values is not None and eig.odd_factor is not None
        assert targets == [(n // 2 + 1, True)]
        assert eig.zero_tol == pytest.approx(tol, rel=1e-12)
        assert eig.negative_count == n_neg
        assert d == data.result.d

    def test_near_singular_warning_even_always_odd_when_reached(self):
        # a kept eigenvalue 5e-8 against the zero tolerance 1e-8: on the
        # first cosine (index 1) it warns whatever the right-hand side, as
        # the even block keeps no vectors to measure reach; on the first
        # sine (index 2) only where the right-hand side reaches it
        even, odd = np.ones(8), np.ones(8)
        even[1] = odd[2] = 5e-8
        rhs = np.zeros(8)
        rhs[3] = 1.0
        P = diagonal_on_grid(even)
        eig = spc.symmetric_spectrum(P)
        assert eig.even_values is not None
        with pytest.warns(UserWarning, match="near-singular"):
            assert spc._pseudo_solve_quadratic(P, eig, parity_rhs(rhs)) == 1.0
        P = diagonal_on_grid(odd)
        eig = spc.symmetric_spectrum(P)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert spc._pseudo_solve_quadratic(P, eig, parity_rhs(rhs)) == 1.0
        rhs[2] = 1.0
        with pytest.warns(UserWarning, match="near-singular"):
            spc._pseudo_solve_quadratic(P, eig, parity_rhs(rhs))

    def test_bbm_translation_mode_does_not_warn(self):
        # the odd translation eigenvalue sits just above the zero tolerance
        # but an even right-hand side never reaches it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = vd.verdict(wv.FBBM, 1.5, 1.0, 1.5,
                                 vd.NumericsConfig(n=512, half_length=100.0))
        assert res.K_direct == 0


def prescribed_nu(nu: list) -> ParityBlocks:
    """A_sin = I and W A_cos W = diag(nu) on 2 len(nu) + 2 points: T is
    diag(nu) to rounding, so lambda^2 = -nu."""
    grid = sp.make_grid(2 * len(nu) + 2, 2.0)
    weights = TWO_PI * op.pair_frequencies(grid)
    even = np.eye(len(nu) + 2)
    even[1:-1, 1:-1] = np.diag(nu) / np.outer(weights, weights)
    return ParityBlocks((even, np.eye(len(nu))), grid, "prescribed")


class TestFallbackSelection:
    """Inputs at the edges of the one Hamiltonian route: zero floors
    against the squaring noise, indefinite odd blocks, and nu near a
    threshold."""

    def test_squaring_noise_against_the_zero_floor(self):
        # every nu of the positive operator lies far from +-zero_floor^2,
        # so each floor keeps the route and the oracle's spectrum
        A = positive_operator()
        noise = np.sqrt(EPS) * eigensystem(A, 0.0).scale
        for floor in (0.0, 5.0 * noise, 20.0 * noise):
            ham, oracle = eigensystem(A, floor), full_order(A, floor)
            assert not np.iscomplexobj(ham.x)
            assert nearest_distance(ham.eigenvalues, oracle.eigenvalues) \
                <= 1e-9 * oracle.scale
            assert_matches_oracle(ham, spc.classify_krein(ham), oracle)

    def test_indefinite_odd_block_is_a_theory_failure(self):
        a, grid = pair_blocks(*INDEFINITE_ODD_BLOCK)
        P = split_parity(a, grid)
        oracle = full_order(P, 1e-3)
        dense = dense_hamiltonian_eigenvalues(a, grid)
        assert nearest_distance(oracle.eigenvalues, dense) <= 1e-12
        ref = reference_classification(oracle)
        assert (ref.k_r, ref.k_c, ref.k_i_minus) == (1, 0, 0)
        eig = spc.symmetric_spectrum(P)
        with pytest.raises(TheoryConsistencyError, match="odd block"):
            spc.hamiltonian_eigensystem(P, eig, 1e-3)
        with pytest.raises(TheoryConsistencyError, match="odd block"):
            spc.hamiltonian_eigensystem(P, eig, 1e-3, np.ones(3))

    def test_non_real_root_outside_the_zero_bucket(self):
        a, grid = pair_blocks(*NON_REAL_ROOT)
        P = split_parity(a, grid)
        oracle = full_order(P, 1e-3)
        dense = dense_hamiltonian_eigenvalues(a, grid)
        assert nearest_distance(oracle.eigenvalues, dense) <= 1e-12
        assert reference_classification(oracle).k_c == 2
        with pytest.raises(TheoryConsistencyError, match="odd block"):
            eigensystem(P, 1e-3)

    def test_sub_noise_roots_reported_on_the_imaginary_axis(self):
        # max|nu| = 1, so the noise unit is eps; zero_floor^2 = 1e-2.  Only
        # -eps/2, in the zero bucket and below one unit, moves, with or
        # without vectors
        nu = [-0.5, -3.0 * EPS, -0.5 * EPS, 0.5 * EPS, 0.25, 0.75, 1.0]
        for vectors in (True, False):
            eigs = eigensystem(prescribed_nu(nu), 0.1, vectors).eigenvalues
            real = eigs[eigs.imag == 0.0].real
            assert np.allclose(real, [-np.sqrt(0.5), -np.sqrt(3.0 * EPS),
                                      np.sqrt(3.0 * EPS), np.sqrt(0.5)],
                               rtol=1e-12, atol=0.0)
            imag = eigs[eigs.imag != 0.0]
            assert np.all(imag.real == 0.0)
            assert not np.any(np.signbit(imag.real))
            assert np.count_nonzero(np.isclose(
                np.abs(imag), np.sqrt(0.5 * EPS), rtol=1e-12, atol=0.0)) == 4
            # with a zero bucket narrower than one unit, the sign of a
            # sub-noise nu would decide its class: refused instead
            with pytest.raises(UnresolvedEigenvalueError, match="noise units"):
                eigensystem(prescribed_nu(nu), 1e-10, vectors)

    def test_nu_inside_the_band_raises(self):
        # zero_floor^2 = 1e-2 and max|nu| = 1: NOISE_BAND eps either side
        # of +-1e-2 is refused, with or without vectors
        for near in (1e-2 - 3.0 * EPS, -1e-2 + 5.0 * EPS):
            for vectors in (True, False):
                with pytest.raises(UnresolvedEigenvalueError,
                                   match=r"lambda\^2 = .* lies [2-5]\.\d\d "
                                         r"noise"):
                    eigensystem(prescribed_nu([-0.5, near, 0.25, 1.0]), 0.1,
                                vectors)
        ham = eigensystem(prescribed_nu([-0.5, 1e-2 + 11.0 * EPS, 1.0]), 0.1)
        assert spc.classify_krein(ham).classes.count(spc.CLASS_IMAG_POS) == 4


def counted_or_refused(count) -> int | str:
    """The count, or the message of its UnresolvedEigenvalueError."""
    try:
        return count()
    except UnresolvedEigenvalueError as exc:
        return str(exc)


def eigenvalue_count(P: ParityBlocks, eig, zero_floor: float) -> int:
    """k_r from the eigenvalues of T: the real columns of the solve
    without vectors."""
    ham = spc.hamiltonian_eigensystem(P, eig, zero_floor, vectors=False)
    return int(np.count_nonzero(ham.split()[0]))


def real_pair_count(P: ParityBlocks, eig, zero_floor: float) -> int:
    """spectra.real_pair_count on the T of P."""
    return spc.real_pair_count(spc.t_matrix(P, eig),
                               zero_floor, P.label)


def test_real_pair_count_on_the_index_cases(spied_pipeline):
    _, data, _ = spied_pipeline
    eig = spc.symmetric_spectrum(data.matrix)
    floor = data.eigensystem.zero_floor
    assert real_pair_count(data.matrix, eig, floor) \
        == eigenvalue_count(data.matrix, eig, floor) == data.result.k_r


# nu of order one, and nu within 40 noise units eps of either threshold
# +-zero_floor^2 = +-1e-2; the appended 1 sets max|nu| = ||T||_1
NEAR_THRESHOLDS = st.one_of(
    st.floats(-1.0, 1.0),
    st.tuples(st.sampled_from([-1e-2, 1e-2]), st.integers(-40, 40)).map(
        lambda t: t[0] + t[1] * EPS))


class TestRealPairCount:
    """k_r from two LDL^T factors of T, against the eigenvalues of T: the
    same count where no nu lies in the band around -zero_floor^2, and
    otherwise the eigenvalues' answer or refusal."""

    @given(st.lists(NEAR_THRESHOLDS, min_size=2, max_size=12))
    def test_equals_the_eigenvalue_count(self, nu):
        P = prescribed_nu(nu + [1.0])
        eig = spc.symmetric_spectrum(P)
        got = counted_or_refused(lambda: real_pair_count(P, eig, 0.1))
        want = counted_or_refused(lambda: eigenvalue_count(P, eig, 0.1))
        # max|nu| = 1, so the band of -zero_floor^2 is NOISE_BAND eps wide
        near_real = any(abs(v + 0.1 ** 2) < (spc.NOISE_BAND - 0.5) * EPS
                        for v in nu)
        if near_real or isinstance(got, str):
            assert isinstance(want, str) and got == want
        else:
            # where the eigenvalues refuse, a nu lies near +zero_floor^2
            assert got == sum(v < -0.1 ** 2 for v in nu)
            assert isinstance(want, str) or want == got

    @given(st.lists(NEAR_THRESHOLDS, min_size=2, max_size=12))
    def test_second_factor_unless_the_first_count_is_zero(self, nu):
        # the factor at zero_floor^2 - band counts the nu below
        # -zero_floor^2 + band: 0 settles the other end, and any other
        # count takes the second factor
        edge = -0.1 ** 2 + spc.NOISE_BAND * EPS
        assume(all(abs(v - edge) > 0.5 * EPS for v in nu))
        P = prescribed_nu(nu + [1.0])
        eig = spc.symmetric_spectrum(P)
        t_mat = spc.t_matrix(P, eig)
        with ldl_calls() as calls:
            got = counted_or_refused(
                lambda: spc.real_pair_count(t_mat, 0.1, P.label))
        first = sum(v < edge for v in nu)
        assert len(calls) == 1 + (first > 0)
        assert first or got == 0

    def test_nu_near_the_real_threshold_is_refused(self, monkeypatch):
        # both factors at once cannot tell the side of -zero_floor^2: the
        # eigenvalues decide, and refuse as the solve without vectors does
        P = prescribed_nu([-0.5, -1e-2 + 5.0 * EPS, 0.25, 1.0])
        eig = spc.symmetric_spectrum(P)
        with pytest.raises(UnresolvedEigenvalueError) as plain:
            eigenvalue_count(P, eig, 0.1)
        # on the T in hand: T is formed once
        calls = {"_restricted_t": 0, "_t_spectrum": 0}
        count_calls(monkeypatch, spc._restricted_t, calls)
        count_calls(monkeypatch, spc._t_spectrum, calls)
        with pytest.raises(UnresolvedEigenvalueError) as refused:
            real_pair_count(P, eig, 0.1)
        assert calls == {"_restricted_t": 1, "_t_spectrum": 1}
        assert str(refused.value) == str(plain.value)

    def test_nu_near_the_imaginary_threshold_is_counted(self, monkeypatch):
        # +zero_floor^2 separates zero from imaginary, and neither is
        # counted: the count answers where the eigenvalues refuse
        P = prescribed_nu([-0.5, 1e-2 - 3.0 * EPS, 0.25, 1.0])
        eig = spc.symmetric_spectrum(P)
        with pytest.raises(UnresolvedEigenvalueError, match="noise units"):
            eigenvalue_count(P, eig, 0.1)
        calls = {"_t_spectrum": 0}
        count_calls(monkeypatch, spc._t_spectrum, calls)
        assert real_pair_count(P, eig, 0.1) == 1
        assert calls == {"_t_spectrum": 0}


# s = 2 grids finer than the default spacing, on which the squaring noise
# is a larger share of the zero floor: 10 sqrt(eps) max|lambda| exceeds it
FINE_GRIDS = [(2.0, 1024, 10.0), (5.0, 1024, 10.0), (5.0, 2048, 40.0)]


class TestFinerGrids:
    @pytest.mark.parametrize("p, n, half_length", FINE_GRIDS)
    def test_verdict_matches_the_oracle(self, p, n, half_length):
        with quiet():
            data = vd.verdict(wv.FKDV, 2.0, p, 1.0, vd.NumericsConfig(
                n=n, half_length=half_length), keep_pipeline=True)
        ham, res = data.eigensystem, data.result
        assert 10.0 * np.sqrt(EPS) * ham.scale > ham.zero_floor
        ref = assert_matches_oracle(ham, data.classification,
                                    full_order(data.matrix, ham.zero_floor))
        band = vd.DEGENERACY_BAND_REL * wv.squared_norm(data.wave)
        _, verdict, _ = vd._resolve_verdict(
            res.n_L, res.slope, res.slope_reference, band, ref.k_r,
            data.matrix.label, check_reference_sign=True)
        assert verdict == res.verdict

    @pytest.mark.slow
    def test_unstable_eigenvalue_on_the_doubled_grid(self):
        with quiet():
            data = vd.verdict(wv.FKDV, 2.0, 4.1, 1.0, vd.NumericsConfig(
                n=4096, half_length=80.0), keep_pipeline=True)
        res = data.result
        assert res.verdict == vd.UNSTABLE
        assert res.K_formula == res.K_direct == 1
        classes = np.array(data.classification.classes)
        unstable = data.eigensystem.eigenvalues[classes == spc.CLASS_REAL_POS]
        assert unstable.size == 1
        assert abs(unstable[0] - 0.047272) <= 1e-5


@st.composite
def even_operators(draw):
    """A linearization |2 pi xi|^s + c + V on n <= 64 points with a random
    even potential V, or the gKdV linearization about the exact sech
    soliton on n = 32 or 64 points, whose odd block's lowest eigenvalue,
    the translation mode, lies anywhere from within zero_tol through its
    bracket and the near-singular band to 1e6 zero_tol, as the grid
    resolves the soliton."""
    if draw(st.booleans()):
        grid = sp.make_grid(draw(st.sampled_from([32, 64])),
                            draw(st.floats(6.0, 14.0)))
        with quiet():
            wave = sech_profile(grid, draw(st.floats(1.0, 3.0)),
                                draw(st.floats(0.5, 2.0)))
        return op.linearization(wave)
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
    blocks, dense = assemble(L).dense(), dense_matrix(L)
    assert np.max(np.abs(blocks - dense)) <= 1e-13 * np.max(np.abs(dense))


@given(even_operators())
def test_block_inertia_equals_full_inertia(L):
    n_neg, kernel, _ = dense_inertia(dense_matrix(L))
    A = assemble(L)
    assert block_inertia(A)[:2] == (n_neg, kernel)
    assert spc.negative_count(A) == n_neg
    assert spc.symmetric_spectrum(A).negative_count == n_neg


def spread_operator() -> op.LinOperator:
    """|2 pi xi|^2 + 1 + V on 32 points, a draw of even_operators on which
    the small nu of the counts-only solve and of the solve with vectors
    lie 2.18 noise units apart."""
    grid = sp.make_grid(32, 4.0)
    half = [0.0, 0.5, 1.75, 1.4375, 0.0, 0.0, 1.25, 1.0, 1.0625, 1.5, 0.5,
            0.5, 0.0, 0.0, 2.0, -0.25, 0.0]
    potential = np.array(half + half[-2:0:-1])
    return op.LinOperator(grid, sp.fractional_symbol(grid, 2.0) + 1.0,
                          potential, label="random")


@example(spread_operator())
@given(even_operators())
def test_block_hamiltonian_spectrum_equals_dense(L):
    # a positive semidefinite odd block takes the symmetric route, whose
    # counts, classes and small nu match the oracle's on the operator
    # with the odd kernel deflated; an indefinite one is a
    # theory-consistency failure.  The counts-only nu lie within
    # NOISE_BAND / 2 units of those with vectors, as on the random blocks:
    # 2.18 units on spread_operator
    A = assemble(L)
    assert_factor_route_matches_the_oracle(A)
    if indefinite_odd_block(A):
        return
    dense = dense_hamiltonian_eigenvalues(odd_kernel_deflated(A).dense(),
                                          L.grid)
    noise = np.sqrt(EPS) * float(np.max(np.abs(dense)))
    ham = eigensystem(A, 20.0 * noise)
    assert nearest_distance(ham.eigenvalues, dense) <= 10.0 * noise
    assert_counts_only_agrees(A, spc.symmetric_spectrum(A), 20.0 * noise,
                              spc.NOISE_BAND / 2.0)


@given(even_operators())
def test_sandwich_hamiltonian_spectrum_equals_dense(L):
    # J S from the symmetric route against the full-order J S of the
    # sandwich formed on the dense matrix, its odd kernel deflated, where
    # the odd block is positive semidefinite; a theory-consistency failure
    # where it is not
    quarter = sp.quarter_root_symbol(L.grid, 0.0)
    dense = dense_sandwich_hamiltonian_eigenvalues(odd_kernel_deflated(
        split_parity(dense_congruence(dense_matrix(L), L.grid, quarter),
                     L.grid)).dense(), L.grid)
    scale = float(np.max(np.abs(dense)))
    noise = np.sqrt(np.finfo(float).eps) * scale
    S = op.sandwich(assemble(L), 0.0)
    eig = spc.symmetric_spectrum(S)
    unit = np.ones(S.grid.n // 2 - 1)
    if indefinite_odd_block(S):
        with pytest.raises(TheoryConsistencyError, match="odd block"):
            spc.hamiltonian_eigensystem(S, eig, 20.0 * noise, unit)
        return
    half = spc.hamiltonian_eigensystem(S, eig, 20.0 * noise, unit)
    assert nearest_distance(half.eigenvalues, dense) <= 10.0 * noise


def rotated_blocks(even: list, odd: list, seed: int) -> ParityBlocks:
    """Parity blocks Q diag(w) Q^T with the given eigenvalues w and random
    orthogonal Q, on a grid of len(even) + len(odd) points."""
    rng = np.random.default_rng(seed)

    def block(w):
        q, _ = np.linalg.qr(rng.standard_normal((len(w), len(w))))
        a = (q * np.array(w)) @ q.T
        return 0.5 * (a + a.T)
    return ParityBlocks((block(even), block(odd)),
                        sp.make_grid(len(even) + len(odd), 2.0), "rotated")


@st.composite
def random_parity_blocks(draw, odd_kernel: int | None = None):
    """Parity blocks on n <= 32 points whose eigenvalues mix order one,
    the scale of the zero tolerance, and exact zeros.  With odd_kernel,
    the odd block is positive semidefinite instead, with that many exact
    zeros, perhaps one eigenvalue in the near-singular band (1e-7, 1e-6)
    against zero_tol = 1e-8, and the others in [0.1, 1]; the even block
    holds 1, which sets max|w|, and the others in +-[0.1, 1]."""
    n = draw(st.sampled_from([8, 16, 32]))
    if odd_kernel is None:
        w = draw(st.lists(st.one_of(st.floats(-1.0, 1.0),
                                    st.floats(-1e-7, 1e-7), st.just(0.0)),
                          min_size=n, max_size=n))
        even, odd = w[:n // 2 + 1], w[n // 2 + 1:]
    else:
        order_one = st.floats(0.1, 1.0)
        even = [1.0] + draw(st.lists(
            st.one_of(order_one, order_one.map(lambda v: -v)),
            min_size=n // 2, max_size=n // 2))
        near = draw(st.lists(st.floats(1e-7, 1e-6), max_size=1))
        rest = n // 2 - 1 - odd_kernel - len(near)
        odd = [0.0] * odd_kernel + near + draw(st.lists(
            order_one, min_size=rest, max_size=rest))
    return rotated_blocks(even, odd, draw(st.integers(0, 2 ** 32 - 1)))


@given(random_parity_blocks())
def test_ldl_count_equals_the_eigenvalue_count(P):
    n_neg = block_inertia(P)[0]
    assert spc.negative_count(P) == n_neg
    assert spc.symmetric_spectrum(P).negative_count == n_neg


@given(st.integers(0, 2).flatmap(lambda k: st.tuples(
    st.just(k), random_parity_blocks(odd_kernel=k))))
def test_factor_route_on_odd_kernels(case):
    # odd kernels of dimension 0, 1 and 2, and an odd eigenvalue in the
    # near-singular band: the Ritz pairs are certified without an
    # eigensolve, the Cholesky factor deflates exactly the kernel, and the
    # Hamiltonian spectrum matches the oracle's
    odd_kernel, P = case
    with sym_eig_calls() as calls:
        eig = spc.symmetric_spectrum(P)
    assert calls == []
    n_neg, kernel, tol, _ = block_inertia(P)
    assert eig.negative_count == n_neg and kernel == odd_kernel
    assert eig.odd_factor[1].shape[1] == odd_kernel
    near = (np.abs(eig.odd_low[0]) > tol) & (np.abs(eig.odd_low[0]) < 1e3 * tol)
    assert np.count_nonzero(near) == eig.odd_low[0].size - odd_kernel
    assert_factor_route_matches_the_oracle(P)


def test_ldl_count_on_the_index_cases(spied_pipeline):
    _, data, _ = spied_pipeline
    n_neg = block_inertia(data.matrix)[0]
    assert data.result.n_L == spc.negative_count(data.matrix) == n_neg
    assert spc.symmetric_spectrum(data.matrix).negative_count == n_neg


@contextmanager
def ldl_calls():
    """The (order, shift) of every spectra._ldl call in the block: the
    factors of the dense route and of the wave's core."""
    calls, ldl = [], spc._ldl
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spc, "_ldl", lambda block, shift, out: calls.append(
            (block.shape[0], shift)) or ldl(block, shift, out))
        yield calls


# INDEX_CASES on their grids, and atlas points on their default grids;
# fbbm (1, 3, 2) is an exit-3 point of the atlas
CERTIFIED_CASES = [
    *[(m, s, p, c, vd.NumericsConfig(n=512, half_length=half_length))
      for m, s, p, c, half_length in INDEX_CASES],
    (wv.FKDV, 1.5, 2.0, 1.0, None), (wv.FKDV, 0.75, 1.5, 1.0, None),
    (wv.FBBM, 2.0, 4.0, 2.0, None), (wv.FBBM, 1.0, 3.0, 2.0, None)]


@pytest.mark.parametrize(
    "model, s, p, c, numerics", CERTIFIED_CASES,
    ids=lambda v: "default" if v is None else f"n{v.n}-l{v.half_length:g}"
    if isinstance(v, vd.NumericsConfig) else str(v))
def test_one_factor_counts_equal_both_factors(monkeypatch, model, s, p, c,
                                              numerics):
    # every pair of counts of a counting verdict on the dense route
    # (forced: the wave's core takes some of these points), where a count
    # of 0 settles the second, is what the factors at both ends and the
    # eigenvalues give
    seen, counts = [], spc._counts

    def spy(block, ends):
        got = counts(block, ends)
        work = np.empty(block.size)
        w = scipy.linalg.eigvalsh(block)
        seen.append((got, tuple(spc._negatives(*spc._ldl(block, z, work))
                                for z in ends),
                     tuple(int(np.count_nonzero(w < -z)) for z in ends)))
        return got
    monkeypatch.setattr(spc, "_counts", spy)
    monkeypatch.setattr(cores, "core_counts", lambda *args: None)
    with quiet():
        try:
            vd.verdict(model, s, p, c, numerics)
        except TheoryConsistencyError:
            assert (model, s, p, c) == (wv.FBBM, 1.0, 3.0, 2.0)
    # L0's odd block for a weighted row, then T: the even counts come from
    # the wave's core (test_core_counts_equal_the_dense_counts)
    assert len(seen) == 1 + wv.MODELS[model].weighted
    assert all(got == factors == values for got, factors, values in seen)


# CERTIFIED_CASES, the benchmark items, and fkdv (0.6, 1.2, 1), whose
# default grid has n = 4096
CORE_CASES = [*CERTIFIED_CASES, (wv.FKDV, 2.0, 2.0, 1.0, None),
              (wv.FKDV, 2.0, 5.0, 1.0, None), (wv.FBBM, 1.5, 1.0, 1.5, None),
              (wv.FKDV, 0.6, 1.2, 1.0, None)]


def schrodinger_sources() -> list:
    """The blocks of the Schroedinger self-check case, -d^2 + 1/2 - 2
    sech^2 on its grid, and their sandwiches at eps > 0."""
    grid = sp.make_grid(1024, 40.0)
    A = op.operator_blocks(op.schrodinger_operator(
        grid, 2.0 / np.cosh(grid.nodes) ** 2, 0.5))
    return [A, *(op.sandwich(A, eps) for eps in vd.SANDWICH_EPS if eps > 0)]


@pytest.mark.parametrize(
    "model, s, p, c, numerics",
    [*CORE_CASES, pytest.param(None, None, None, None, None,
                               id="schrodinger-sech2")],
    ids=lambda v: "default" if v is None else f"n{v.n}-l{v.half_length:g}"
    if isinstance(v, vd.NumericsConfig) else str(v))
def test_core_counts_equal_the_dense_counts(model, s, p, c, numerics):
    # #{w < -z} of the even block at both ends of the bracket of zero_tol
    # and of the gap -+ 1e3 z_high, for L and for the weighted S, and for
    # the Schroedinger operator and its eps > 0 sandwiches: the core
    # settles each, with the count of the dense block's eigenvalues
    if model is None:
        sources = schrodinger_sources()
    else:
        grid = (numerics or vd.NumericsConfig()).grid_for(s)
        with quiet():
            U = wv.solve_traveling_wave(model, s, p, c, grid)
        sources = [op.operator_blocks(op.linearization(U))]
        if wv.MODELS[model].weighted:
            sources.append(op.congruence(
                sources[0], op.symmetrizing_weight(grid, s), "bbm-sym"))
    for P in sources:
        w = scipy.linalg.eigvalsh(P.block(0))
        bracket = spc._bracket([P.span(0), P.span(1)])
        settled = [bracket, (-1e3 * bracket[1], 1e3 * bracket[1])]
        if P.label.startswith("sandwich"):
            # |d|^(1/2) puts even eigenvalues between -+ 1e3 z_high, so
            # that is no gap, and the core declines it
            gap = settled.pop()
            assert len({int(np.count_nonzero(w < -z)) for z in gap}) > 1
            assert cores.core_count(P, gap) is None
        for ends in settled:
            assert cores.core_count(P, ends) \
                == int(np.count_nonzero(w < -ends[0])) \
                == int(np.count_nonzero(w < -ends[1]))


def test_a_vanishing_weight_takes_the_dense_counts():
    # the eps = 0 sandwich's weight is 0 on the zero mode, where the core
    # route's congruence is singular: the core declines it, with no
    # division by zero, and the even block's factors count
    grid = sp.make_grid(512, 30.0)
    with quiet():
        L = op.linearization(wv.solve_ground_state(2.0, 2.0, grid))
    S = op.sandwich(op.operator_blocks(L), 0.0)
    with np.errstate(divide="raise"), ldl_calls() as calls:
        assert cores.core_count(S, spc._bracket([S.span(0), S.span(1)])) \
            is None
        assert spc.negative_count(S) == block_inertia(S)[0] == 1
    assert any(order == grid.n // 2 + 1 for order, _ in calls)


@pytest.mark.parametrize("model, s, p, c, half_length",
                         [(wv.FKDV, 1.0, 1.0, 1.0, 30.0), INDEX_CASES[3]])
def test_weyl_ends_apart_take_the_dense_counts(monkeypatch, model, s, p, c,
                                               half_length):
    # delta = 0.9 min(mu) lies above the gap between 0 and the next even
    # eigenvalue of L (0.61 for the Benjamin-Ono wave, 0.35 for this BBM
    # one, where min(mu) = 1 and 0.5): the core's outer ends differ, each
    # count it leaves falls back to the even block's factors, and the
    # verdict is the same
    numerics = vd.NumericsConfig(n=512, half_length=half_length)
    with quiet():
        want = vd.verdict(model, s, p, c, numerics)
    settled, core = [], cores.core_count
    monkeypatch.setattr(cores, "CORE_FRACTION", 0.9)
    monkeypatch.setattr(cores, "core_count", lambda P, ends: settled.append(
        core(P, ends)) or settled[-1])
    with quiet(), ldl_calls() as calls:
        got = vd.verdict(model, s, p, c, numerics)
    assert got == want
    # the gap, and for a weighted row n(L0) first
    assert settled == [None] * (1 + wv.MODELS[model].weighted)
    assert len([z for order, z in calls
                if order == 512 // 2 + 1 and z != 0.0]) >= len(settled)


@contextmanager
def dense_kernel_orders():
    """The order of every dsytrf, dpotrf and dtrmm call in the block: its
    largest array argument's."""
    orders = []
    with pytest.MonkeyPatch.context() as mp:
        for module, name in ((scipy.linalg.lapack, "dsytrf"),
                             (scipy.linalg.lapack, "dpotrf"),
                             (scipy.linalg.blas, "dtrmm")):
            def spy(*args, _fn=getattr(module, name), **kw):
                orders.append(max(a.shape[0] for a in args
                                  if isinstance(a, np.ndarray)))
                return _fn(*args, **kw)
            mp.setattr(module, name, spy)
        yield orders


@pytest.mark.parametrize("model, s, p, c, factors", [
    (wv.FKDV, 2.0, 2.0, 1.0, 3), (wv.FKDV, 2.0, 5.0, 1.0, 4),
    (wv.FBBM, 1.5, 1.0, 1.5, 4)])
def test_ldl_factors_of_the_benchmark_verdicts(monkeypatch, model, s, p, c,
                                               factors):
    # the fKdV items take n(L), d and k_r from the wave's core: no LDL^T
    # factor, Cholesky factor or triangular product of order n/2 - 2 or
    # more.  On the dense route, which fBBM takes, the even counts come
    # from the wave's core: the even block's factor at 0, the odd block's
    # at the shift and, for a weighted row, L0's odd block's at the low
    # end, where its count of 0 settles the high end; T's, and its second
    # factor where k_r = 1.  The wave's core factors only matrices of
    # lower order
    n, _ = vd.default_grid(s)

    def dense(calls):
        return [call for call in calls if call[0] >= n // 2 - 2]
    with quiet(), ldl_calls() as calls, dense_kernel_orders() as orders:
        vd.verdict(model, s, p, c)
    if model == wv.FKDV:
        assert dense(calls) == [] and max(orders) < n // 2 - 2
        monkeypatch.setattr(cores, "core_counts", lambda *args: None)
        with quiet(), ldl_calls() as calls:
            vd.verdict(model, s, p, c)
    assert len(dense(calls)) == factors


def dominant_blocks(placed: float, in_odd: bool, odd_dominant: bool,
                    seed: int) -> ParityBlocks:
    """16 points: the eigenvalue 100, which sets max|w| and both ends of
    the bracket, in the odd block or the even one, 7 of order one in the
    even block and 5 of order 0.01 to 0.1 in the odd one, one eigenvalue
    placed in the given block, and 0.5 (even) or 0.05 (odd) filling."""
    rng = np.random.default_rng(seed)
    even = list(rng.choice([-1.0, 1.0], 7) * rng.uniform(0.1, 1.0, 7))
    odd = list(rng.uniform(0.01, 0.1, 5))
    (odd if odd_dominant else even).append(100.0)
    (odd if in_odd else even).append(placed)
    return rotated_blocks(even + [0.5] * (9 - len(even)),
                          odd + [0.05] * (7 - len(odd)), seed)


@given(st.floats(0.01, 0.99), st.booleans(), st.booleans(),
       st.integers(0, 1000))
def test_eigenvalue_inside_the_bracket_takes_the_fallback(t, in_odd,
                                                          odd_dominant, seed):
    # an eigenvalue in [-z_high, -z_low] counts or not by where the exact
    # zero_tol falls: both routes count as the oracle does.  A placed even
    # eigenvalue makes the even eigenvalues decide, exact where the even
    # block sets z_high; a placed odd one, or an odd block that sets
    # z_high, brings the odd eigenpairs in place of the Ritz pairs.  The
    # Hamiltonian spectrum matches the oracle's, or the odd block is
    # indefinite.  Each block is eigendecomposed at most once, the even
    # one without vectors
    def blocks(placed):
        return dominant_blocks(placed, in_odd, odd_dominant, seed)
    def bracket(P):
        return spc._bracket([P.span(0), P.span(1)])
    low, high = bracket(blocks(0.0))
    P = blocks(-low * (high / low) ** t)
    assert bracket(P) == pytest.approx((low, high), rel=1e-6)
    n_neg, _, tol, _ = block_inertia(P)
    with sym_eig_calls() as calls:
        assert spc.negative_count(P) == n_neg
    assert calls == [(9, False), (7, False)]
    with sym_eig_calls() as calls:
        eig = spc.symmetric_spectrum(P)
    assert sorted(calls) == \
        [(7, True)] * (in_odd or odd_dominant) + [(9, False)]
    assert eig.zero_tol == pytest.approx(tol, rel=1e-12)
    assert eig.negative_count == n_neg
    assert_factor_route_matches_the_oracle(P)


@example(20.0, 1.0, 33)
@example(20.0, 1.0, 233)
@given(st.floats(2.0, 500.0), st.sampled_from([-1.0, 1.0]),
       st.integers(0, 1000))
def test_parity_shares_match_the_exact_solve(c, sign, seed):
    # an even eigenvalue kept, but within 1e3 zero_tol: its eigenvalues,
    # computed once without vectors, decide, the even block's LDL^T
    # factor still solves, and every solve warns, as no even vector is
    # left to measure reach.  Each parity share, its right-hand side
    # alone, against the exact solve on the float entries: the even one
    # within eps cond(E) of it (measured at most 0.068 of that, at
    # seed 33), the odd one, by Cholesky, within the textbook order times
    # that (at most 1.36 eps cond(O), at seed 233)
    P = dominant_blocks(sign * c * 1e-6, False, False, seed)
    rhs = parity_rhs(np.random.default_rng(seed).standard_normal(16))
    with sym_eig_calls() as calls:
        eig = spc.symmetric_spectrum(P)
    assert calls == [(9, False)]
    for i, (block, order) in enumerate(zip(blocks_of(P), (1, 7))):
        share = tuple(part if j == i else np.zeros_like(part)
                      for j, part in enumerate(rhs))
        with pytest.warns(UserWarning, match="near-singular"):
            d = spc._pseudo_solve_quadratic(P, eig, share)
        exact = exact_quadratic(block, rhs[i])
        assert abs(Fraction(d) - exact) <= \
            order * EPS * np.linalg.cond(block) * abs(exact)
