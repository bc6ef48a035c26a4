import gc
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hkindex import operators as op
from hkindex import spectra as spc
from hkindex import spectral as sp
from hkindex import waves as wv

from conftest import apply, quiet, wave
from dense_reference import (assemble, block_inertia, blocks_of,
                             cross_block, dense_congruence, dense_matrix,
                             from_coords, interleave, real_fourier_basis)


def make_identity_operator(grid):
    return op.LinOperator(grid, np.ones(grid.n), np.zeros(grid.n),
                          label="identity")


def symmetrize(A, s):
    """(I+M)^(-1/2) A (I+M)^(-1/2), M = |d|^s, as the fBBM verdict forms it."""
    return op.congruence(A, op.symmetrizing_weight(A.grid, s), "bbm-sym")


class TestBasis:
    def test_orthonormal(self, grid_small):
        phi = real_fourier_basis(grid_small)
        gram = grid_small.spacing * phi.T @ phi
        assert np.max(np.abs(gram - np.eye(grid_small.n))) <= 1e-12

    def test_coords_round_trip(self, grid_small):
        rng = np.random.default_rng(0)
        v = rng.standard_normal(grid_small.n)
        back = from_coords(grid_small, op.to_coords(grid_small, v))
        assert np.max(np.abs(back - v)) <= 1e-12 * np.max(np.abs(v))

    def test_coordinate_dot_equals_l2_pairing(self, grid_small):
        rng = np.random.default_rng(1)
        f = rng.standard_normal(grid_small.n)
        g = rng.standard_normal(grid_small.n)
        lhs = sum(float(np.dot(cf, cg)) for cf, cg in
                  zip(op.to_coords(grid_small, f), op.to_coords(grid_small, g)))
        rhs = grid_small.spacing * float(np.dot(f, g))
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestKdvLinearization:
    def test_translational_kernel(self, grid40, q22):
        L = op.linearization(q22)
        dq = sp.apply(sp.derivative_symbol(grid40), q22.values)
        assert np.max(np.abs(apply(L, dq))) <= 1e-7

    def test_action_on_wave_is_minus_p_power(self, grid40, q22):
        u = q22
        L = op.linearization(q22)
        lhs = apply(L, u.values)
        rhs = -u.p * u.values ** (u.p + 1.0)
        assert np.max(np.abs(lhs - rhs)) <= 1e-7

    def test_far_field_potential_decays(self, grid40, q22):
        L = op.linearization(q22)
        outer = np.abs(grid40.nodes) >= 0.95 * grid40.half_length
        assert np.max(np.abs(L.potential[outer])) <= 1e-6

    def test_assembled_matrix_is_symmetric(self, grid40, q22):
        # assemble and every congruence build exactly symmetric blocks
        A = assemble(op.linearization(q22))
        L0 = op.linearization(wave(wv.FBBM, q22, 2.0))
        for P in (A, op.sandwich(A, 0.0), op.sandwich(A, 1e-2),
                  symmetrize(assemble(L0), 2.0)):
            assert all(np.array_equal(block, block.T)
                       for block in blocks_of(P))


class TestBbmLinearization:
    def test_translational_kernel(self, grid40, q22):
        u = wave(wv.FBBM, q22, 2.0)
        L0 = op.linearization(u)
        du = sp.apply(sp.derivative_symbol(grid40), u.values)
        rel = np.max(np.abs(apply(L0, du))) / np.max(np.abs(du))
        assert rel <= 1e-6

    def test_multiplier_floor_is_c_minus_one(self, q22):
        u = wave(wv.FBBM, q22, 2.0)
        L0 = op.linearization(u)
        assert np.min(L0.multiplier_symbol) == pytest.approx(1.0)

    def test_zero_mode_value_example(self, grid40):
        q = wv.solve_ground_state(2.0, 1.0, grid40)
        L0 = op.linearization(wave(wv.FBBM, q, 2.0))
        assert L0.multiplier_symbol[0] == pytest.approx(1.0)


class TestSandwich:
    def test_identity_gives_abs_derivative(self, grid_small):
        S = op.sandwich(assemble(make_identity_operator(grid_small)), 0.0)
        # basis column j carries |xi| = ((j + 1) // 2) / (2l)
        k = (np.arange(grid_small.n) + 1) // 2
        expected = 2.0 * np.pi * k / (2.0 * grid_small.half_length)
        assert np.max(np.abs(S.dense() - np.diag(expected))) <= 1e-12

    def test_negative_count_preserved(self, grid40, q22):
        A = assemble(op.linearization(q22))
        n_plain = spc.symmetric_spectrum(A).negative_count
        n_sand = spc.symmetric_spectrum(op.sandwich(A, 0.0)).negative_count
        assert n_plain == n_sand == 1

    def test_kernel_vector_annihilated(self, grid40, q22):
        L = op.linearization(q22)
        S = op.sandwich(assemble(L), 0.0).dense()
        dq = sp.apply(sp.derivative_symbol(grid40), q22.values)
        xi = grid40.wavenumbers
        halfinv = np.zeros(grid40.n)
        nz = np.abs(xi) > 0
        halfinv[nz] = (2 * np.pi * np.abs(xi[nz])) ** -0.5
        kv = sp.apply(halfinv, dq)
        coords = interleave(op.to_coords(grid40, kv))
        rel = np.linalg.norm(S @ coords) / (
            np.linalg.norm(S, 1) * np.linalg.norm(coords))
        assert rel <= 1e-6

    def test_spectral_floor_for_positive_eps(self, grid_small):
        # constant-coefficient part of the KdV linearization: q(xi) >= c
        c = 0.7
        sym = np.abs(2 * np.pi * grid_small.wavenumbers) ** 2 + c
        L0 = op.LinOperator(grid_small, sym, np.zeros(grid_small.n),
                            label="const-coeff")
        A = assemble(L0)
        for eps in (1e-3, 1e-2, 1e-1):
            S = op.sandwich(A, eps)
            smallest = block_inertia(S)[3][0]
            assert smallest >= c * eps * (1.0 - 1e-6)


class TestBbmSymmetrize:
    def test_identity_plus_m_becomes_identity(self, grid_small):
        s = 1.5
        sym = 1.0 + np.abs(2 * np.pi * grid_small.wavenumbers) ** s
        L0 = op.LinOperator(grid_small, sym, np.zeros(grid_small.n),
                            label="I+M")
        S = symmetrize(assemble(L0), s)
        assert np.max(np.abs(S.dense() - np.eye(grid_small.n))) <= 1e-12

    def test_kernel_vector_annihilated(self, grid40, q22):
        u = wave(wv.FBBM, q22, 2.0)
        L0 = op.linearization(u)
        S = symmetrize(assemble(L0), u.s).dense()
        du = sp.apply(sp.derivative_symbol(grid40), u.values)
        sqrt_im = (1.0 + np.abs(2 * np.pi * grid40.wavenumbers) ** u.s) ** 0.5
        kv = sp.apply(sqrt_im, du)
        coords = interleave(op.to_coords(grid40, kv))
        rel = np.linalg.norm(S @ coords) / (
            np.linalg.norm(S, 1) * np.linalg.norm(coords))
        assert rel <= 1e-6

    def test_negative_count_preserved(self, grid40, q22):
        L0 = op.linearization(wave(wv.FBBM, q22, 2.0))
        A = assemble(L0)
        n0 = spc.negative_count(A)
        ns = spc.symmetric_spectrum(symmetrize(A, 2.0)).negative_count
        assert n0 == ns == 1


class TestSchrodinger:
    def test_zero_potential_is_positive(self, grid_small):
        V = np.zeros(grid_small.n)
        A = assemble(op.schrodinger_operator(grid_small, V, 0.5))
        assert spc.negative_count(A) == 0
        assert block_inertia(A)[3][0] >= 0.5 - 1e-12

    def test_reflectionless_well_has_one_bound_state(self, grid40):
        V = 2.0 / np.cosh(grid40.nodes) ** 2
        L = op.schrodinger_operator(grid40, V, 0.5)
        A = assemble(L)
        assert spc.negative_count(A) == 1
        assert block_inertia(A)[3][0] == pytest.approx(-0.5, abs=1e-6)

    def test_sandwich_preserves_count(self, grid40):
        V = 2.0 / np.cosh(grid40.nodes) ** 2
        A = assemble(op.schrodinger_operator(grid40, V, 0.5))
        assert spc.negative_count(op.sandwich(A, 0.0)) == 1

    def test_slow_decay_warns(self, grid_small):
        V = 1.0 / (1.0 + grid_small.nodes ** 2)
        with pytest.warns(UserWarning, match="decays slowly"):
            op.schrodinger_operator(grid_small, V, 1.0)


class TestMatrixDump:
    def test_round_trip(self, tmp_path, grid_small, q22):
        # the identity, a wave's linearization and the Schroedinger
        # operator, each read through its blocks: the header's order is n,
        # and the matrix is the held oracle's dense() bit for bit
        V = 2.0 / np.cosh(grid_small.nodes) ** 2
        for i, L in enumerate((make_identity_operator(grid_small),
                               op.linearization(q22),
                               op.schrodinger_operator(grid_small, V, 0.5))):
            bin_path, json_path = op.save_matrix(op.operator_blocks(L),
                                                 tmp_path / f"{i}.bin")
            header = json.load(open(json_path))
            assert header["order"] == L.grid.n
            with open(bin_path, "rb") as f:
                assert f.read() == assemble(L).dense().astype("<f8").tobytes()

    def test_non_finite_entries_rejected(self, tmp_path, grid_small):
        L = make_identity_operator(grid_small)
        potential = L.potential.copy()
        potential[3] = np.nan
        A = assemble(op.LinOperator(grid_small, L.multiplier_symbol,
                                    potential, label="nan"))
        with pytest.raises(ValueError, match="non-finite"):
            op.save_matrix(A, tmp_path / "operator.bin")
        assert not (tmp_path / "operator.bin").exists()


ORACLE_GRIDS = {256: sp.make_grid(256, 15.0), 512: sp.make_grid(512, 30.0)}

# (n, l) of the bitwise checks of the chunked products: a small grid, the
# s >= 2 default and the s < 0.7 one
BITWISE_GRIDS = [(256, 30.0), (2048, 80.0), (4096, 50.0)]

# how far the coupling bound may lie above max|cross|.  Without a
# congruence at most sqrt(2) times: the row of the constant mode reaches
# max|S| / (sqrt(2) l).  A congruence's symbol need not peak where S does,
# and two lie furthest apart, as the BBM weight peaks at xi = 0 and the
# quarter root at the Nyquist mode.  Measured on the grids of the test: at
# most 1.24, 1.77, 9.12 and 326.
COUPLING_SLACK = {"A": 2, "sandwich": 4, "bbm": 16, "bbm-sandwich": 1024}


def _oracle_case(name, grid):
    """(blocks from assemble and congruence, the same matrix through the
    basis matrix) for one operator of the pipeline."""
    if name == "schrodinger":
        V = 2.0 / np.cosh(grid.nodes) ** 2
        L = op.schrodinger_operator(grid, V, 0.5)
        return assemble(L), dense_matrix(L)
    if name == "fbbm-sym":
        with quiet():
            q = wv.solve_ground_state(1.5, 1.0, grid)
            L0 = op.linearization(wave(wv.FBBM, q, 1.5))
        weight = op.symmetrizing_weight(grid, 1.5)
        return (op.congruence(assemble(L0), weight, "bbm-sym"),
                dense_congruence(dense_matrix(L0), grid, weight))
    p = 5.0 if name == "fkdv-p5" else 2.0
    L = op.linearization(wv.solve_ground_state(2.0, p, grid))
    if not name.startswith("sandwich"):
        return assemble(L), dense_matrix(L)
    eps = float(name.split("=")[1])
    quarter = sp.quarter_root_symbol(grid, eps)
    return (op.sandwich(assemble(L), eps),
            dense_congruence(dense_matrix(L), grid, quarter))


def _relative_mismatch(blocks, dense):
    return float(np.max(np.abs(blocks.dense() - dense))
                 / np.max(np.abs(dense)))


class TestFftAssembly:
    @pytest.mark.parametrize("n", sorted(ORACLE_GRIDS))
    @pytest.mark.parametrize("name", ["fkdv-p2", "fkdv-p5", "fbbm-sym",
                                      "schrodinger", "sandwich-eps=0",
                                      "sandwich-eps=0.01"])
    def test_blocks_match_the_basis_matrix(self, name, n):
        blocks, dense = _oracle_case(name, ORACLE_GRIDS[n])
        assert [b.shape[0] for b in blocks_of(blocks)] == \
            [n // 2 + 1, n // 2 - 1]
        # the dense cross block, dropped by the blocks, is round-off too
        assert _relative_mismatch(blocks, dense) <= 1e-13

    @pytest.mark.parametrize("n", sorted(ORACLE_GRIDS))
    def test_coordinates_match_the_basis_matrix(self, n):
        grid = ORACLE_GRIDS[n]
        phi = real_fourier_basis(grid)
        rng = np.random.default_rng(n)
        values, coords = rng.standard_normal(n), rng.standard_normal(n)
        expected = grid.spacing * (phi.T @ values)
        assert np.max(np.abs(interleave(op.to_coords(grid, values))
                             - expected)) <= 1e-12 * np.max(np.abs(expected))
        even, odd = op.parity_index(n)
        parts = coords[even], coords[odd]
        expected = phi @ coords
        assert np.max(np.abs(from_coords(grid, parts) - expected)) \
            <= 1e-12 * np.max(np.abs(expected))
        back = op.to_coords(grid, from_coords(grid, parts))
        assert np.max(np.abs(interleave(back) - coords)) \
            <= 1e-12 * np.max(np.abs(coords))

    def test_guard_raises_on_an_odd_perturbation(self, monkeypatch):
        # an odd perturbation: the cross block formed from S_q is the
        # dense matrix's, the bound covers it, also after a congruence, and
        # the guard refuses it at the default SYMMETRY_TOL
        grid = ORACLE_GRIDS[256]
        x = grid.nodes
        V = 2.0 / np.cosh(x) ** 2 + 1e-3 * x * np.exp(-x ** 2)
        L = op.schrodinger_operator(grid, V, 0.5)
        quarter = sp.quarter_root_symbol(grid, 0.0)
        dense = dense_matrix(L)
        sandwiched = dense_congruence(dense, grid, quarter)
        even, odd = op.parity_index(grid.n)
        with pytest.raises(ValueError, match="couples the even and odd modes"):
            assemble(L)
        monkeypatch.setattr(op, "SYMMETRY_TOL", 1.0)
        A = assemble(L)
        S = op.sandwich(A, 0.0)
        monkeypatch.undo()
        for blocks, ref, symbols in ((A, dense, ()),
                                     (S, sandwiched, (quarter,))):
            cross = ref[np.ix_(even, odd)]
            assert np.max(np.abs(cross_block(L, *symbols) - cross)) \
                <= 1e-13 * np.max(np.abs(ref))
            assert blocks.coupling >= np.max(np.abs(cross))
            # a congruence checks the bound again
            with pytest.raises(ValueError, match="relative cross block up to"):
                op.congruence(blocks, np.ones(grid.n), "unit")

    @pytest.mark.parametrize("n, l", BITWISE_GRIDS)
    def test_congruence_is_the_outer_product_scaling(self, n, l):
        # each entry is a_ij (r_i r_j), bit for bit, for the BBM weight and
        # the eps = 0 sandwich
        grid = sp.make_grid(n, l)
        A = assemble(op.schrodinger_operator(
            grid, 2.0 / np.cosh(grid.nodes) ** 2, 0.5))
        for S, symbol in ((symmetrize(A, 1.5),
                           op.symmetrizing_weight(grid, 1.5)),
                          (op.sandwich(A, 0.0),
                           sp.quarter_root_symbol(grid, 0.0))):
            for block, got, r in zip(blocks_of(A), blocks_of(S),
                                     (symbol[:n // 2 + 1], symbol[1:n // 2])):
                assert np.array_equal(got, block * np.outer(r, r))

    @pytest.mark.parametrize("n, l", BITWISE_GRIDS + [
        (n, grid.half_length) for n, grid in sorted(ORACLE_GRIDS.items())])
    def test_coupling_bound_covers_the_whole_cross_block(self, n, l,
                                                         monkeypatch):
        # the bound is at least max|cross| and within COUPLING_SLACK of it,
        # on the round-off of an even potential and on an odd perturbation
        # past the guard, for A, its eps = 0 sandwich, the BBM S = W A W
        # and the sandwich of S
        grid = sp.make_grid(n, l)
        x = grid.nodes
        weight = op.symmetrizing_weight(grid, 1.5)
        quarter = sp.quarter_root_symbol(grid, 0.0)
        monkeypatch.setattr(op, "SYMMETRY_TOL", 1.0)
        for V in (2.0 / np.cosh(x) ** 2,
                  2.0 / np.cosh(x) ** 2 + 1e-3 * x * np.exp(-x ** 2)):
            L = op.schrodinger_operator(grid, V, 0.5)
            A = assemble(L)
            S = op.congruence(A, weight, "bbm-sym")
            for name, P, symbols in (
                    ("A", A, ()), ("sandwich", op.sandwich(A, 0.0), (quarter,)),
                    ("bbm", S, (weight,)),
                    ("bbm-sandwich", op.sandwich(S, 0.0), (weight, quarter))):
                exact = float(np.max(np.abs(cross_block(L, *symbols))))
                assert exact <= P.coupling <= COUPLING_SLACK[name] * exact, name

    def test_assembly_keeps_no_state_per_grid(self):
        def run(n, l):
            grid = sp.make_grid(n, l)
            V = 2.0 / np.cosh(grid.nodes) ** 2
            A = assemble(op.schrodinger_operator(grid, V, 0.5))
            op.to_coords(grid, V)
            return A.order

        run(64, 10.0)  # first calls may import and cache module state
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            orders = [run(n, l) for n, l in ((256, 20.0), (512, 30.0),
                                              (1024, 40.0))]
            gc.collect()
            left = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert orders == [256, 512, 1024]
        # a cached n x n basis would keep 8 n^2 bytes per grid (8 MB at 1024)
        assert left <= 64 * 1024


@st.composite
def perturbed_wells(draw):
    """(L, symbols): -d^2 + 1/2 - V on n <= 256 points, V an even sech^2
    well plus an odd perturbation of amplitude 0 to 1e-3, and one or two
    symbols of congruences, each the BBM weight or the quarter root."""
    grid = sp.make_grid(draw(st.sampled_from([64, 128, 256])),
                        draw(st.floats(10.0, 30.0)))
    x = grid.nodes
    V = draw(st.floats(0.5, 4.0)) / np.cosh(x / draw(st.floats(0.5, 2.0))) ** 2
    V += draw(st.floats(0.0, 1e-3)) * x * np.exp(-x ** 2)
    kinds = draw(st.lists(st.booleans(), min_size=1, max_size=2))
    symbols = [op.symmetrizing_weight(grid, draw(st.floats(0.5, 2.0)))
               if weight else sp.quarter_root_symbol(grid, draw(
                   st.floats(0.0, 0.1))) for weight in kinds]
    with quiet():
        return op.schrodinger_operator(grid, V, 0.5), symbols


@given(perturbed_wells())
def test_coupling_bound_is_at_least_the_cross_block(case):
    # the guard may only be stricter than the exact maximum: after
    # assemble and after each congruence
    L, symbols = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(op, "SYMMETRY_TOL", 1.0)
        P = assemble(L)
        for k in range(len(symbols) + 1):
            assert P.coupling >= np.max(np.abs(cross_block(L, *symbols[:k])))
            if k < len(symbols):
                P = op.congruence(P, symbols[k], "drawn")
