import numpy as np
import pytest

from hkindex import operators as op
from hkindex import spectra as spc
from hkindex import spectral as sp
from hkindex import waves as wv
from hkindex.errors import ModelMismatchError


def make_identity_operator(grid, kind="custom", s=None):
    return op.LinOperator(grid, np.ones(grid.n), np.zeros(grid.n),
                          label="identity", kind=kind, s=s)


class TestBasis:
    def test_orthonormal(self, grid_small):
        phi = op.real_fourier_basis(grid_small)
        gram = grid_small.spacing * phi.T @ phi
        assert np.max(np.abs(gram - np.eye(grid_small.n))) <= 1e-12

    def test_coords_round_trip(self, grid_small):
        rng = np.random.default_rng(0)
        v = rng.standard_normal(grid_small.n)
        back = op.from_coords(grid_small, op.to_coords(grid_small, v))
        assert np.max(np.abs(back - v)) <= 1e-12 * np.max(np.abs(v))

    def test_coordinate_dot_equals_l2_pairing(self, grid_small):
        rng = np.random.default_rng(1)
        f = rng.standard_normal(grid_small.n)
        g = rng.standard_normal(grid_small.n)
        lhs = float(np.dot(op.to_coords(grid_small, f), op.to_coords(grid_small, g)))
        rhs = grid_small.spacing * float(np.dot(f, g))
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestKdvLinearization:
    def test_translational_kernel(self, grid40, q22):
        u = wv.kdv_wave(q22, 1.0)
        L = op.kdv_linearization(u)
        dq = sp.apply_multiplier(sp.derivative_multiplier(grid40), u.as_field())
        assert np.max(np.abs(L.apply(dq).values)) <= 1e-7

    def test_action_on_wave_is_minus_p_power(self, grid40, q22):
        u = wv.kdv_wave(q22, 1.0)
        L = op.kdv_linearization(u)
        lhs = L.apply(u.as_field()).values
        rhs = -u.p * u.values ** (u.p + 1.0)
        assert np.max(np.abs(lhs - rhs)) <= 1e-7

    def test_far_field_potential_decays(self, grid40, q22):
        L = op.kdv_linearization(wv.kdv_wave(q22, 1.0))
        outer = np.abs(grid40.nodes) >= 0.95 * grid40.half_length
        assert np.max(np.abs(L.potential[outer])) <= 1e-6

    def test_model_mismatch_rejected(self, q22):
        bbm = wv.bbm_wave(q22, 2.0)
        with pytest.raises(ModelMismatchError):
            op.kdv_linearization(bbm)

    def test_assembled_matrix_is_symmetric(self, grid40, q22):
        A = op.assemble(op.kdv_linearization(wv.kdv_wave(q22, 1.0)))
        assert op.symmetry_defect(A.entries) <= 1e-10


class TestBbmLinearization:
    def test_translational_kernel(self, grid40, q22):
        u = wv.bbm_wave(q22, 2.0)
        L0 = op.bbm_linearization(u)
        du = sp.apply_multiplier(sp.derivative_multiplier(grid40), u.as_field())
        rel = np.max(np.abs(L0.apply(du).values)) / np.max(np.abs(du.values))
        assert rel <= 1e-6

    def test_multiplier_floor_is_c_minus_one(self, q22):
        u = wv.bbm_wave(q22, 2.0)
        L0 = op.bbm_linearization(u)
        assert np.min(L0.multiplier_symbol) == pytest.approx(1.0)

    def test_zero_mode_value_example(self, grid40):
        q = wv.solve_ground_state(2.0, 1.0, grid40)
        L0 = op.bbm_linearization(wv.bbm_wave(q, 2.0))
        assert L0.multiplier_symbol[0] == pytest.approx(1.0)

    def test_kdv_profile_rejected(self, q22):
        with pytest.raises(ModelMismatchError):
            op.bbm_linearization(wv.kdv_wave(q22, 1.0))


class TestSandwich:
    def test_identity_gives_abs_derivative(self, grid_small):
        S = op.sandwich(make_identity_operator(grid_small), 0.0)
        # basis column j carries |xi| = ((j + 1) // 2) / (2l)
        k = (np.arange(grid_small.n) + 1) // 2
        expected = 2.0 * np.pi * k / (2.0 * grid_small.half_length)
        assert np.max(np.abs(S.entries - np.diag(expected))) <= 1e-12

    def test_negative_count_preserved(self, grid40, q22):
        L = op.kdv_linearization(wv.kdv_wave(q22, 1.0))
        n_plain = spc.symmetric_spectrum(op.assemble(L)).negative_count
        n_sand = spc.symmetric_spectrum(op.sandwich(L, 0.0)).negative_count
        assert n_plain == n_sand == 1

    def test_kernel_vector_annihilated(self, grid40, q22):
        L = op.kdv_linearization(wv.kdv_wave(q22, 1.0))
        S = op.sandwich(L, 0.0)
        dq = sp.apply_multiplier(sp.derivative_multiplier(grid40), q22.as_field())
        xi = grid40.wavenumbers
        halfinv = np.zeros(grid40.n)
        nz = np.abs(xi) > 0
        halfinv[nz] = (2 * np.pi * np.abs(xi[nz])) ** -0.5
        kv = sp.apply_multiplier(
            sp.Multiplier(grid40, halfinv, "|d|^-1/2"), dq)
        coords = op.to_coords(grid40, kv.values)
        rel = np.linalg.norm(S.entries @ coords) / (
            np.linalg.norm(S.entries, 1) * np.linalg.norm(coords))
        assert rel <= 1e-6

    def test_spectral_floor_for_positive_eps(self, grid_small):
        # constant-coefficient part of the KdV linearization: q(xi) >= c
        c = 0.7
        sym = np.abs(2 * np.pi * grid_small.wavenumbers) ** 2 + c
        L0 = op.LinOperator(grid_small, sym, np.zeros(grid_small.n),
                            label="const-coeff", kind="custom")
        for eps in (1e-3, 1e-2, 1e-1):
            S = op.sandwich(L0, eps)
            smallest = spc.symmetric_spectrum(S).eigenvalues[0]
            assert smallest >= c * eps * (1.0 - 1e-6)


class TestBbmSymmetrize:
    def test_identity_plus_m_becomes_identity(self, grid_small):
        s = 1.5
        sym = 1.0 + np.abs(2 * np.pi * grid_small.wavenumbers) ** s
        L0 = op.LinOperator(grid_small, sym, np.zeros(grid_small.n),
                            label="I+M", kind="bbm", s=s, c=2.0)
        S = op.bbm_symmetrize(L0)
        assert np.max(np.abs(S.entries - np.eye(grid_small.n))) <= 1e-12

    def test_kernel_vector_annihilated(self, grid40, q22):
        u = wv.bbm_wave(q22, 2.0)
        L0 = op.bbm_linearization(u)
        S = op.bbm_symmetrize(L0)
        du = sp.apply_multiplier(sp.derivative_multiplier(grid40), u.as_field())
        sqrt_im = sp.Multiplier(
            grid40, (1.0 + np.abs(2 * np.pi * grid40.wavenumbers) ** u.s) ** 0.5,
            "sqrt(I+M)")
        kv = sp.apply_multiplier(sqrt_im, du)
        coords = op.to_coords(grid40, kv.values)
        rel = np.linalg.norm(S.entries @ coords) / (
            np.linalg.norm(S.entries, 1) * np.linalg.norm(coords))
        assert rel <= 1e-6

    def test_negative_count_preserved(self, grid40, q22):
        L0 = op.bbm_linearization(wv.bbm_wave(q22, 2.0))
        n0 = spc.symmetric_spectrum(op.assemble(L0)).negative_count
        ns = spc.symmetric_spectrum(op.bbm_symmetrize(L0)).negative_count
        assert n0 == ns == 1

    def test_kdv_operator_rejected(self, grid40, q22):
        L = op.kdv_linearization(wv.kdv_wave(q22, 1.0))
        with pytest.raises(ModelMismatchError):
            op.bbm_symmetrize(L)


class TestSchrodinger:
    def test_zero_potential_is_positive(self, grid_small):
        V = sp.RealField(grid_small, np.zeros(grid_small.n))
        rep = spc.symmetric_spectrum(op.assemble(op.schrodinger_operator(V, 0.5)))
        assert rep.negative_count == 0
        assert rep.eigenvalues[0] >= 0.5 - 1e-12

    def test_reflectionless_well_has_one_bound_state(self, grid40):
        V = sp.RealField(grid40, 2.0 / np.cosh(grid40.nodes) ** 2)
        L = op.schrodinger_operator(V, 0.5)
        rep = spc.symmetric_spectrum(op.assemble(L))
        assert rep.negative_count == 1
        assert rep.eigenvalues[0] == pytest.approx(-0.5, abs=1e-6)

    def test_sandwich_preserves_count(self, grid40):
        V = sp.RealField(grid40, 2.0 / np.cosh(grid40.nodes) ** 2)
        L = op.schrodinger_operator(V, 0.5)
        assert spc.symmetric_spectrum(op.sandwich(L, 0.0)).negative_count == 1

    def test_slow_decay_warns(self, grid_small):
        V = sp.RealField(grid_small, 1.0 / (1.0 + grid_small.nodes ** 2))
        with pytest.warns(UserWarning, match="decays slowly"):
            op.schrodinger_operator(V, 1.0)


class TestMatrixDump:
    def test_round_trip(self, tmp_path, grid_small):
        L = make_identity_operator(grid_small)
        dm = op.assemble(L)
        bin_path, json_path = op.save_matrix(dm, tmp_path / "operator.bin")
        import json
        header = json.load(open(json_path))
        assert header["order"] == grid_small.n
        data = np.fromfile(bin_path, dtype="<f8").reshape(header["order"], -1)
        assert np.array_equal(data, dm.entries)
