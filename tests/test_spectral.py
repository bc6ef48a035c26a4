import numpy as np
import pytest

from hkindex import spectral as sp
from hkindex.errors import GridMismatchError, NonIntegrableInputError

from conftest import random_mean_zero


def inverse_transform(grid, coeffs):
    """Samples whose continuum-scaled spectrum sp.transform is coeffs."""
    k = np.rint(grid.wavenumbers * 2.0 * grid.half_length).astype(int)
    phase = np.where(k % 2 == 0, 1.0, -1.0)
    return np.fft.ifft(coeffs * phase / grid.spacing).real


class TestMakeGrid:
    def test_example_8_points(self):
        g = sp.make_grid(8, 4.0)
        assert g.spacing == 1.0
        assert set(np.round(g.wavenumbers, 12)) == {
            0.0, 0.125, 0.25, 0.375, -0.5, -0.375, -0.25, -0.125}
        assert np.count_nonzero(g.wavenumbers == 0.0) == 1

    def test_example_1024_points(self):
        g = sp.make_grid(1024, 200.0)
        assert g.spacing == pytest.approx(0.390625)
        assert g.spacing * g.n == 2 * g.half_length

    def test_odd_n_rejected(self):
        with pytest.raises(ValueError):
            sp.make_grid(7, 4.0)

    def test_small_and_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            sp.make_grid(4, 4.0)
        with pytest.raises(ValueError):
            sp.make_grid(16, 0.0)

    def test_nodes_start_at_left_edge(self):
        g = sp.make_grid(16, 2.0)
        assert g.nodes[0] == -2.0
        assert g.nodes[8] == 0.0


class TestFractionalDerivative:
    def test_order_zero_is_identity(self, grid_small):
        m = sp.fractional_derivative_multiplier(grid_small, 0.0)
        assert np.allclose(m.symbol_values, 1.0)

    def test_sine_is_eigenfunction(self, grid_small):
        g = grid_small
        k0 = 5
        xi0 = k0 / (2 * g.half_length)
        f = sp.RealField(g, np.sin(2 * np.pi * xi0 * g.nodes))
        out = sp.apply_multiplier(sp.fractional_derivative_multiplier(g, 2.0), f)
        assert np.allclose(out.values, (2 * np.pi * xi0) ** 2 * f.values,
                           rtol=0, atol=1e-12 * (2 * np.pi * xi0) ** 2)

    def test_semigroup_split_on_sech(self):
        g = sp.make_grid(512, 40.0)
        f = sp.RealField(g, 1.0 / np.cosh(g.nodes))
        whole = sp.apply_multiplier(sp.fractional_derivative_multiplier(g, 1.0), f)
        half = sp.apply_multiplier(sp.fractional_derivative_multiplier(g, 0.5), f)
        lhs = sp.inner_product(whole, f)
        rhs = sp.inner_product(half, half)
        assert lhs > 0
        assert abs(lhs - rhs) <= 1e-10 * abs(lhs)

    def test_negative_order_rejected(self, grid_small):
        with pytest.raises(ValueError):
            sp.fractional_derivative_multiplier(grid_small, -0.5)

    def test_composition_matches_sum_of_orders(self, grid_small):
        rng = np.random.default_rng(3)
        a, b = 0.7, 0.9
        ma = sp.fractional_derivative_multiplier(grid_small, a)
        mb = sp.fractional_derivative_multiplier(grid_small, b)
        mab = sp.fractional_derivative_multiplier(grid_small, a + b)
        for _ in range(10):
            f = random_mean_zero(grid_small, rng)
            two = sp.apply_multiplier(mb, sp.apply_multiplier(ma, f))
            one = sp.apply_multiplier(mab, f)
            scale = np.max(np.abs(one.values))
            assert np.max(np.abs(two.values - one.values)) <= 1e-10 * scale


class TestHilbert:
    def test_square_is_minus_identity_on_mean_zero(self, grid_small):
        rng = np.random.default_rng(11)
        J = sp.hilbert_multiplier(grid_small)
        f = random_mean_zero(grid_small, rng)
        jj = sp.apply_multiplier(J, sp.apply_multiplier(J, f))
        assert np.max(np.abs(jj.values + f.values)) <= 1e-12 * np.max(np.abs(f.values))

    def test_cosine_maps_to_sine(self, grid_small):
        g = grid_small
        xi0 = 3 / (2 * g.half_length)
        f = sp.RealField(g, np.cos(2 * np.pi * xi0 * g.nodes))
        out = sp.apply_multiplier(sp.hilbert_multiplier(g), f)
        assert np.allclose(out.values, np.sin(2 * np.pi * xi0 * g.nodes),
                           atol=1e-12)

    def test_constant_maps_to_zero(self, grid_small):
        f = sp.RealField(grid_small, np.ones(grid_small.n))
        out = sp.apply_multiplier(sp.hilbert_multiplier(grid_small), f)
        assert np.max(np.abs(out.values)) <= 1e-14

    def test_skew_adjoint(self, grid_small):
        rng = np.random.default_rng(5)
        J = sp.hilbert_multiplier(grid_small)
        f = random_mean_zero(grid_small, rng)
        g = random_mean_zero(grid_small, rng)
        lhs = sp.inner_product(sp.apply_multiplier(J, f), g)
        rhs = sp.inner_product(f, sp.apply_multiplier(J, g))
        assert abs(lhs + rhs) <= 1e-12 * max(abs(lhs), 1.0)


class TestAntiderivative:
    def test_inverse_pair_on_mean_zero(self, grid_small):
        rng = np.random.default_rng(1)
        D = sp.derivative_multiplier(grid_small)
        Ai = sp.antiderivative_multiplier(grid_small)
        f = random_mean_zero(grid_small, rng)
        back = sp.apply_multiplier(D, sp.apply_multiplier(Ai, f))
        assert np.max(np.abs(back.values - f.values)) <= 1e-12 * np.max(np.abs(f.values))

    def test_skew_symmetry_pairing_vanishes(self, grid_small):
        rng = np.random.default_rng(2)
        Ai = sp.antiderivative_multiplier(grid_small)
        f = random_mean_zero(grid_small, rng)
        val = sp.inner_product(sp.apply_multiplier(Ai, f), f)
        assert abs(val) <= 1e-12 * sp.inner_product(f, f)

    def test_constant_rejected(self, grid_small):
        f = sp.RealField(grid_small, np.ones(grid_small.n))
        with pytest.raises(NonIntegrableInputError):
            sp.apply_multiplier(sp.antiderivative_multiplier(grid_small), f)


class TestQuarterRoot:
    def test_eps_zero_matches_half_derivative(self, grid_small):
        r0 = sp.regularized_quarter_root_multiplier(grid_small, 0.0)
        half = sp.fractional_derivative_multiplier(grid_small, 0.5)
        assert np.allclose(r0.symbol_values, half.symbol_values)

    def test_zero_mode_at_eps_one(self, grid_small):
        r = sp.regularized_quarter_root_multiplier(grid_small, 1.0)
        assert r.symbol_values[0] == pytest.approx(1.0)

    def test_monotone_in_frequency(self, grid_small):
        for eps in (0.0, 0.3, 1.0):
            r = sp.regularized_quarter_root_multiplier(grid_small, eps)
            order = np.argsort(np.abs(grid_small.wavenumbers))
            vals = r.symbol_values.real[order]
            assert np.all(np.diff(vals) >= -1e-15)


class TestInnerProduct:
    def test_definiteness(self, grid_small):
        rng = np.random.default_rng(9)
        f = sp.RealField(grid_small, rng.standard_normal(grid_small.n))
        assert sp.inner_product(f, f) > 0
        zero = sp.RealField(grid_small, np.zeros(grid_small.n))
        assert sp.inner_product(zero, zero) == 0.0

    def test_constant_measures_domain(self):
        g = sp.make_grid(64, 4.0)
        one = sp.RealField(g, np.ones(64))
        assert sp.inner_product(one, one) == pytest.approx(8.0)

    def test_parseval(self, grid_small):
        rng = np.random.default_rng(4)
        f = random_mean_zero(grid_small, rng)
        g = random_mean_zero(grid_small, rng)
        lhs = sp.inner_product(f, g)
        rhs = sp.fourier_pairing(grid_small, sp.transform(f), sp.transform(g))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)

    def test_grid_mismatch_rejected(self, grid_small, grid40):
        f = sp.RealField(grid_small, np.zeros(grid_small.n))
        g = sp.RealField(grid40, np.zeros(grid40.n))
        with pytest.raises(GridMismatchError):
            sp.inner_product(f, g)


class TestTransformRoundTrip:
    def test_round_trip(self, grid_small):
        rng = np.random.default_rng(8)
        f = sp.RealField(grid_small, rng.standard_normal(grid_small.n))
        back = inverse_transform(grid_small, sp.transform(f))
        assert np.max(np.abs(back - f.values)) <= 1e-12 * np.max(np.abs(f.values))

    def test_centered_even_profile_has_real_spectrum(self, grid_small):
        f = sp.RealField(grid_small, np.exp(-grid_small.nodes ** 2))
        coeffs = sp.transform(f)
        assert np.max(np.abs(coeffs.imag)) <= 1e-12 * np.max(np.abs(coeffs.real))


class TestAdjointness:
    def test_real_multiplier_self_adjoint(self, grid_small):
        rng = np.random.default_rng(6)
        m = sp.fractional_derivative_multiplier(grid_small, 1.3)
        f = random_mean_zero(grid_small, rng)
        g = random_mean_zero(grid_small, rng)
        lhs = sp.inner_product(sp.apply_multiplier(m, f), g)
        rhs = sp.inner_product(f, sp.apply_multiplier(m, g))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)

    def test_hilbert_factorization(self, grid_small):
        rng = np.random.default_rng(10)
        J = sp.hilbert_multiplier(grid_small)
        D = sp.derivative_multiplier(grid_small)
        absd = sp.fractional_derivative_multiplier(grid_small, 1.0)
        f = random_mean_zero(grid_small, rng)
        lhs = sp.apply_multiplier(D, f)
        rhs = sp.apply_multiplier(J, sp.apply_multiplier(absd, f))
        assert np.max(np.abs(lhs.values - rhs.values)) <= 1e-12 * np.max(np.abs(lhs.values))

    def test_skew_multiplier_validation(self, grid_small):
        with pytest.raises(ValueError):
            sp.Multiplier(grid_small, np.ones(grid_small.n), "bad",
                          adjointness="skew")
        with pytest.raises(ValueError):
            sp.Multiplier(grid_small, 1j * np.ones(grid_small.n), "bad",
                          adjointness="self")
