import numpy as np
import pytest

from hkindex import spectral as sp
from hkindex.errors import NonIntegrableInputError

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
        assert np.allclose(sp.fractional_symbol(grid_small, 0.0), 1.0)

    def test_sine_is_eigenfunction(self, grid_small):
        g = grid_small
        k0 = 5
        xi0 = k0 / (2 * g.half_length)
        f = np.sin(2 * np.pi * xi0 * g.nodes)
        out = sp.apply(sp.fractional_symbol(g, 2.0), f)
        assert np.allclose(out, (2 * np.pi * xi0) ** 2 * f,
                           rtol=0, atol=1e-12 * (2 * np.pi * xi0) ** 2)

    def test_semigroup_split_on_sech(self):
        g = sp.make_grid(512, 40.0)
        f = 1.0 / np.cosh(g.nodes)
        whole = sp.apply(sp.fractional_symbol(g, 1.0), f)
        half = sp.apply(sp.fractional_symbol(g, 0.5), f)
        lhs = sp.inner_product(g, whole, f)
        rhs = sp.inner_product(g, half, half)
        assert lhs > 0
        assert abs(lhs - rhs) <= 1e-10 * abs(lhs)

    def test_negative_order_rejected(self, grid_small):
        with pytest.raises(ValueError):
            sp.fractional_symbol(grid_small, -0.5)

    def test_composition_matches_sum_of_orders(self, grid_small):
        rng = np.random.default_rng(3)
        a, b = 0.7, 0.9
        ma = sp.fractional_symbol(grid_small, a)
        mb = sp.fractional_symbol(grid_small, b)
        mab = sp.fractional_symbol(grid_small, a + b)
        for _ in range(10):
            f = random_mean_zero(grid_small, rng)
            two = sp.apply(mb, sp.apply(ma, f))
            one = sp.apply(mab, f)
            scale = np.max(np.abs(one))
            assert np.max(np.abs(two - one)) <= 1e-10 * scale


class TestHilbert:
    def test_square_is_minus_identity_on_mean_zero(self, grid_small):
        rng = np.random.default_rng(11)
        J = sp.hilbert_symbol(grid_small)
        f = random_mean_zero(grid_small, rng)
        jj = sp.apply(J, sp.apply(J, f))
        assert np.max(np.abs(jj + f)) <= 1e-12 * np.max(np.abs(f))

    def test_cosine_maps_to_sine(self, grid_small):
        g = grid_small
        xi0 = 3 / (2 * g.half_length)
        out = sp.apply(sp.hilbert_symbol(g), np.cos(2 * np.pi * xi0 * g.nodes))
        assert np.allclose(out, np.sin(2 * np.pi * xi0 * g.nodes), atol=1e-12)

    def test_constant_maps_to_zero(self, grid_small):
        out = sp.apply(sp.hilbert_symbol(grid_small), np.ones(grid_small.n))
        assert np.max(np.abs(out)) <= 1e-14

    def test_skew_adjoint(self, grid_small):
        rng = np.random.default_rng(5)
        J = sp.hilbert_symbol(grid_small)
        f = random_mean_zero(grid_small, rng)
        g = random_mean_zero(grid_small, rng)
        lhs = sp.inner_product(grid_small, sp.apply(J, f), g)
        rhs = sp.inner_product(grid_small, f, sp.apply(J, g))
        assert abs(lhs + rhs) <= 1e-12 * max(abs(lhs), 1.0)


class TestAntiderivative:
    def test_inverse_pair_on_mean_zero(self, grid_small):
        rng = np.random.default_rng(1)
        D = sp.derivative_symbol(grid_small)
        f = random_mean_zero(grid_small, rng)
        back = sp.apply(D, sp.antiderivative(grid_small, f))
        assert np.max(np.abs(back - f)) <= 1e-12 * np.max(np.abs(f))

    def test_skew_symmetry_pairing_vanishes(self, grid_small):
        rng = np.random.default_rng(2)
        f = random_mean_zero(grid_small, rng)
        val = sp.inner_product(grid_small, sp.antiderivative(grid_small, f), f)
        assert abs(val) <= 1e-12 * sp.inner_product(grid_small, f, f)

    def test_constant_rejected(self, grid_small):
        with pytest.raises(NonIntegrableInputError):
            sp.antiderivative(grid_small, np.ones(grid_small.n))


class TestQuarterRoot:
    def test_eps_zero_matches_half_derivative(self, grid_small):
        assert np.allclose(sp.quarter_root_symbol(grid_small, 0.0),
                           sp.fractional_symbol(grid_small, 0.5))

    def test_zero_mode_at_eps_one(self, grid_small):
        assert sp.quarter_root_symbol(grid_small, 1.0)[0] == pytest.approx(1.0)

    def test_monotone_in_frequency(self, grid_small):
        for eps in (0.0, 0.3, 1.0):
            order = np.argsort(np.abs(grid_small.wavenumbers))
            vals = sp.quarter_root_symbol(grid_small, eps)[order]
            assert np.all(np.diff(vals) >= -1e-15)


SYMBOL_GRIDS = [(8, 4.0), (64, 10.0), (256, 30.0)]
EVEN_SYMBOLS = {
    "|d|^0": lambda g: sp.fractional_symbol(g, 0.0),
    "|d|^0.6": lambda g: sp.fractional_symbol(g, 0.6),
    "|d|^2": lambda g: sp.fractional_symbol(g, 2.0),
    "quarter-root-eps=0": lambda g: sp.quarter_root_symbol(g, 0.0),
    "quarter-root-eps=0.3": lambda g: sp.quarter_root_symbol(g, 0.3),
}
ODD_SYMBOLS = {"J": sp.hilbert_symbol, "d": sp.derivative_symbol,
               "d^-1": sp.antiderivative_symbol}


class TestSymbols:
    """Each symbol in fftfreq layout, where index k pairs with n - k:
    Hermitian, m(-xi) = conj m(xi), so apply() may keep the real part."""

    @staticmethod
    def reflected(sym):
        return sym[np.r_[0, len(sym) - 1:0:-1]]

    @pytest.mark.parametrize("n, l", SYMBOL_GRIDS)
    @pytest.mark.parametrize("name", sorted(EVEN_SYMBOLS))
    def test_real_and_even(self, name, n, l):
        sym = EVEN_SYMBOLS[name](sp.make_grid(n, l))
        assert sym.shape == (n,) and sym.dtype == float
        assert np.array_equal(self.reflected(sym), np.conj(sym))
        assert np.array_equal(self.reflected(sym), sym)

    @pytest.mark.parametrize("n, l", SYMBOL_GRIDS)
    @pytest.mark.parametrize("name", sorted(ODD_SYMBOLS))
    def test_imaginary_and_odd_without_zero_and_nyquist_modes(self, name, n, l):
        sym = ODD_SYMBOLS[name](sp.make_grid(n, l))
        assert sym.shape == (n,) and sym.dtype == complex
        assert np.array_equal(self.reflected(sym), np.conj(sym))
        assert np.all(sym.real == 0.0)
        assert np.array_equal(self.reflected(sym), -sym)
        assert sym[0] == 0.0 and sym[n // 2] == 0.0
        assert np.all(sym[np.r_[1:n // 2, n // 2 + 1:n]] != 0.0)


class TestInnerProduct:
    def test_definiteness(self, grid_small):
        rng = np.random.default_rng(9)
        f = rng.standard_normal(grid_small.n)
        assert sp.inner_product(grid_small, f, f) > 0
        zero = np.zeros(grid_small.n)
        assert sp.inner_product(grid_small, zero, zero) == 0.0

    def test_constant_measures_domain(self):
        g = sp.make_grid(64, 4.0)
        one = np.ones(64)
        assert sp.inner_product(g, one, one) == pytest.approx(8.0)

    def test_parseval(self, grid_small):
        rng = np.random.default_rng(4)
        f = random_mean_zero(grid_small, rng)
        g = random_mean_zero(grid_small, rng)
        lhs = sp.inner_product(grid_small, f, g)
        rhs = sp.fourier_pairing(grid_small, sp.transform(grid_small, f),
                                 sp.transform(grid_small, g))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


class TestTransformRoundTrip:
    def test_round_trip(self, grid_small):
        rng = np.random.default_rng(8)
        f = rng.standard_normal(grid_small.n)
        back = inverse_transform(grid_small, sp.transform(grid_small, f))
        assert np.max(np.abs(back - f)) <= 1e-12 * np.max(np.abs(f))

    def test_centered_even_profile_has_real_spectrum(self, grid_small):
        coeffs = sp.transform(grid_small, np.exp(-grid_small.nodes ** 2))
        assert np.max(np.abs(coeffs.imag)) <= 1e-12 * np.max(np.abs(coeffs.real))


class TestAdjointness:
    def test_real_multiplier_self_adjoint(self, grid_small):
        rng = np.random.default_rng(6)
        m = sp.fractional_symbol(grid_small, 1.3)
        f = random_mean_zero(grid_small, rng)
        g = random_mean_zero(grid_small, rng)
        lhs = sp.inner_product(grid_small, sp.apply(m, f), g)
        rhs = sp.inner_product(grid_small, f, sp.apply(m, g))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)

    def test_hilbert_factorization(self, grid_small):
        rng = np.random.default_rng(10)
        J = sp.hilbert_symbol(grid_small)
        D = sp.derivative_symbol(grid_small)
        absd = sp.fractional_symbol(grid_small, 1.0)
        f = random_mean_zero(grid_small, rng)
        lhs = sp.apply(D, f)
        rhs = sp.apply(J, sp.apply(absd, f))
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(lhs))
