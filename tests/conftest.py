import warnings
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import settings

from hkindex import operators as op
from hkindex import spectra as spc
from hkindex import spectral as sp
from hkindex import verdicts as vd
from hkindex import waves as wv

from dense_reference import split_parity


# property tests run the same bounded set of examples on every run, so
# there is no example database to keep
settings.register_profile("hkindex", derandomize=True, deadline=None,
                          max_examples=40, database=None)
settings.load_profile("hkindex")


def random_mean_zero(grid, rng):
    """Random real field with zero mean and no Nyquist content (the
    subspace on which the odd multipliers are defined)."""
    coeff = np.fft.fft(rng.standard_normal(grid.n))
    coeff[0] = 0.0
    coeff[grid.n // 2] = 0.0
    return sp.RealField(grid, np.fft.ifft(coeff).real)


def diagonal_on_grid(diag) -> op.ParityBlocks:
    """The parity blocks of diag(diag), in the interleaved basis order, on
    a grid of len(diag) points."""
    return split_parity(np.diag(diag), sp.make_grid(len(diag), 5.0))


def sech_profile(grid, p: float, c: float) -> wv.WaveProfile:
    """Classical gKdV (s = 2) soliton

        U_c(x) = c^(1/p) ((p+2)/2)^(1/p) sech^(2/p)(p sqrt(c) x / 2),

    which satisfies -U'' + cU - U^(p+1) = 0 exactly."""
    x = grid.nodes
    amp = (c * (p + 2.0) / 2.0) ** (1.0 / p)
    values = amp * (1.0 / np.cosh(0.5 * p * np.sqrt(c) * x)) ** (2.0 / p)
    residual = wv._residual(grid, values, 2.0, p, 1.0, c)
    return wv._finalize(grid, values, 2.0, p, c, wv.FKDV, residual, tol=1e-10)


def apply(L: op.LinOperator, f: sp.RealField) -> sp.RealField:
    """L f = m(|d|) f + V f, through the FFT."""
    out = np.fft.ifft(L.multiplier_symbol * np.fft.fft(f.values)).real
    return sp.RealField(f.grid, out + L.potential * f.values)


def kernel_dim(spectrum: spc.SymmetricSpectrum) -> int:
    """Eigenvalues of both blocks within the zero tolerance."""
    return sum(int(np.count_nonzero(np.abs(w) <= spectrum.zero_tol))
               for w in spectrum.values)


def eigensystem(A: op.ParityBlocks, zero_floor: float):
    """The Hamiltonian eigensystem of A, from A's symmetric spectrum."""
    return spc.hamiltonian_eigensystem(A, spc.symmetric_spectrum(A),
                                       zero_floor)


@contextmanager
def quiet():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        yield


@pytest.fixture(scope="session")
def grid40():
    return sp.make_grid(1024, 40.0)


@pytest.fixture(scope="session")
def grid_small():
    return sp.make_grid(256, 30.0)


@pytest.fixture(scope="session")
def grid_s1():
    return sp.make_grid(2048, 100.0)


@pytest.fixture(scope="session")
def q22(grid40):
    return wv.solve_ground_state(2.0, 2.0, grid40)


@pytest.fixture(scope="session")
def q25(grid40):
    return wv.solve_ground_state(2.0, 5.0, grid40)


@pytest.fixture(scope="session")
def pipeline22():
    with quiet():
        return vd.kdv_verdict(2.0, 2.0, 1.0, keep_pipeline=True)


@pytest.fixture(scope="session")
def pipeline25():
    with quiet():
        return vd.kdv_verdict(2.0, 5.0, 1.0, keep_pipeline=True)
