import warnings
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import settings

from hkindex import operators as op
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
