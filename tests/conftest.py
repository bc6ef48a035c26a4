import sys
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

from dense_reference import ParityBlocks, _residual, split_parity


# property tests run a bounded, derandomized set of examples, so there is
# no example database to keep.  The set is the same on every run only for
# one Hypothesis version (pinned in pyproject.toml) and unchanged numeric
# literals in src/ and tests/: Hypothesis draws some of its floats from
# the literals of local modules
settings.register_profile("hkindex", derandomize=True, deadline=None,
                          max_examples=40, database=None)
settings.load_profile("hkindex")


def random_mean_zero(grid, rng):
    """Random real field with zero mean and no Nyquist content (the
    subspace on which the odd multipliers are defined)."""
    coeff = np.fft.fft(rng.standard_normal(grid.n))
    coeff[0] = 0.0
    coeff[grid.n // 2] = 0.0
    return np.fft.ifft(coeff).real


def diagonal_on_grid(diag) -> ParityBlocks:
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
    residual = _residual(grid, values, 2.0, p, 1.0, c)
    return wv._finalize(grid, values, 2.0, p, c, wv.FKDV, residual, tol=1e-10)


def wave(model: str, Q: wv.WaveProfile, c: float) -> wv.WaveProfile:
    """The wave of speed c of the named model on the grid of the ground
    state Q, with Q's exponents and tolerance; Q itself for fKdV at c = 1."""
    if (model, c) == (Q.model, Q.c):
        return Q
    return wv.solve_traveling_wave(model, Q.s, Q.p, c, Q.grid,
                                   wv.SolverOptions(tol=Q.residual_tol))


def apply(L: op.LinOperator, f: np.ndarray) -> np.ndarray:
    """L f = m(|d|) f + V f, through the FFT."""
    return sp.apply(L.multiplier_symbol, f) + L.potential * f


def eigensystem(A: ParityBlocks, zero_floor: float, vectors: bool = True):
    """The Hamiltonian eigensystem of A, from A's symmetric spectrum."""
    return spc.hamiltonian_eigensystem(A, spc.symmetric_spectrum(A),
                                       zero_floor, vectors=vectors)


def count_calls(monkeypatch, fn, calls) -> None:
    """Count the calls of fn in calls[fn.__name__], under every name that
    binds it in a module of the package."""
    def counted(*args, **kw):
        calls[fn.__name__] += 1
        return fn(*args, **kw)
    for modname, module in list(sys.modules.items()):
        if modname == "hkindex" or modname.startswith("hkindex."):
            for name, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, name, counted)


@contextmanager
def sym_eig_calls():
    """The (order, vectors) of every spectra.sym_eig call in the block:
    the eigendecompositions of parity blocks."""
    calls = []
    sym_eig = spc.sym_eig
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spc, "sym_eig", lambda a, vectors: calls.append(
            (a.shape[0], vectors)) or sym_eig(a, vectors))
        yield calls


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
        return vd.verdict(wv.FKDV, 2.0, 2.0, 1.0, keep_pipeline=True)


@pytest.fixture(scope="session")
def pipeline25():
    with quiet():
        return vd.verdict(wv.FKDV, 2.0, 5.0, 1.0, keep_pipeline=True)
