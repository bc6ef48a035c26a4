"""Hamiltonian-Krein instability index toolkit for fractional KdV/BBM
solitary waves: spectral collocation, Petviashvili wave solves, linearized
operator assembly, Krein-signature spectra, and index-vs-spectrum verdicts."""

from .errors import (ConvergenceError, FredholmViolationError,
                     NonIntegrableInputError, TheoryConsistencyError,
                     UnresolvedEigenvalueError)
from .spectral import (SpectralGrid, antiderivative, antiderivative_symbol,
                       apply, derivative_symbol, fourier_pairing,
                       fractional_symbol, hilbert_symbol, inner_product,
                       make_grid, quarter_root_symbol, transform)
from .waves import (FBBM, FKDV, SolverOptions, WaveProfile, bo_profile,
                    p_max, save_profile, solve_ground_state,
                    solve_traveling_wave, squared_norm)
from .operators import (LinOperator, OperatorBlocks, linearization,
                        operator_blocks, sandwich, save_matrix,
                        schrodinger_operator)
from .spectra import (BbmSlope, HamiltonianEigensystem, KreinClassification,
                      SymmetricSpectrum, bbm_slope, classify_krein,
                      constrained_quantity, constrained_quantity_sandwiched,
                      generalized_kernel_dim, hamiltonian_eigensystem,
                      negative_count, slope_analytic, symmetric_spectrum)
from .verdicts import (DEGENERATE, STABLE, UNSTABLE, CheckReport,
                       KreinIndexResult, NumericsConfig, SweepResult,
                       default_grid, self_check, sweep, verdict)

__version__ = "0.1.0"
