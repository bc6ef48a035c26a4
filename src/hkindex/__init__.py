"""Hamiltonian-Krein instability index toolkit for fractional KdV/BBM
solitary waves: spectral collocation, Petviashvili wave solves, linearized
operator assembly, Krein-signature spectra, and index-vs-spectrum verdicts."""

from .errors import (ConvergenceError, FredholmViolationError,
                     GridMismatchError, ModelMismatchError,
                     NonIntegrableInputError, TheoryConsistencyError)
from .spectral import (Multiplier, RealField, SpectralGrid,
                       antiderivative_multiplier, apply_multiplier,
                       derivative_multiplier, fourier_pairing,
                       fractional_derivative_multiplier, hilbert_multiplier,
                       inner_product, make_grid,
                       regularized_quarter_root_multiplier, transform)
from .waves import (FBBM, FKDV, NORMALIZED, SolverOptions, WaveProfile,
                    bbm_wave, bo_profile, kdv_wave, p_max,
                    save_profile, solve_ground_state, solve_traveling_wave,
                    squared_norm)
from .operators import (LinOperator, ParityBlocks, assemble,
                        bbm_linearization, bbm_symmetrize, kdv_linearization,
                        sandwich, save_matrix, schrodinger_operator)
from .spectra import (BbmSlope, HamiltonianEigensystem, KreinClassification,
                      SymmetricSpectrum, bbm_slope, classify_krein,
                      constrained_quantity, constrained_quantity_sandwiched,
                      generalized_kernel_dim, hamiltonian_eigensystem,
                      sandwich_hamiltonian_spectrum, slope_analytic,
                      symmetric_eigenvalues, symmetric_spectrum)
from .verdicts import (DEGENERATE, STABLE, UNSTABLE, CheckReport,
                       KreinIndexResult, NumericsConfig, SweepResult,
                       bbm_verdict, default_grid, kdv_verdict, self_check,
                       sweep)

__version__ = "0.1.0"
