"""Exception types shared across the toolkit."""


class NonIntegrableInputError(ValueError):
    """The antiderivative was applied to a field with nonzero mean."""


class ConvergenceError(RuntimeError):
    """An iterative solver failed to reach its residual target."""

    def __init__(self, message, last_residual=None):
        super().__init__(message)
        self.last_residual = last_residual


class FredholmViolationError(ValueError):
    """The right-hand side of a constrained solve is not orthogonal to the kernel."""


class TheoryConsistencyError(RuntimeError):
    """The index formula and the directly computed spectrum disagree.

    This signals a numerics bug, not a property of the wave: the count
    identity holds whenever the pipeline is computing what it claims to.
    """


class UnresolvedEigenvalueError(ValueError):
    """A Hamiltonian eigenvalue lies too close to a classification threshold
    for the eigensolver's accuracy to decide its class."""
