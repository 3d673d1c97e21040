"""Exception hierarchy.

Two families map onto the CLI exit codes: ``ParameterError`` (exit 2) for
invalid inputs or parameter regimes where a requested quantity does not
exist, and ``NumericsError`` (exit 3) for failures of the numerics
themselves (non-convergence, singular systems, blow-up).
"""


class ParameterError(ValueError):
    """Invalid parameter, configuration, or out-of-regime request."""


class ConfigError(ParameterError):
    """Malformed run configuration; carries the offending line number and,
    where known, the path of the config file."""

    def __init__(self, message, line=None, path=None):
        self.line = line
        self.path = path
        if line is not None:
            message = f"line {line}: {message}"
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)


class NoPositiveEquilibriumError(ParameterError):
    """The positive equilibrium does not exist for these parameters."""


class DomainError(ParameterError):
    """Argument outside the mathematical domain of an operation."""


class BracketError(ParameterError):
    """Root bracket is degenerate or does not enclose a sign change."""


class NoImaginaryCrossingError(ParameterError):
    """No pure-imaginary characteristic root exists for these parameters."""


class NumericsError(RuntimeError):
    """A numerical procedure failed."""


class ConvergenceError(NumericsError):
    """Iteration did not converge; carries the last iterate."""

    def __init__(self, message, last_iterate=None):
        self.last_iterate = last_iterate
        super().__init__(message)


class ResonanceError(NumericsError):
    """Linear system for a center-manifold coefficient is singular."""


class DegenerateCrossingError(NumericsError):
    """Transversality system is singular; the root crossing is degenerate."""


class BlowUpError(NumericsError):
    """Simulation state became non-finite; carries the blow-up time."""

    def __init__(self, message, time=None):
        self.time = time
        super().__init__(message)


class InconclusiveError(NumericsError):
    """A diagnostic run did not produce the structure it needs to measure."""
