"""Exception types raised across the package."""


class TiltmcError(Exception):
    """Base class for all package-specific errors."""


class InvalidCorrelation(TiltmcError, ValueError):
    """Equicorrelation parameter outside the positive-definite range."""


class InvalidGrid(TiltmcError, ValueError):
    """Time grid is not strictly increasing and positive."""


class SampleBudgetExceeded(TiltmcError, MemoryError):
    """Requested sample block is larger than the configured element budget."""


class DimensionMismatch(TiltmcError, ValueError):
    """Vector or matrix dimensions do not match the operator."""


class RankDeficientDriftMap(TiltmcError, ValueError):
    """Drift matrix does not have full column rank (A*A not positive definite)."""


class IncompatibleClaim(TiltmcError, ValueError):
    """Claim cannot be priced under the given market model."""


class NonFiniteInput(TiltmcError, ValueError):
    """Evaluation point or drift matrix contains NaN or infinity."""


class DegeneratePayoff(TiltmcError, ValueError):
    """Payoff vanished on every stored sample; the objective is undefined."""


class NonFiniteObjective(TiltmcError, FloatingPointError):
    """Objective, gradient or Hessian overflowed despite stabilization."""


class NonFiniteEstimate(TiltmcError, FloatingPointError):
    """A Monte Carlo summand evaluated to NaN or infinity."""


class ConvergenceFailure(TiltmcError, RuntimeError):
    """The quasi-Newton iteration did not reach the gradient tolerance."""


class ConfigError(TiltmcError, ValueError):
    """Configuration file could not be parsed or validated.

    Carries optional context: the offending line number and field name.
    """

    def __init__(self, message: str, *, line: int | None = None, field: str | None = None):
        parts = []
        if line is not None:
            parts.append(f"line {line}")
        if field is not None:
            parts.append(f"field '{field}'")
        prefix = f"[{', '.join(parts)}] " if parts else ""
        super().__init__(prefix + message)
        self.line = line
        self.field = field
