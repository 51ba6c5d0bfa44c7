"""Exception types shared across the package."""


class InvalidArgument(ValueError):
    """An argument violates a documented precondition."""


class InfeasibleSchedule(ValueError):
    """The requested accuracy cannot satisfy all schedule constraints."""


class NonConvergent(RuntimeError):
    """The schedule fixed-point iteration failed to converge."""


class NonSymmetric(ValueError):
    """A matrix expected to be symmetric is not."""


class NonFinite(FloatingPointError):
    """An iterate became NaN or infinite (diverged or misconfigured)."""


class DimensionTooLarge(ValueError):
    """A dense O(d^2)/O(d^3) routine was asked for too large a dimension."""


class MissingIterates(ValueError):
    """A trace-level diagnostic needs stored iterates the run did not keep."""


class PreconditionViolated(ValueError):
    """A curvature or geometry precondition of an experiment fails."""


class ConfigError(ValueError):
    """An experiment configuration is invalid.

    ``field`` names the offending key with dotted paths for nested keys.
    """

    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")
        self.field = field

