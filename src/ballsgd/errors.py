"""Exception types shared across the package.  Every rejected input is an
``InvalidArgument`` whose message names the broken rule; a ``ConfigError``
names a config field, and ``InfeasibleSchedule`` an underivable schedule."""


class InvalidArgument(ValueError):
    """An argument violates a documented precondition."""


class InfeasibleSchedule(ValueError):
    """The requested accuracy cannot satisfy all schedule constraints."""


class NonConvergent(RuntimeError):
    """The schedule fixed-point iteration failed to converge."""


class NonFinite(FloatingPointError):
    """An iterate became NaN or infinite (diverged or misconfigured)."""


class ConfigError(ValueError):
    """An experiment configuration is invalid.

    ``field`` names the offending key with dotted paths for nested keys.
    """

    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")
        self.field = field

