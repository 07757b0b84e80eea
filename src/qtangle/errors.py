"""Exception types shared across the package."""


class ValidationError(ValueError):
    """An input violates a structural precondition (norm, hermiticity, unitarity...)."""


class UnsupportedMethodError(ValueError):
    """The requested differentiation method is not available for this curve."""


class ParameterRangeError(ValueError):
    """A curve parameter lies outside the domain the curve is defined on."""


class DegenerateInputError(ValueError):
    """The operation is undefined for this input (e.g. a zero vector)."""


class ConfigError(ValueError):
    """A run configuration is malformed; the message carries the field path."""


class ToleranceBreachError(RuntimeError):
    """A numerical check rejected a grid point of a scenario run: raised by
    ``cli.run`` alone, naming the point, from the check's rejection."""
