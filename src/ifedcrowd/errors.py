"""Exception types shared across the package."""


class IFedCrowdError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(IFedCrowdError, ValueError):
    """An argument violates a mathematical precondition (e.g. zero-age freshness)."""


class ConfigError(IFedCrowdError, ValueError):
    """A configuration value or file is invalid (unknown key, empty rate interval, ...)."""


class NumericError(IFedCrowdError, ArithmeticError):
    """A numeric routine produced a non-finite value; the offending input is reported."""

