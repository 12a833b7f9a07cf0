"""Exception types shared across the package."""


class SailxError(Exception):
    """Base class for all package errors."""


class InvalidInputError(SailxError, ValueError):
    """An argument violates a documented precondition."""


class ConfigurationError(SailxError, ValueError):
    """An invalid or inconsistent configuration value."""


class UndefinedMetricError(SailxError, ValueError):
    """A metric is undefined for the given input (e.g. empty sample)."""


class SimFault(SailxError, RuntimeError):
    """The plant received non-finite input; the rollout must abort.

    ``row`` is the faulted column of a lockstep run, None elsewhere.
    """

    row = None


class GenerationError(SailxError, RuntimeError):
    """A scripted demonstration could not be completed."""


class ParseError(SailxError, ValueError):
    """A persisted record could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class FormatError(SailxError, ValueError):
    """A file carries an unknown or mismatched format version."""

