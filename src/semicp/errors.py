"""Exception hierarchy and CLI exit codes."""

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3


class SemicpError(Exception):
    """Base class for all toolkit errors."""


class ConfigurationError(SemicpError):
    """Invalid configuration or incompatible option combination (exit code 2)."""


class DataError(SemicpError):
    """Invalid or unusable data (exit code 3)."""


class InputError(DataError):
    """A value violates an operation's preconditions."""


class CalibrationError(DataError):
    """A threshold could not be computed (e.g. empty score pool)."""


class EstimationError(DataError):
    """Unlabeled score estimation failed (e.g. empty labeled set)."""


class ConvergenceError(ConfigurationError):
    """An iterative procedure failed to converge within its budget, as when
    a target accuracy is out of reach of the configured source (exit code
    2); ``best`` is the closest result found."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


def exit_code_for(exc: BaseException) -> int:
    if isinstance(exc, ConfigurationError):
        return EXIT_CONFIG
    if isinstance(exc, DataError):
        return EXIT_DATA
    return 1
