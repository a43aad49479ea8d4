"""Exception hierarchy.  Each class carries the exit code that ``semicp``
returns for it: 1 for an error of no narrower class, 2 for a configuration
error and 3 for a data error; subclasses inherit their parent's."""


class SemicpError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 1


class ConfigurationError(SemicpError):
    """Invalid configuration or incompatible option combination."""

    exit_code = 2


class DataError(SemicpError):
    """Invalid or unusable data."""

    exit_code = 3


class InputError(DataError):
    """A value violates an operation's preconditions."""


class CalibrationError(DataError):
    """A threshold could not be computed (e.g. empty score pool)."""


class EstimationError(DataError):
    """Unlabeled score estimation failed (e.g. empty labeled set)."""


class ConvergenceError(ConfigurationError):
    """An iterative procedure failed to converge within its budget, as when
    a target accuracy is out of reach of the configured source; ``best`` is
    the closest result found."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best
