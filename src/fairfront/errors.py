"""Exception hierarchy shared across the package."""


class FairfrontError(Exception):
    """Base class for all package-specific failures."""


class ConfigError(FairfrontError, ValueError):
    """A configuration value is missing, malformed, or out of range."""


class ShapeError(FairfrontError, ValueError):
    """Array arguments disagree on dimensions."""


class InputError(FairfrontError, ValueError):
    """An input array violates a value-level precondition (non-finite, empty, out of range)."""


class IngestionError(FairfrontError, ValueError):
    """A data file cannot be turned into a usable table."""


class DegenerateGroupError(FairfrontError, ValueError):
    """A group-wise computation received rows from fewer than two groups, or a group with vanishing weight."""


class NumericError(FairfrontError, ArithmeticError):
    """A numeric guard tripped: non-finite gradients, degenerate standardisation bounds, and the like."""


class TrainingError(FairfrontError, RuntimeError):
    """Training aborted; the message carries the diagnostic context."""
