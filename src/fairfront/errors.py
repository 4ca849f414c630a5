"""Exception hierarchy shared across the package, and the one check of a config field and of an input file.

A config class declares what each of its int and float fields accepts
in the field's metadata (rule, at_least, POSITIVE, FRACTION, DROPOUT), and
check_fields, run as the class's __post_init__, enforces it.
"""
import math
from dataclasses import fields

import numpy as np


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


# The values a field of each kind takes (a bool is none of them), and how an error names them.
_KINDS = {
    int: ((int, np.integer), "an integer"),
    float: ((int, float, np.integer, np.floating), "a finite number"),
}


def check_value(name: str, value, kind, test=None, wants: str = ""):
    """value as kind, if it is one and passes test; else ConfigError naming it and saying what it wants."""
    types, described = _KINDS[kind]
    try:
        ok = isinstance(value, types) and not isinstance(value, bool) and (kind is not float or math.isfinite(value))
    except OverflowError:  # an integer past the float range
        ok = False
    if not (ok and (test is None or test(kind(value)))):
        raise ConfigError(f"{name} must be {described}{' ' + wants if wants else ''}, got {value!r}")
    return kind(value)


def rule(kind, test=None, wants: str = "") -> dict:
    """Field metadata for check_fields: the field holds a kind that passes test, as wants says."""
    return {"kind": kind, "test": test, "wants": wants}


def at_least(n: int) -> dict:
    return rule(int, lambda v: v >= n, f">= {n}")


POSITIVE = rule(float, lambda v: v > 0.0, "> 0")
FRACTION = rule(float, lambda v: 0.0 < v < 1.0, "in (0, 1)")
DROPOUT = rule(float, lambda v: 0.0 <= v < 1.0, "in [0, 1)")
SEED = at_least(0)  # what numpy seeds from; every entry point checks its seeds by this rule


def check_fields(config) -> None:
    """Check each field of a dataclass that declares a rule, and store it as its kind."""
    for f in fields(config):
        if "kind" in f.metadata:
            setattr(config, f.name, check_value(f.name, getattr(config, f.name), **f.metadata))


def open_input(path, what: str, error: type[FairfrontError], **kwargs):
    """open(path, "r", **kwargs); if it fails, error saying that ``what`` at path is not found or cannot be read."""
    try:
        return open(path, "r", **kwargs)
    except FileNotFoundError:
        raise error(f"{what} not found: {path}") from None
    except OSError as exc:
        raise error(f"{what} {path} cannot be read: {exc.strerror}") from None
