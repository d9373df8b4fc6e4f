"""Shared exception types and the argument checks that raise them."""

import math
import numbers


class VcgapError(Exception):
    """Base class for all package-specific errors."""


class ParseError(VcgapError, ValueError):
    """Malformed input text; message names the offending line."""


class ArgumentError(VcgapError, ValueError):
    """An operation was called with arguments violating its preconditions."""


class ContractViolation(VcgapError, RuntimeError):
    """A computed result failed its own postcondition check.

    Raised instead of silently returning bad data; the CLI maps this to
    exit code 2 because such a failure is a finding worth investigating.
    """


class SolverError(VcgapError, RuntimeError):
    """Numeric breakdown inside a solver; message carries iteration diagnostics."""


def is_int(value) -> bool:
    """An integer that is not a bool (JSON true/false must not pass as 1/0)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_real(name: str, value, low: float = -math.inf, high: float = math.inf) -> None:
    """Raise ArgumentError unless `value` is a finite non-bool number strictly
    inside (low, high)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ArgumentError(f"{name} must be a finite number, got {value!r}")
    if not low < value < high:
        raise ArgumentError(f"{name} must lie in ({low:g}, {high:g}), got {value!r}")


def check_int(name: str, value, low: int = 1) -> None:
    """Raise ArgumentError unless `value` is a non-bool integer >= low."""
    if not is_int(value) or value < low:
        raise ArgumentError(f"{name} must be an integer >= {low}, got {value!r}")


def check_keys(what: str, doc, required, optional=()) -> None:
    """Raise ArgumentError, naming the first offending key, unless `doc` is a
    JSON object with every key of `required` and none outside `required`
    and `optional`."""
    if not isinstance(doc, dict):
        raise ArgumentError(f"{what} must be a JSON object, got {doc!r}")
    allowed = set(required) | set(optional)
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ArgumentError(f"unknown {what} key {unknown[0]!r}; expected one of {sorted(allowed)}")
    missing = [key for key in required if key not in doc]
    if missing:
        raise ArgumentError(f"{what} lacks key {missing[0]!r}")
