"""Exception types shared across the package, and its one argument rule:
`_check_range` checks each scalar argument of a public call and
`_check_choice` each named choice.  A public call returns finite values
or raises DomainError; the unit conversions in `constants` are exempt."""

import math

# the most samples a grid, a depth axis or an angle range may hold, and
# the most cells a field map may hold
_MAX_POINTS = 10**6


class VibropolError(Exception):
    """Base class for package errors."""


class ConfigError(VibropolError):
    """Malformed or inconsistent configuration input."""


class DomainError(VibropolError, ValueError):
    """Physically out-of-range argument (negative wavenumber, grazing
    angle, non-passive medium and the like)."""


class UltrastrongError(DomainError):
    """Coupling too large for the oscillator model: the lower root of the
    full coupled-mode equation would be imaginary."""


class PeakCountError(VibropolError):
    """A splitting was requested but the peak finder did not return
    exactly two peaks.  Carries the peaks that were found."""

    def __init__(self, message, peaks):
        super().__init__(message)
        self.peaks = peaks


class FitError(VibropolError):
    """Band fit failed to converge.  Carries the best parameters seen."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


def _check_range(value, name, *, gt=None, ge=None, lt=None, le=None, integer=False, unit=""):
    """Raise DomainError unless the real number `value` is finite, an integer
    if `integer` is set, and > gt, >= ge, < lt and <= le for each bound given."""
    try:
        # __index__: an int or a numpy integer, not a float that holds one
        ok = math.isfinite(value) and (not integer or hasattr(value, "__index__"))
    except (OverflowError, TypeError):  # an int beyond the float range, or no number
        ok = False
    if ok and (gt is None or value > gt) and (ge is None or value >= ge) \
            and (lt is None or value < lt) and (le is None or value <= le):
        return
    bounds = [f"{op} {b:g}" for op, b in ((">", gt), (">=", ge), ("<", lt), ("<=", le))
              if b is not None]
    rule = f"between {ge:g} and {le:g}" if ge is not None and le is not None else \
        " and ".join(["an integer" if integer else "finite", *bounds])
    raise DomainError(f"{name} must be {rule}{' ' + unit if unit else ''}, got {value}")


def _check_choice(value, name, choices):
    """Raise DomainError unless `value` is one of `choices`."""
    if value not in choices:
        raise DomainError(f"{name} must be one of {choices}, got {value!r}")
