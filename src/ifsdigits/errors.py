"""Exception taxonomy shared by every module.

All library errors derive from :class:`IfsDigitsError` so callers can catch
one base class.  Validation-style failures double as ``ValueError`` and
resource/horizon failures as ``RuntimeError``.
"""

from __future__ import annotations

__all__ = [
    "IfsDigitsError",
    "DomainError",
    "DivergenceError",
    "NotInSupportError",
    "InfeasibleError",
    "NotAdmissibleError",
    "EnumerationSizeError",
    "PrecisionError",
    "DepthError",
    "HorizonExceededError",
    "TiltThresholdError",
]


class IfsDigitsError(Exception):
    """Base class for all library errors."""


class DomainError(IfsDigitsError, ValueError):
    """An argument lies outside the documented domain of an operation."""


class DivergenceError(DomainError):
    """A requested series diverges (for example a tilted sum with rho*s <= 1)."""


class NotInSupportError(DomainError):
    """A digit word is not admissible for the measure being evaluated."""


class InfeasibleError(DomainError):
    """No object with the requested combinatorial shape exists."""


class NotAdmissibleError(DomainError):
    """A growth profile violates an admissibility clause (named in the message)."""


class EnumerationSizeError(IfsDigitsError, RuntimeError):
    """An exhaustive enumeration would exceed the configured size guard."""


class PrecisionError(IfsDigitsError, RuntimeError):
    """A float computation cannot resolve the quantity asked for (underflow, a late weight peak)."""


class DepthError(IfsDigitsError, RuntimeError):
    """A schedule or recursion exceeds the representable depth."""


class HorizonExceededError(IfsDigitsError, RuntimeError):
    """A scan failed to certify its target within the configured horizon."""


class TiltThresholdError(IfsDigitsError, RuntimeError):
    """A threshold search hit its safety cap before reaching the target."""
