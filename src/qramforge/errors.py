"""Exception hierarchy for qramforge.

Everything raised intentionally by this package derives from
:class:`QramForgeError`, so callers can catch one type at an API boundary
(the command-line driver does exactly that).
"""

from __future__ import annotations


class QramForgeError(Exception):
    """Base class for all errors raised by qramforge."""


class InvalidParameterError(QramForgeError):
    """A size, label, index, or option value is out of range or malformed."""


class ResourceLimitError(QramForgeError):
    """The requested layout or simulation would exceed its qubit or memory budget."""

    def __init__(self, message: str, *, requested: int | None = None, limit: int | None = None):
        super().__init__(message)
        self.requested = requested
        self.limit = limit


class StructuralError(QramForgeError):
    """A circuit-construction rule was violated (overlapping gates, mismatched layouts, ...)."""


class ShapeError(QramForgeError):
    """A unitary block has the wrong dimension for the register it acts on."""

    def __init__(self, message: str, *, leaf: str | None = None):
        super().__init__(message)
        self.leaf = leaf


class ConfigurationError(QramForgeError):
    """Required per-leaf data (a unitary, a table entry) is missing or inconsistent."""


class SchemaError(QramForgeError):
    """A serialized document does not conform to the expected format."""


class SimulationError(QramForgeError):
    """The simulator detected an internal inconsistency (e.g. norm drift)."""


def check_int(value, what: str, low: int | None = None, high: int | None = None) -> int:
    """``value`` if it is an ``int``, not a ``bool``, with ``low <= value <
    high``; a bound left None does not apply, and ``high`` needs ``low``.

    The one rule for every integer a caller gives the package (document
    input keeps its own path-qualified :class:`SchemaError` checks).  A
    refusal is an :class:`InvalidParameterError` that states the rule for
    ``what``, a plural noun, and shows the value."""
    if isinstance(value, int) and not isinstance(value, bool) and (low is None or low <= value) and (
        high is None or value < high
    ):
        return value
    if high is not None:
        rule = f"integers in [{low}, {_shown(high)})"
    elif low is None:
        rule = "integers"
    else:
        rule = {0: "non-negative integers", 1: "positive integers"}.get(low, f"integers >= {low}")
    raise InvalidParameterError(f"{what} are {rule}, got {_shown(value)}")


def _shown(value) -> str:
    """``repr(value)``, but an int too long for Python to print in decimal
    (it refuses a few thousand digits) by its size: ``2**e`` for a power of two."""
    if not isinstance(value, int) or value.bit_length() <= 2048:
        return repr(value)
    if value > 0 and not value & (value - 1):
        return f"2**{value.bit_length() - 1}"
    return f"an int of {value.bit_length()} bits"
