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
