"""Exception hierarchy shared across the package."""

from __future__ import annotations

from typing import Optional

__all__ = ["ActiveTestError", "DataError", "DegenerateUtilitiesError", "DomainError"]


class ActiveTestError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(ActiveTestError, ValueError):
    """A numeric argument lies outside its admissible domain.

    ``index``, when set, is the position of the first offending value,
    counted through the function's vector arguments in order.  The message
    then ends in "at index {index}", and ``rule`` holds the text before it,
    for a caller that names the value's place another way (an id, a line).
    """

    def __init__(self, message: str, index: Optional[int] = None):
        super().__init__(message if index is None else f"{message} at index {index}")
        self.rule = message
        self.index = index


class DegenerateUtilitiesError(DomainError):
    """All utilities are zero, so no budget allocation is possible."""


class DataError(ActiveTestError, ValueError):
    """An input table or file is malformed or inconsistent."""
