"""Shared exception types."""

from __future__ import annotations


class SpeigenError(Exception):
    """Base class for all package errors."""


class InvalidParameters(SpeigenError):
    """Instance parameters violate one or more structural constraints.

    ``reasons`` is a list of ``(code, message)`` pairs, one per violated
    constraint, so callers can report every problem at once.
    """

    def __init__(self, reasons):
        self.reasons = list(reasons)
        super().__init__("; ".join(msg for _, msg in self.reasons))

    @property
    def codes(self):
        return [code for code, _ in self.reasons]


class ZeroScaling(SpeigenError):
    """A scaling factor of zero was supplied where a nonzero one is required."""


class BudgetExceeded(SpeigenError):
    """A search or enumeration would exceed its configured budget."""

    def __init__(self, what: str, needed, budget):
        self.what = what
        self.needed = needed
        self.budget = budget
        super().__init__(f"{what}: needs {needed}, budget is {budget}")
