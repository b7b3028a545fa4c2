"""Shared exception types."""


class ToolkitError(Exception):
    """Base class for all errors raised by this package."""


class BudgetError(ToolkitError):
    """An enumeration or model exceeds the desk-scale size budget."""


class RankDeficientError(ToolkitError):
    """A matrix required to have full rank does not."""


class ProfileError(ToolkitError, ValueError):
    """A profile, a cost or a number string is malformed or lacks data."""


class SolveError(ToolkitError):
    """A linear program could not be solved as requested."""


class FamilyError(ToolkitError):
    """Unknown or inapplicable certificate family."""
