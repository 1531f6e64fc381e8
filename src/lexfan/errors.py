"""Shared exception types; the CLI maps each input or limit error to a fixed
exit code."""


class SchemaError(ValueError):
    """Malformed or ill-typed input data (exit code 2)."""


class DimensionError(ValueError):
    """Mismatched ambient dimensions or vector lengths (exit code 3)."""


class BudgetExceeded(RuntimeError):
    """An enumeration exceeded its configured search budget (exit code 4)."""


class DegreeOverflow(RuntimeError):
    """A computation exceeded the configured degree bound (exit code 5)."""


class InvariantError(RuntimeError):
    """An invariant of an exact computation failed: a bug, not bad input,
    so it has no exit code."""
