"""Shared exception types and the one table from an input or limit error to
the CLI's exit code."""


class SchemaError(ValueError):
    """Malformed or ill-typed input data."""


class DimensionError(ValueError):
    """Mismatched ambient dimensions or vector lengths."""


class BudgetExceeded(RuntimeError):
    """An enumeration exceeded its configured search budget."""


class DegreeOverflow(RuntimeError):
    """A computation exceeded the configured degree bound."""


class InvariantError(RuntimeError):
    """An invariant of an exact computation failed: a bug, not bad input,
    so it has no exit code."""


# error class -> (exit code, the label that opens its one stderr line)
EXIT_CODES = {
    SchemaError: (2, "schema error"),
    DimensionError: (3, "dimension error"),
    BudgetExceeded: (4, "budget exceeded"),
    DegreeOverflow: (5, "degree bound overflow"),
}
