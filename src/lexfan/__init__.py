"""Exact-rational secondary fans of higher rank.

Polyhedral cones ordered lexicographically, regular marked subdivisions of
point configurations, the quasi-valuations they induce on the associated
semigroup algebra, and the resulting semi-toric degenerations.
"""

from lexfan.errors import (
    BudgetExceeded,
    DegreeOverflow,
    DimensionError,
    InvariantError,
    SchemaError,
)

__all__ = [
    "BudgetExceeded",
    "DegreeOverflow",
    "DimensionError",
    "InvariantError",
    "SchemaError",
]

__version__ = "0.1.0"
