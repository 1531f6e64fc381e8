"""Exact rational scalars, lexicographically ordered vectors, weight matrices.

Everything downstream compares values in Q^N under the lexicographic order
(most-significant coordinate first) and never touches floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from lexfan.errors import DimensionError, SchemaError

# The spec's Rat type: arbitrary-precision rational kept in lowest terms with
# positive denominator.  Fraction already guarantees both invariants.
Rat = Fraction


def rat(x) -> Fraction:
    """Coerce ints, strings "p/q" or "p", and Fractions to an exact rational;
    booleans are rejected, though Python counts them as ints."""
    if isinstance(x, bool):
        raise SchemaError(f"not a rational: {x!r}")
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"not a rational: {x!r}") from exc
    if isinstance(x, float):
        raise SchemaError(f"floating point input rejected: {x!r}")
    raise SchemaError(f"not a rational: {x!r}")


def rat_str(x: Fraction) -> str:
    """Serialize a rational as "p/q" (or "p" when integral); exact round-trip."""
    return str(x)


class LexVec(tuple):
    """A point of Q^N, compared lexicographically most-significant first.

    tuple comparison over Fractions is exactly the lexicographic order, so
    ordering comes for free; arithmetic is redefined componentwise.
    """

    def __new__(cls, coords: Iterable) -> "LexVec":
        return super().__new__(cls, tuple(rat(c) for c in coords))

    def __add__(self, other):
        if isinstance(other, Infinity):
            return INFINITY
        self._check(other)
        return LexVec(a + b for a, b in zip(self, other))

    __radd__ = __add__

    def __sub__(self, other):
        self._check(other)
        return LexVec(a - b for a, b in zip(self, other))

    def __neg__(self):
        return LexVec(-a for a in self)

    def __mul__(self, scalar):
        return LexVec(a * rat(scalar) for a in self)

    __rmul__ = __mul__

    def _check(self, other):
        if not isinstance(other, tuple) or len(other) != len(self):
            raise DimensionError(
                f"length mismatch: {len(self)} vs {getattr(other, '__len__', lambda: '?')()}"
            )

    def __repr__(self):
        return "LexVec(" + ", ".join(str(c) for c in self) + ")"


def zero_vec(n: int) -> LexVec:
    return LexVec([0] * n)


class Infinity:
    """The distinguished top element: greater than every LexVec, absorbing
    under addition.  A tagged alternative, never a numeric sentinel."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("lexfan-infinity")

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __mul__(self, scalar):
        if rat(scalar) <= 0:
            raise ValueError("infinity may only be scaled by a positive rational")
        return self

    __rmul__ = __mul__

    def __repr__(self):
        return "INFINITY"


INFINITY = Infinity()


def lex_sign(a: Sequence[Fraction]) -> int:
    """Sign of a vector under the lexicographic order: -1, 0 or +1."""
    for x in a:
        if x < 0:
            return -1
        if x > 0:
            return 1
    return 0


@dataclass(frozen=True)
class WeightMatrix:
    """An N x r matrix over Q; column j is the height vector of the j-th
    configuration point.  Rows are ordered most-significant first."""

    rows: tuple

    def __post_init__(self):
        rows = tuple(tuple(rat(x) for x in row) for row in self.rows)
        if rows and any(len(row) != len(rows[0]) for row in rows):
            raise DimensionError("ragged weight matrix")
        object.__setattr__(self, "rows", rows)

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_cols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def column(self, j: int) -> LexVec:
        return LexVec(row[j] for row in self.rows)

    def __repr__(self):
        body = "; ".join("[" + ", ".join(str(x) for x in row) + "]" for row in self.rows)
        return f"WeightMatrix({body})"


def mat_vec(psi: WeightMatrix, u: Sequence) -> LexVec:
    """Psi . u as a LexVec (the bilinear pairing of matrix space with Q^r)."""
    if len(u) != psi.n_cols:
        raise DimensionError(f"matrix has {psi.n_cols} columns, vector length {len(u)}")
    uu = [rat(x) for x in u]
    return LexVec(sum(row[j] * uu[j] for j in range(len(uu))) for row in psi.rows)
