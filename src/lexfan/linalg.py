"""Small exact linear algebra: rref, rank, solve, nullspace and det over
Fraction, primitive integer scaling, orthogonal projection.  Desk-scale
sizes only.

Cone and hull vectors are primitive ``int`` tuples (``primitive``); ``dot``
works on ints and Fractions alike, so they are never boxed.  Values that are
truly rational (weights, solutions, determinants) stay Fractions."""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Optional, Sequence

from lexfan.errors import InvariantError


def frac_vec(v: Sequence) -> tuple:
    return tuple(Fraction(x) for x in v)


def dot(a: Sequence, b: Sequence):
    """Sum of products: an int on int vectors, a Fraction if any entry is."""
    return sum(map(mul, a, b))


def rref(rows: Sequence[Sequence]) -> tuple[list[tuple], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    mat = [list(frac_vec(r)) for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots: list[int] = []
    row = 0
    for col in range(ncols):
        pivot = next((i for i in range(row, len(mat)) if mat[i][col] != 0), None)
        if pivot is None:
            continue
        mat[row], mat[pivot] = mat[pivot], mat[row]
        inv = Fraction(1) / mat[row][col]
        mat[row] = [x * inv for x in mat[row]]
        for i in range(len(mat)):
            if i != row and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[row])]
        pivots.append(col)
        row += 1
        if row == len(mat):
            break
    return [tuple(r) for r in mat[:row]], pivots


def rank(rows: Sequence[Sequence]) -> int:
    return len(rref(rows)[0])


def solve(a_rows: Sequence[Sequence], b: Sequence) -> Optional[tuple]:
    """One exact solution x of A x = b, or None if inconsistent.
    Free variables are set to zero."""
    a_rows = [frac_vec(r) for r in a_rows]
    b = frac_vec(b)
    if not a_rows:
        return None if any(b) else ()
    ncols = len(a_rows[0])
    aug = [row + (bb,) for row, bb in zip(a_rows, b)]
    red, pivots = rref(aug)
    x = [Fraction(0)] * ncols
    for row, p in zip(red, pivots):
        if p == ncols:  # 0 = 1 row
            return None
        x[p] = row[-1]
    # rows past the pivot list are zero by construction of rref
    return tuple(x)


def nullspace(rows: Sequence[Sequence], ncols: Optional[int] = None) -> list[tuple]:
    """Basis of {x : A x = 0}."""
    if not rows:
        if ncols is None:
            return []
        return [tuple(Fraction(int(i == j)) for j in range(ncols)) for i in range(ncols)]
    ncols = len(rows[0])
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for row, p in zip(red, pivots):
            v[p] = -row[f]
        basis.append(tuple(v))
    return basis


def primitive(v: Sequence) -> tuple:
    """Scale a nonzero vector of ints or Fractions by a positive rational to
    coprime ints (direction preserved); the zero vector stays zero."""
    den = lcm(*(x.denominator for x in v))
    ints = [x.numerator * (den // x.denominator) for x in v]
    g = gcd(*ints) or 1
    return tuple(i // g for i in ints)


def canonical_subspace_basis(rows: Sequence[Sequence]) -> tuple:
    """Canonical basis of the row span: rref rows, primitively scaled."""
    red, _ = rref(rows)
    return tuple(primitive(r) for r in red)


def project_off(v: Sequence, basis: Sequence[Sequence]) -> tuple:
    """Orthogonal projection of v onto the complement of span(basis)."""
    v = tuple(v)
    if not basis:
        return v
    gram = [[dot(a, b) for b in basis] for a in basis]
    rhs = [dot(a, v) for a in basis]
    coeffs = solve(gram, rhs)
    if coeffs is None:
        raise InvariantError("project_off: basis rows are linearly dependent")
    for c, b in zip(coeffs, basis):
        v = tuple(x - c * y for x, y in zip(v, b))
    return v


def det(rows: Sequence[Sequence]) -> Fraction:
    """Determinant by fraction-free-ish Gaussian elimination over Q."""
    mat = [list(frac_vec(r)) for r in rows]
    n = len(mat)
    result = Fraction(1)
    for col in range(n):
        pivot = next((i for i in range(col, n) if mat[i][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
            result = -result
        result *= mat[col][col]
        inv = Fraction(1) / mat[col][col]
        for i in range(col + 1, n):
            if mat[i][col] != 0:
                f = mat[i][col] * inv
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[col])]
    return result
