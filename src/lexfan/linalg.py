"""Small exact linear algebra on one fraction-free elimination: ``echelon``,
Bareiss's integer-preserving Gauss-Jordan pass ("Sylvester's identity and
multistep integer-preserving Gaussian elimination", 1968).  ``rank``,
``det``, ``canonical_subspace_basis`` and ``project_off`` run it on rows
scaled to primitive ints, and ``kernel_coordinates`` on an int matrix;
``rref``, ``solve`` and ``nullspace`` divide its result by the pivot once.
Desk-scale sizes only.

Cone and hull vectors are primitive ``int`` tuples (``primitive``, and the
directions ``project_off`` returns); ``dot``
works on ints and Fractions alike, so they are never boxed.  Values that are
truly rational stay Fractions: weights, ``LexVec`` values, determinants of
rational rows, and the solutions of ``solve`` and ``rref`` (the
interpolation of a rational ``Psi``)."""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Optional, Sequence

from lexfan.errors import InvariantError


def dot(a: Sequence, b: Sequence):
    """Sum of products: an int on int vectors, a Fraction if any entry is."""
    return sum(map(mul, a, b))


def echelon(mat: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free Gauss-Jordan elimination of an integer matrix (Bareiss).

    Returns ``(rows, pivots, d)``: ``rows`` are the nonzero rows of d times
    the reduced row echelon form, with ``d != 0`` on every pivot, and
    ``pivots`` their pivot columns, chosen greedily left to right.  Each step
    divides exactly by the previous pivot, so every entry stays an integer
    minor.  A row swap negates the row it moves down, which keeps the
    determinant, so ``d`` is the determinant of a nonsingular square matrix
    and of the pivot columns in general."""
    mat = [list(r) for r in mat]
    pivots: list[int] = []
    prev = 1
    row = 0
    for col in range(len(mat[0]) if mat else 0):
        p = next((i for i in range(row, len(mat)) if mat[i][col]), None)
        if p is None:
            continue
        if p != row:
            mat[row], mat[p] = mat[p], [-x for x in mat[row]]
        top = mat[row]
        piv = top[col]
        for i, r in enumerate(mat):
            if i != row:
                a = r[col]
                mat[i] = [(piv * x - a * y) // prev for x, y in zip(r, top)]
        prev = piv
        pivots.append(col)
        row += 1
        if row == len(mat):
            break
    return mat[:row], pivots, prev


def rref(rows: Sequence[Sequence]) -> tuple[list[tuple], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    red, pivots, d = echelon([primitive(r) for r in rows])
    return [tuple(Fraction(x, d) for x in r) for r in red], pivots


def rank(rows: Sequence[Sequence]) -> int:
    return len(echelon([primitive(r) for r in rows])[1])


def solve(a_rows: Sequence[Sequence], b: Sequence) -> Optional[tuple]:
    """One exact solution x of A x = b, or None if inconsistent.
    Free variables are set to zero."""
    if not a_rows:
        return None if any(b) else ()
    ncols = len(a_rows[0])
    red, pivots, d = echelon([primitive((*r, bb)) for r, bb in zip(a_rows, b)])
    if pivots and pivots[-1] == ncols:  # 0 = 1 row
        return None
    x = [Fraction(0)] * ncols
    for r, p in zip(red, pivots):
        x[p] = Fraction(r[-1], d)
    return tuple(x)


def nullspace(rows: Sequence[Sequence]) -> list[tuple]:
    """Basis of {x : A x = 0}; empty when there are no rows."""
    if not rows:
        return []
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
    coprime ints (direction preserved); the zero vector stays zero.  An all-int
    vector goes straight to the gcd: ``gcd`` refuses a Fraction, and only then
    are the denominators cleared."""
    try:
        g = gcd(*v)
    except TypeError:
        den = lcm(*[x.denominator for x in v])
        v = [x.numerator * (den // x.denominator) for x in v]
        g = gcd(*v)
    return tuple(v) if g < 2 else tuple([i // g for i in v])


def canonical_subspace_basis(rows: Sequence[Sequence]) -> tuple:
    """Canonical basis of the row span: rref rows, primitively scaled."""
    red, _, d = echelon([primitive(r) for r in rows])
    return tuple(primitive(r if d > 0 else [-x for x in r]) for r in red)


def kernel_coordinates(mat: Sequence[Sequence[int]]) -> tuple[tuple, tuple, tuple]:
    """Integer coordinates on the kernel D of an int matrix A with r columns,
    as ``(free, basis, lift)``, so that a cone inside D can be worked in
    dimension k = dim D.

    ``free`` are the k free columns of ``echelon(A)``.  The kernel basis K
    read off the echelon, column f being d e_f - sum_i rows[i][f] e_{p_i},
    is d I on them, so u -> u[free] maps D onto Q^k one to one.  ``basis``
    is ``canonical_subspace_basis(A)``, a basis of A's row space, which is
    D's orthogonal complement.  ``lift`` is the int r x k matrix
    L = sgn(d d') K (d' G^-1), G = K^T K and d' the echelon determinant of
    G.  For a functional h on Q^k, L h lies in D and is a positive multiple
    of d K G^-1 h, the vector of D whose dot product with every u in D is
    h . u[free]."""
    r = len(mat[0])
    red, pivots, d = echelon(mat)
    free = tuple(c for c in range(r) if c not in pivots)
    kern = []  # the columns of K
    for f in free:
        col = [0] * r
        col[f] = d
        for row, p in zip(red, pivots):
            col[p] = -row[f]
        kern.append(col)
    k = len(free)
    inv, _, dg = echelon(
        [[dot(a, b) for b in kern] + [int(i == j) for j in range(k)] for i, a in enumerate(kern)]
    )  # dg [I | G^-1]
    s = 1 if d * dg > 0 else -1
    lift = tuple(
        tuple(s * sum(col[i] * row[k + j] for col, row in zip(kern, inv)) for j in range(k))
        for i in range(r)
    )
    return free, canonical_subspace_basis(mat), lift


def project_off(vs: Sequence[Sequence], basis: Sequence[Sequence]) -> list[tuple]:
    """Directions of the orthogonal projections of the vectors vs onto the
    complement of span(basis), as primitive int tuples.

    One echelon pass over [G | B v_1 ... B v_k], G the Gram matrix and each
    v_j taken primitive, gives every d G^-1 B v_j; the integer vector
    d v_j - (d G^-1 B v_j) B is d times the projection, so its primitive form,
    negated if d < 0, is the direction."""
    vs = [primitive(v) for v in vs]
    if not basis:
        return vs
    n = len(basis)
    aug = [
        primitive([*(dot(a, b) for b in basis), *(dot(a, v) for v in vs)]) for a in basis
    ]
    red, pivots, d = echelon(aug)
    if pivots != list(range(n)):
        raise InvariantError("project_off: basis rows are linearly dependent")
    out = []
    for j, v in enumerate(vs, start=n):
        num = [d * x for x in v]
        for r, b in zip(red, basis):
            num = [x - r[j] * y for x, y in zip(num, b)]
        out.append(primitive(num if d > 0 else [-x for x in num]))
    return out


def det(rows: Sequence[Sequence]) -> Fraction:
    """Determinant: the last pivot of the echelon of the primitive rows,
    divided by the factor each row was scaled by."""
    ints = [primitive(r) for r in rows]
    _, pivots, d = echelon(ints)
    if len(pivots) < len(ints):
        return Fraction(0)
    result = Fraction(d)
    for r, p in zip(rows, ints):
        j = next(k for k, x in enumerate(p) if x)
        result = result * r[j] / p[j]
    return result
