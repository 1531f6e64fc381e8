"""Brute-force oracles that the tests check the library's fast paths
against: fiber optima by basic feasible solutions, cell maps by one solve
per affine basis, semigroup membership by an exact knapsack and the
Euclidean closure of a lex-matrix cone.  No command or script uses them."""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Optional, Sequence

from lexfan.cones import MuCone, PolyCone
from lexfan.config import MarkedSubdivision, PointConfig
from lexfan.errors import InvariantError
from lexfan.exactlex import LexVec, WeightMatrix, mat_vec, zero_vec
from lexfan.linalg import dot, rank, solve
from lexfan.quasival import GradedPoint


def combination_basis(cfg: PointConfig, indices) -> Optional[tuple]:
    """The first affinely independent (dim+1)-subset in lex order."""
    for combo in itertools.combinations(sorted(indices), cfg.n):
        if rank([cfg.homogenized(i) for i in combo]) == cfg.n:
            return combo
    return None


def cell_maps_by_solve(
    cfg: PointConfig, s: MarkedSubdivision, psi: WeightMatrix
) -> tuple:
    """The cell maps of ``gkzfan.linear_extension``: per cell, one solve per
    row of Psi on the lex-first affine basis of the marking, then a check
    that the map takes the height at every marked point."""
    maps = []
    for cell in s.cells:
        basis = combination_basis(cfg, cell.marking)
        if basis is None:
            raise InvariantError(f"cell {cell.vertices}: marking contains no affine basis")
        mat = [cfg.homogenized(i) for i in basis]
        rows = tuple(
            tuple(solve(mat, [psi.rows[k][i] for i in basis])) for k in range(psi.n_rows)
        )
        for i in cell.marking:
            if LexVec(dot(row, cfg.homogenized(i)) for row in rows) != psi.column(i):
                raise ValueError(f"heights not affine on cell {cell.vertices} (point {i})")
        maps.append(rows)
    return tuple(maps)


def fiber_value(cfg: PointConfig, psi: WeightMatrix, w: Sequence) -> Optional[LexVec]:
    """Lex-max of Psi.lambda over the fiber polytope
    {lambda >= 0 : sum lambda_j (1, chi_j) = w}, by enumerating its vertices
    as basic feasible solutions.  None if the fiber is empty."""
    if all(x == 0 for x in w):
        return zero_vec(psi.n_rows)
    cols = [cfg.homogenized(j) for j in range(cfg.r)]
    n = cfg.n
    best = None
    for support in itertools.combinations(range(cfg.r), n):
        mat = [[cols[j][k] for j in support] for k in range(n)]
        if rank(mat) != n:
            continue
        coeff = solve(mat, w)
        if coeff is None or any(c < 0 for c in coeff):
            continue
        lam = [Fraction(0)] * cfg.r
        for j, c in zip(support, coeff):
            lam[j] += c
        val = mat_vec(psi, lam)
        if best is None or val > best:
            best = val
    return best


def bounded_combination(
    cfg: PointConfig, u: GradedPoint, indices: Sequence[int]
) -> Optional[tuple]:
    """A nonnegative-integer combination of the homogenized points at the
    given indices equal to u, if one exists (exact degree knapsack): the
    membership oracle for ``quasival.Submonoid``."""
    pts = [cfg.points[i] for i in indices]

    def walk(j: int, remaining: int, eta: tuple):
        if j == len(pts):
            return () if remaining == 0 and all(c == 0 for c in eta) else None
        for take in range(remaining, -1, -1):
            rest = walk(j + 1, remaining - take, tuple(e - take * c for e, c in zip(eta, pts[j])))
            if rest is not None:
                return (take,) + rest
        return None

    return walk(0, u.d, u.eta)


def euclidean_closure(mu: MuCone) -> PolyCone:
    """The topological closure of the mu-cone as an ordinary polyhedral cone
    in Q^(N*r): rows constrained to the span of the co-polar's normals, the
    most-significant row obeying the co-polar's inequalities.  Its dimension
    independently recomputes mu_dim."""
    c = mu.copolar_cone
    n, r = mu.n_rank, c.dim
    eqs = []
    for i in range(n):
        for b in c.lines:  # rows must be orthogonal to the lineality space
            v = [0] * (n * r)
            v[i * r : (i + 1) * r] = b
            eqs.append(tuple(v))
    ineqs = []
    for g in c.rays:  # top row pairs <= 0 against the pointed generators
        v = [0] * (n * r)
        v[0:r] = g
        ineqs.append(tuple(v))
    return PolyCone.from_normals(n * r, ineqs=ineqs, eqs=eqs)
