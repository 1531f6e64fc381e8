"""Exact rational linear programming: two-phase primal simplex with Bland's
rule.  No tolerances anywhere; every pivot is over Fraction.

solve_lp maximizes c.x subject to A_ub x <= b_ub and A_eq x = b_eq with x
free.  Free variables are split into positive and negative parts internally.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from lexfan.errors import InvariantError

OPTIMAL = "OPTIMAL"
INFEASIBLE = "INFEASIBLE"
UNBOUNDED = "UNBOUNDED"


class LpResult(NamedTuple):
    status: str
    x: Optional[tuple]
    value: Optional[Fraction]


def _pivot(tab, basis, row, col):
    piv = tab[row][col]
    top = tab[row] = [x / piv for x in tab[row]]
    nz = [j for j, y in enumerate(top) if y]  # x - f * 0 = x elsewhere
    for i, r in enumerate(tab):
        if i != row and r[col] != 0:
            f = r[col]
            for j in nz:
                r[j] -= f * top[j]
    basis[row] = col


def _simplex(tab, basis, nvars):
    """Run Bland-rule simplex on a tableau whose last row is the objective
    (maximization, reduced costs = -coeffs) and last column is the rhs."""
    while True:
        obj = tab[-1]
        col = next((j for j in range(nvars) if obj[j] < 0), None)
        if col is None:
            return OPTIMAL
        best_row, best_ratio = None, None
        for i in range(len(tab) - 1):
            if tab[i][col] > 0:
                ratio = tab[i][-1] / tab[i][col]
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[best_row])
                ):
                    best_row, best_ratio = i, ratio
        if best_row is None:
            return UNBOUNDED
        _pivot(tab, basis, best_row, col)


def solve_lp(
    c: Sequence,
    a_ub: Sequence[Sequence] = (),
    b_ub: Sequence = (),
    a_eq: Sequence[Sequence] = (),
    b_eq: Sequence = (),
) -> LpResult:
    """Maximize c.x over free x with A_ub x <= b_ub, A_eq x = b_eq."""
    c = [Fraction(x) for x in c]
    n = len(c)
    rows = []
    for a, b, eq in [(a_ub, b_ub, False), (a_eq, b_eq, True)]:
        for av, bv in zip(a, b):
            rows.append(([Fraction(x) for x in av], Fraction(bv), eq))

    # x_j = p_j - q_j with p, q >= 0; inequalities gain a slack variable.
    nslack = sum(1 for _, _, eq in rows if not eq)
    nvars = 2 * n + nslack
    tab = []
    slack_at = 0
    slack_cols = []
    for av, bv, eq in rows:
        row = [Fraction(0)] * (nvars + 1)
        for j in range(n):
            row[j] = av[j]
            row[n + j] = -av[j]
        if not eq:
            col = 2 * n + slack_at
            row[col] = Fraction(1)
            slack_cols.append(col)
            slack_at += 1
        else:
            slack_cols.append(None)
        row[-1] = bv
        if row[-1] < 0:
            row = [-x for x in row]
        tab.append(row)

    # Phase 1: artificial variables wherever a slack cannot serve as basis.
    basis = []
    art_cols = []
    for i, row in enumerate(tab):
        col = slack_cols[i]
        if col is not None and row[col] == 1:
            basis.append(col)
        else:
            acol = nvars + len(art_cols)
            art_cols.append(acol)
            basis.append(acol)
    total = nvars + len(art_cols)
    for i, row in enumerate(tab):
        ext = [Fraction(0)] * len(art_cols)
        if basis[i] >= nvars:
            ext[basis[i] - nvars] = Fraction(1)
        tab[i] = row[:-1] + ext + [row[-1]]

    if art_cols:
        obj = [Fraction(0)] * (total + 1)
        for a in art_cols:
            obj[a] = Fraction(1)
        tab.append(obj)
        for i in range(len(tab) - 1):
            if basis[i] in art_cols:
                tab[-1] = [x - y for x, y in zip(tab[-1], tab[i])]
        if _simplex(tab, basis, total) != OPTIMAL:
            raise InvariantError("phase 1 unbounded, though its objective is bounded below by 0")
        if tab[-1][-1] != 0:
            return LpResult(INFEASIBLE, None, None)
        # Drive any artificial variable still in the basis out of it.
        for i in range(len(tab) - 1):
            if basis[i] in art_cols:
                col = next((j for j in range(nvars) if tab[i][j] != 0), None)
                if col is not None:
                    _pivot(tab, basis, i, col)
        tab.pop()

    # Phase 2 on the original columns only.
    keep = nvars
    tab = [row[:keep] + [row[-1]] for row in tab]
    obj = [Fraction(0)] * (keep + 1)
    for j in range(n):
        obj[j] = -c[j]
        obj[n + j] = c[j]
    tab.append(obj)
    for i in range(len(tab) - 1):
        if basis[i] < keep and tab[-1][basis[i]] != 0:
            f = tab[-1][basis[i]]
            tab[-1] = [x - f * y for x, y in zip(tab[-1], tab[i])]
    status = _simplex(tab, basis, keep)
    if status == UNBOUNDED:
        return LpResult(UNBOUNDED, None, None)
    xext = [Fraction(0)] * keep
    for i, b in enumerate(basis):
        if b < keep:
            xext[b] = tab[i][-1]
    x = tuple(xext[j] - xext[n + j] for j in range(n))
    value = sum((ci * xi for ci, xi in zip(c, x)), Fraction(0))
    return LpResult(OPTIMAL, x, value)
