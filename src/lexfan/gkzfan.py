"""Condition cones, closed/open cone membership, the subdivision induced by
a weight matrix, regularity, enumeration of regular subdivisions, and the
row moves that preserve open-cone membership.

The subdivision algorithm is iterated rank-1 refinement: the most-significant
row induces an upper-hull regular subdivision, each cell restricted to its
marked points is refined by the next row, and so on.  An independent fiber
oracle (lex-max over basic feasible solutions) certifies the construction in
the test suite.

Regularity is read off the condition cone (``ConditionCone.witness_height``);
no LP is solved.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from lexfan.cones import PolyCone
from lexfan.config import (
    MarkedCell,
    MarkedSubdivision,
    PointConfig,
    cell_pair_violations,
    hull_of,
    volume,
)
from lexfan.errors import BudgetExceeded, DimensionError, InvariantError, SchemaError
from lexfan.exactlex import LexVec, WeightMatrix, lex_sign, mat_vec, rat, zero_vec
from lexfan.linalg import dot, primitive, rank, solve
# Unused: the LP is the regularity tests' oracle, kept loaded for the benchmark
# tracer, which looks up `lexfan.lp.solve_lp` after importing the CLI.
from lexfan import lp  # noqa: F401


# ---------------------------------------------------------------------------
# condition cones
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConditionGenerator:
    """One affine-relation generator: the primitive vector of
    e_v - sum_i a_i e_{w_i} where v = sum a_i w_i over the affine basis
    delta of the cell's marking.  two_sided generators (marked v) enter the
    cone with both signs; one-sided generators (unmarked v) with + only."""

    vector: tuple
    cell: int
    basis: tuple
    point: int
    two_sided: bool


@dataclass(frozen=True)
class ConditionCone:
    subdivision: MarkedSubdivision
    cone: PolyCone
    generators: tuple  # of ConditionGenerator

    @property
    def witness_height(self) -> Optional[tuple]:
        """A rank-1 height in the open cone of the subdivision (a primitive
        int tuple, zero if no generator is one-sided), or None if it is not
        regular.  The facet normals generate the closed height cone, the
        polar of this cone, so their sum h lies in its relative interior,
        which a nonempty open cone contains (Gordan/Stiemke; De Loera,
        Rambau & Santos, *Triangulations*, ch. 5): the subdivision is
        regular iff h.u < 0 for every one-sided generator u."""
        h = [sum(c) for c in zip((0,) * self.cone.dim, *self.cone.ineq_normals)]
        if all(dot(h, g.vector) < 0 for g in self.generators if not g.two_sided):
            return primitive(h)
        return None


def _affine_basis(cfg: PointConfig, indices: Sequence[int]) -> Optional[tuple]:
    """Lexicographically smallest affinely independent (dim+1)-subset."""
    n = cfg.dim + 1
    for combo in itertools.combinations(sorted(indices), n):
        if rank([cfg.homogenized(i) for i in combo]) == n:
            return combo
    return None


def _relation_vector(cfg: PointConfig, v: int, basis: Sequence[int]) -> tuple:
    """Primitive integer form of e_v - sum a_i e_{w_i} with v = sum a_i w_i."""
    mat = [[cfg.homogenized(w)[k] for w in basis] for k in range(cfg.n)]
    coeffs = solve(mat, cfg.homogenized(v))
    if coeffs is None:
        raise InvariantError(f"point {v} is not an affine combination of basis {basis}")
    u = [0] * cfg.r
    u[v] = 1
    for a, w in zip(coeffs, basis):
        u[w] -= a
    return primitive(u)


def condition_generators(
    cfg: PointConfig, s: MarkedSubdivision, all_bases: bool = False
) -> list[ConditionGenerator]:
    """The reduced generator set (one fixed affine basis per cell), or the
    full set over every affine basis inside every marking."""
    out = []
    for ci, cell in enumerate(s.cells):
        bases: Iterable[tuple]
        if all_bases:
            n = cfg.dim + 1
            bases = [
                combo
                for combo in itertools.combinations(sorted(cell.marking), n)
                if rank([cfg.homogenized(i) for i in combo]) == n
            ]
        else:
            basis = _affine_basis(cfg, cell.marking)
            if basis is None:
                raise ValueError(
                    f"cell {cell.vertices}: marking contains no affine basis"
                )
            bases = [basis]
        # marked points first (two-sided), then unmarked ones (one-sided)
        unmarked = [v for v in range(cfg.r) if v not in cell.marking]
        for basis in bases:
            for v in list(cell.marking) + unmarked:
                if v in basis:
                    continue
                out.append(
                    ConditionGenerator(
                        vector=_relation_vector(cfg, v, basis),
                        cell=ci,
                        basis=basis,
                        point=v,
                        two_sided=v in cell.marking,
                    )
                )
    return out


def condition_cone(cfg: PointConfig, s: MarkedSubdivision) -> ConditionCone:
    gens = condition_generators(cfg, s)
    cone = PolyCone.from_generators(
        cfg.r,
        rays=[g.vector for g in gens if not g.two_sided],
        lines=[g.vector for g in gens if g.two_sided],
    )
    return ConditionCone(subdivision=s, cone=cone, generators=tuple(gens))


@dataclass(frozen=True)
class SignLedger:
    member: bool
    signs: tuple  # of (ConditionGenerator, lex sign of Psi.u)

    @property
    def open_member(self) -> bool:
        """Open-cone membership when s is a subdivision: every two-sided
        sign is 0 and every one-sided sign is negative."""
        return all(sign == 0 if g.two_sided else sign < 0 for g, sign in self.signs)


def closed_member(
    cfg: PointConfig, psi: WeightMatrix, s: MarkedSubdivision
) -> SignLedger:
    """Psi lies in the closed cone iff Psi.u <= 0 lex for every one-sided
    generator and Psi.u = 0 for every two-sided one."""
    if psi.n_cols != cfg.r:
        raise DimensionError("matrix columns != number of configuration points")
    ok = True
    ledger = []
    for g in condition_generators(cfg, s):
        sign = lex_sign(mat_vec(psi, g.vector))
        ledger.append((g, sign))
        if g.two_sided:
            ok = ok and sign == 0
        else:
            ok = ok and sign <= 0
    return SignLedger(member=ok, signs=tuple(ledger))


# ---------------------------------------------------------------------------
# the subdivision induced by a weight matrix
# ---------------------------------------------------------------------------

def _rank1_cells(cfg: PointConfig, idxs: Sequence[int], heights: Sequence) -> list[tuple]:
    """Upper-hull regular subdivision of (conv A[idxs], A[idxs]) under a
    single height row: the marked point sets of the cells."""
    lifted = [(1, *cfg.points[i], heights[i]) for i in idxs]
    cone = PolyCone.from_generators(cfg.n + 1, rays=lifted)
    if cone.eq_normals:
        # heights affine on the points: the subdivision is trivial
        return [tuple(idxs)]
    cells = []
    for a in cone.ineq_normals:
        if a[-1] <= 0:
            continue  # keep only upper facets (outward normal lifts upward)
        tight = tuple(i for i, v in zip(idxs, lifted) if dot(a, v) == 0)
        cells.append(tight)
    return sorted(set(cells))


def subdivide(cfg: PointConfig, psi: WeightMatrix) -> MarkedSubdivision:
    """The unique subdivision whose open cone contains Psi: cells are the
    domains of linearity of the induced piecewise-linear map, markings the
    points where the map equals the height."""
    if psi.n_cols != cfg.r:
        raise DimensionError("matrix columns != number of configuration points")

    def refine(idxs: Sequence[int], row: int) -> list[MarkedCell]:
        if row == psi.n_rows:
            h = hull_of(tuple(cfg.points[i] for i in idxs))
            verts = tuple(sorted(idxs[i] for i in h.vertices))
            return [MarkedCell(vertices=verts, marking=tuple(sorted(idxs)))]
        out = []
        for part in _rank1_cells(cfg, idxs, psi.rows[row]):
            out.extend(refine(part, row + 1))
        return out

    cells = refine(list(range(cfg.r)), 0)
    return MarkedSubdivision(cells=tuple(sorted(set(cells), key=lambda c: (c.vertices, c.marking))))


# ---------------------------------------------------------------------------
# piecewise-linear maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PiecewiseLinearMap:
    """Per-cell linear maps Q^n -> Q^N; the global convex-upward map is the
    lexicographic minimum over the cells."""

    cfg: PointConfig
    subdivision: MarkedSubdivision
    n_rank: int
    cell_maps: tuple  # per cell: N rows of length n


def linear_extension(
    cfg: PointConfig, s: MarkedSubdivision, psi: WeightMatrix
) -> PiecewiseLinearMap:
    """Interpolate Psi on each cell's marking, verifying that the marked
    heights are actually affine per cell (Psi in the closed cone)."""
    maps = []
    for cell in s.cells:
        basis = _affine_basis(cfg, cell.marking)
        if basis is None:
            raise ValueError("marking contains no affine basis")
        mat = [cfg.homogenized(i) for i in basis]
        rows = []
        for k in range(psi.n_rows):
            coeff = solve(mat, [psi.rows[k][i] for i in basis])
            if coeff is None:
                raise InvariantError(f"affine basis {basis} is singular")
            rows.append(tuple(coeff))
        for i in cell.marking:
            h = cfg.homogenized(i)
            val = LexVec(dot(row, h) for row in rows)
            if val != psi.column(i):
                raise ValueError(
                    f"heights not affine on cell {cell.vertices} (point {i})"
                )
        maps.append(tuple(rows))
    return PiecewiseLinearMap(
        cfg=cfg, subdivision=s, n_rank=psi.n_rows, cell_maps=tuple(maps)
    )


def cell_value(plm: PiecewiseLinearMap, cell_index: int, w: Sequence) -> LexVec:
    return LexVec(dot(row, w) for row in plm.cell_maps[cell_index])


def g_eval(plm: PiecewiseLinearMap, w: Sequence) -> LexVec:
    """Lexicographic minimum of the cell maps at a point of the cone over P."""
    if not plm.cfg.hull().cone.contains(w):
        raise SchemaError(f"point {tuple(w)} outside the cone over the configuration")
    return min(cell_value(plm, ci, w) for ci in range(len(plm.subdivision.cells)))


def fiber_value(cfg: PointConfig, psi: WeightMatrix, w: Sequence) -> Optional[LexVec]:
    """Independent oracle: lex-max of Psi.lambda over the fiber polytope
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


# ---------------------------------------------------------------------------
# open cones, regularity, enumeration
# ---------------------------------------------------------------------------

def open_member(cfg: PointConfig, psi: WeightMatrix, s: MarkedSubdivision) -> bool:
    """Psi lies in the open cone iff it induces exactly this subdivision."""
    return subdivide(cfg, psi) == s


def is_regular(cfg: PointConfig, s: MarkedSubdivision) -> bool:
    """Nonemptiness of the rank-1 open cone, read off the condition cone
    (``ConditionCone.witness_height``)."""
    return condition_cone(cfg, s).witness_height is not None


def _candidate_cells(cfg: PointConfig) -> list[MarkedCell]:
    """Every full-dimensional marked cell: a vertex set in convex position
    together with any marking between the vertices and all points inside."""
    cells = []
    idxs = range(cfg.r)
    for size in range(cfg.dim + 1, cfg.r + 1):
        for combo in itertools.combinations(idxs, size):
            pts = tuple(cfg.points[i] for i in combo)
            h = hull_of(pts)
            if h.intrinsic_dim != cfg.dim:
                continue
            if len(h.vertices) != size:
                continue  # some listed point is not a vertex
            inside = [
                i for i in idxs if i not in combo and h.cone.contains(cfg.homogenized(i))
            ]
            for extra in itertools.chain.from_iterable(
                itertools.combinations(inside, k) for k in range(len(inside) + 1)
            ):
                cells.append(
                    MarkedCell(vertices=combo, marking=tuple(sorted(combo + extra)))
                )
    return cells


def enumerate_subdivisions(
    cfg: PointConfig, budget: int = 200_000
) -> list[MarkedSubdivision]:
    """All marked subdivisions by depth-first cover search over candidate
    cells (desk scale).  Full-dimensional cells that pairwise meet in common
    faces with agreeing markings, and whose volumes sum to the whole, form a
    subdivision, so a cover needs no further validation."""
    candidates = _candidate_cells(cfg)
    vols = [volume(tuple(cfg.points[i] for i in c.vertices)) for c in candidates]
    target = volume(cfg.points)
    compatible: dict[tuple[int, int], bool] = {}

    def compat(i: int, j: int) -> bool:
        key = (min(i, j), max(i, j))
        if key not in compatible:
            ca, cb = candidates[key[0]], candidates[key[1]]
            compatible[key] = not cell_pair_violations(cfg, ca, cb)
        return compatible[key]

    results = []
    nodes = 0

    def search(start: int, chosen: list[int], vol_acc: Fraction):
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded(f"enumeration exceeded {budget} search nodes")
        if vol_acc == target:
            results.append(MarkedSubdivision(cells=tuple(candidates[i] for i in chosen)))
            return
        for i in range(start, len(candidates)):
            if vol_acc + vols[i] > target:
                continue
            if all(compat(i, j) for j in chosen):
                chosen.append(i)
                search(i + 1, chosen, vol_acc + vols[i])
                chosen.pop()

    search(0, [], Fraction(0))
    return results


def enumerate_regular_subdivisions(
    cfg: PointConfig, budget: int = 200_000
) -> list[ConditionCone]:
    """The condition cones of all regular subdivisions (desk scale), in the
    order of the cover search: one cone is built per cover, and the cover is
    kept iff the cone has a witness height."""
    ccs = (condition_cone(cfg, s) for s in enumerate_subdivisions(cfg, budget))
    return [cc for cc in ccs if cc.witness_height is not None]


# ---------------------------------------------------------------------------
# row moves and dimensions
# ---------------------------------------------------------------------------

def scale_row(psi: WeightMatrix, row: int, factor) -> WeightMatrix:
    factor = rat(factor)
    if factor <= 0:
        raise ValueError("row scaling requires a positive factor")
    rows = [list(r) for r in psi.rows]
    rows[row] = [factor * x for x in rows[row]]
    return WeightMatrix(rows=tuple(tuple(r) for r in rows))


def add_row_multiple(psi: WeightMatrix, src: int, dst: int, factor) -> WeightMatrix:
    """Add factor * (row src) to the strictly less significant row dst."""
    if dst <= src:
        raise ValueError("target row must be strictly less significant")
    factor = rat(factor)
    rows = [list(r) for r in psi.rows]
    rows[dst] = [x + factor * y for x, y in zip(rows[dst], rows[src])]
    return WeightMatrix(rows=tuple(tuple(r) for r in rows))


def shift_row(psi: WeightMatrix, row: int, constant) -> WeightMatrix:
    """Add a constant to every entry of a row (an affine height shift)."""
    constant = rat(constant)
    rows = [list(r) for r in psi.rows]
    rows[row] = [x + constant for x in rows[row]]
    return WeightMatrix(rows=tuple(tuple(r) for r in rows))


def elementary_moves(psi: WeightMatrix) -> list[WeightMatrix]:
    """A deterministic sample of matrices reachable by the three moves that
    preserve open-cone membership (identity included)."""
    out = [scale_row(psi, 0, 1)]
    for row in range(psi.n_rows):
        out.append(scale_row(psi, row, Fraction(7)))
        out.append(scale_row(psi, row, Fraction(1, 3)))
        out.append(shift_row(psi, row, Fraction(5)))
        out.append(shift_row(psi, row, Fraction(-2, 7)))
    for src in range(psi.n_rows):
        for dst in range(src + 1, psi.n_rows):
            out.append(add_row_multiple(psi, src, dst, Fraction(3, 2)))
            out.append(add_row_multiple(psi, src, dst, Fraction(-4)))
    return out


def cone_dim(cfg: PointConfig, s: MarkedSubdivision, n_rank: int) -> int:
    """Dimension of the closed cone: N times the codimension of the
    condition cone's lineality space."""
    cc = condition_cone(cfg, s)
    return n_rank * (cfg.r - cc.cone.lineality_dim())
