"""Condition cones, closed/open cone membership, the subdivision induced by
a weight matrix, regularity, enumeration of regular subdivisions, and the
row moves that preserve open-cone membership.

The subdivision algorithm is iterated rank-1 refinement: the most-significant
row induces an upper-hull regular subdivision, each cell restricted to its
marked points is refined by the next row, and so on.  Psi is read as its
int rows (``WeightMatrix.integer_rows``), a positive scaling per row that
moves no cell and no lex sign.  An independent fiber
oracle (lex-max over basic feasible solutions) certifies the construction in
the test suite.

Regularity is read off the condition cone (``ConditionCone.witness_height``);
no LP is solved.  The cover search builds no hull: its candidates, volumes
and clash bitmasks are read off the circuits and determinants of one pass
(``enumerate_subdivisions``); ``config.cell_pair_violations`` stays the
independent check.

A condition cone's relations are read cell by cell (``_cell_relations``, one
echelon pass per cell) and numbered by the cell's index in the subdivision
(``condition_generators``).  The covers of one enumeration share most of
their cells, so ``enumerate_regular_subdivisions`` computes each distinct
cell's relations once and builds one cone per cover from them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from lexfan.cones import PolyCone
from lexfan.config import (
    MarkedCell,
    MarkedSubdivision,
    PointConfig,
    hull_of,
    placing_volume,
)
from lexfan.errors import BudgetExceeded, DimensionError, InvariantError, SchemaError
from lexfan.exactlex import LexVec, WeightMatrix, rat
from lexfan.linalg import dot, echelon, primitive
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


def _point_columns(cfg: PointConfig, idxs: Sequence[int]) -> list[list[int]]:
    """The homogenized points idxs as the columns of an integer matrix."""
    return [[1] * len(idxs)] + [[cfg.points[i][k] for i in idxs] for k in range(cfg.dim)]


def circuits(cfg: PointConfig) -> tuple[list[tuple[int, int]], dict[int, int]]:
    """Every circuit (minimal affine dependence) of the points, once, as a
    ``(positive, negative)`` pair of index bitmasks, and the determinant of
    every ascending n-subset of the homogenized points, as columns, keyed by
    its bitmask.  A subset of k points is a circuit iff one echelon pass over
    its columns leaves k - 1 pivots and the kernel vector, d at the free
    column f and -row[f] at each pivot, has full support.  Circuits have at
    most n + 1 points; an n-subset's determinant is the pass's d, or 0 if it
    leaves fewer than n pivots.  For n = 1 the loop visits no 1-subset: the
    configuration is a single point, the basis, of determinant 1."""
    out, dets = [], {1: 1} if cfg.n == 1 else {}
    for k in range(2, cfg.n + 2):
        for idxs in itertools.combinations(range(cfg.r), k):
            red, pivots, d = echelon(_point_columns(cfg, idxs))
            if k == cfg.n:
                dets[sum(1 << i for i in idxs)] = d if len(pivots) == k else 0
            if len(pivots) != k - 1:
                continue
            f = next(c for c in range(k) if c not in pivots)
            coeffs = [(idxs[f], d), *((idxs[p], -row[f]) for p, row in zip(pivots, red))]
            if any(c == 0 for _, c in coeffs):
                continue
            pos = sum(1 << i for i, c in coeffs if c > 0)
            neg = sum(1 << i for i, c in coeffs if c < 0)
            out.append((pos, neg))
    return out, dets


def _cell_relations(cfg: PointConfig, cell: MarkedCell) -> tuple:
    """The affine relations of one cell, from one echelon pass over the
    columns [B | H]: B the lex-first (so greedy) affine basis of its
    marking, H every other point, marked ones first.  The pass gives
    d I | d B^-1 H, and the relation vector of v is
    primitive(|d| e_v - sgn(d) column_v).  Returned as ``(basis, points,
    vectors, m)``: the relation of ``points[k]`` is ``vectors[k]``, two-sided
    iff k < m (the point is marked).  The per-relation lists keep
    ``condition_generators`` from building a tuple per relation."""
    # marked points first (two-sided), then unmarked ones (one-sided)
    idxs = list(cell.marking) + [v for v in range(cfg.r) if v not in cell.marking]
    red, pivots, d = echelon(_point_columns(cfg, idxs))
    if len(pivots) < cfg.n or pivots[-1] >= len(cell.marking):
        raise InvariantError(f"cell {cell.vertices}: marking contains no affine basis")
    basis = tuple(idxs[p] for p in pivots)
    sgn = 1 if d > 0 else -1
    points, vectors = [], []
    for j, v in enumerate(idxs):
        if v in basis:
            continue
        u = [0] * cfg.r
        u[v] = abs(d)
        for w, row in zip(basis, red):
            u[w] = -sgn * row[j]
        points.append(v)
        vectors.append(primitive(u))
    return basis, points, vectors, len(cell.marking) - cfg.n


def condition_generators(
    cfg: PointConfig, s: MarkedSubdivision, relations: Optional[dict] = None
) -> list[ConditionGenerator]:
    """The reduced generator set: the ``_cell_relations`` of each cell, one
    fixed affine basis per cell, numbered by the cell's index in s.
    ``relations``, if given, maps each ``MarkedCell`` to its
    ``_cell_relations`` and is read and filled, so that a caller assembling
    many subdivisions runs one echelon pass per distinct cell."""
    if relations is None:
        relations = {}
    out = []
    for ci, cell in enumerate(s.cells):
        if (rel := relations.get(cell)) is None:
            rel = relations[cell] = _cell_relations(cfg, cell)
        basis, points, vectors, m = rel
        for k, v in enumerate(points):
            out.append(ConditionGenerator(vectors[k], ci, basis, v, k < m))
    return out


def condition_cone(
    cfg: PointConfig, s: MarkedSubdivision, relations: Optional[dict] = None
) -> ConditionCone:
    """The cone of s's condition generators (``relations`` as in
    ``condition_generators``).  A vector that several cells share enters the
    single DD pass once (Fukuda & Prodon 1996: a repeated constraint changes
    nothing); ``generators`` keeps every one.  Any one cell's relations span
    the space D of affine dependences, of dimension r - n (the Gale dual; De
    Loera, Rambau & Santos, *Triangulations*, ch. 5), so the pass runs in
    D's coordinates (``PointConfig.kernel_coordinates``); a subdivision with
    no cell raises InvariantError."""
    gens = condition_generators(cfg, s, relations)
    cone = PolyCone.from_generators(
        cfg.r,
        rays=dict.fromkeys(g.vector for g in gens if not g.two_sided),
        lines=dict.fromkeys(g.vector for g in gens if g.two_sided),
        span=cfg.kernel_coordinates,
    )
    return ConditionCone(subdivision=s, cone=cone, generators=tuple(gens))


@dataclass(frozen=True)
class SignLedger:
    signs: tuple  # of (ConditionGenerator, lex sign of Psi.u)

    @property
    def member(self) -> bool:
        """Closed-cone membership: every two-sided sign is 0 and every
        one-sided sign is at most 0."""
        return all(sign == 0 if g.two_sided else sign <= 0 for g, sign in self.signs)

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
    _, rows = psi.integer_rows
    ledger = []
    for g in condition_generators(cfg, s):
        val = next((v for row in rows if (v := dot(row, g.vector))), 0)
        ledger.append((g, (val > 0) - (val < 0)))
    return SignLedger(signs=tuple(ledger))


# ---------------------------------------------------------------------------
# the subdivision induced by a weight matrix
# ---------------------------------------------------------------------------

def _rank1_cells(cfg: PointConfig, idxs: Sequence[int], heights: Sequence[int]) -> list[tuple]:
    """Upper-hull regular subdivision of (conv A[idxs], A[idxs]) under a
    single int height row: the marked point sets of the cells.  The cell is
    full-dimensional, so the lifted points have rank n iff the heights are
    affine on them and the cell stays whole; otherwise their cone is
    full-dimensional and its polar pointed, so it has no equality normals.
    One DD pass therefore answers both questions."""
    lifted = [(1, *cfg.points[i], heights[i]) for i in idxs]
    cone = PolyCone.from_generators(cfg.n + 1, rays=lifted)
    if cone.eq_normals:
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
    _, rows = psi.integer_rows
    # a worklist, not a recursion per row: Psi may have thousands of rows
    cells, work = set(), [(list(range(cfg.r)), 0)]
    while work:
        idxs, row = work.pop()
        if len(idxs) == cfg.n:
            # a full-dimensional cell of n points is a simplex: it cannot
            # split, and all its points are vertices
            cells.add(MarkedCell(vertices=idxs, marking=idxs))
        elif row == psi.n_rows:
            verts = [idxs[i] for i in hull_of(tuple(cfg.points[i] for i in idxs)).vertices]
            cells.add(MarkedCell(vertices=verts, marking=idxs))
        else:
            work.extend((part, row + 1) for part in _rank1_cells(cfg, idxs, rows[row]))
    return MarkedSubdivision(cells=cells)


# ---------------------------------------------------------------------------
# piecewise-linear maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PiecewiseLinearMap:
    """Per-cell linear maps Q^n -> Q^N; the global convex-upward map is the
    lexicographic minimum over the cells.

    The maps are kept on ints: row k of cell c at w is
    dot(cell_maps[c][k], w) / (denominator * scales[k]).  ``scales`` are
    those of ``WeightMatrix.integer_rows`` (each row of Psi times the lcm of
    its denominators, as ``quasival.NuTable`` packs nu), and ``denominator``
    D is the lcm of the cells' echelon pivots.  Both are positive, so int
    rows compare as their values do, and a value is built once, by
    ``value``."""

    cfg: PointConfig
    subdivision: MarkedSubdivision
    cell_maps: tuple  # per cell: N int rows of length n
    denominator: int
    scales: tuple  # per row of Psi

    def value(self, row: Sequence) -> LexVec:
        """The value whose int row, over D times the scales, is ``row``."""
        return LexVec(Fraction(x, self.denominator * s) for x, s in zip(row, self.scales))


def linear_extension(
    cfg: PointConfig, s: MarkedSubdivision, psi: WeightMatrix
) -> PiecewiseLinearMap:
    """Interpolate Psi on each cell's marking, verifying that the marked
    heights are actually affine per cell (Psi in the closed cone).  One
    echelon pass over the int rows (1, x_i | scaled heights of point i) of
    the marked points gives d I | d X, and row k of the cell map is column
    n + k over d; a pivot past column n - 1 means the heights are not
    affine.  Each cell's columns are then put over D, the lcm of the d."""
    n = cfg.n
    scales, rows = psi.integer_rows
    heights = tuple(zip(*rows))
    reduced = []
    for cell in s.cells:
        red, pivots, d = echelon([(*cfg.homogenized(i), *heights[i]) for i in cell.marking])
        if pivots[:n] != list(range(n)):
            raise InvariantError(f"cell {cell.vertices}: marking contains no affine basis")
        if len(pivots) > n:
            raise ValueError(f"heights not affine on cell {cell.vertices}")
        reduced.append((red, d))
    den = lcm(*(abs(d) for _, d in reduced))
    maps = tuple(
        tuple(tuple(row[n + k] * (den // d) for row in red) for k in range(len(rows)))
        for red, d in reduced
    )
    return PiecewiseLinearMap(
        cfg=cfg, subdivision=s, cell_maps=maps, denominator=den, scales=scales
    )


def value_row(plm: PiecewiseLinearMap, w: Sequence) -> tuple[tuple, int]:
    """The int row of g(w), over D times the scales, and the first cell
    where it is attained; SchemaError off the cone over the configuration."""
    if not hull_of(plm.cfg.points).cone.contains(w):
        raise SchemaError(f"point {tuple(w)} outside the cone over the configuration")
    rows = [tuple(dot(r, w) for r in m) for m in plm.cell_maps]
    best = min(rows)
    return best, rows.index(best)


def g_eval(plm: PiecewiseLinearMap, w: Sequence) -> LexVec:
    """Lexicographic minimum of the cell maps at a point of the cone over P."""
    return plm.value(value_row(plm, w)[0])


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


def _candidate_cells(
    cfg: PointConfig, circs: Sequence[tuple[int, int]], dets: dict[int, int]
) -> list[MarkedCell]:
    """Every full-dimensional marked cell: a vertex set in convex position
    together with any marking between the vertices and all points inside,
    read off ``circuits``.  A set S is full-dimensional iff it holds a basis,
    an n-subset of nonzero det.  A point i lies in conv(S) iff an affine
    dependence has positive part {i} and negative part in S, and then, by
    conformal decomposition, a circuit does too (De Loera, Rambau & Santos,
    *Triangulations*, 4.1).  So S is in convex position iff no such circuit
    has i in S, and the points inside are the i outside S with one."""
    bases = [b for b, d in dets.items() if d]
    lone = [(p, q) for p, q in (*circs, *((q, p) for p, q in circs)) if p & (p - 1) == 0]
    cells = []
    for size in range(cfg.n, cfg.r + 1):
        for combo in itertools.combinations(range(cfg.r), size):
            s = sum(1 << i for i in combo)
            if all(b & ~s for b in bases):
                continue
            within = 0  # the points of conv(S) that are not its vertices
            for p, q in lone:
                if q & ~s == 0:
                    within |= p
            if within & s:
                continue  # some listed point is not a vertex
            inside = [i for i in range(cfg.r) if within >> i & 1]
            for extra in itertools.chain.from_iterable(
                itertools.combinations(inside, k) for k in range(len(inside) + 1)
            ):
                cells.append(
                    MarkedCell(vertices=combo, marking=tuple(sorted(combo + extra)))
                )
    return cells


def _clashes(circs: Sequence[tuple[int, int]], masks: Sequence[int]) -> list[int]:
    """Bit j of entry i: the cells of markings masks[i] and masks[j] do not
    meet properly, in a common face F (or not at all) with a & F == b & F,
    what ``config.cell_pair_violations`` checks.  They do iff no circuit Z
    of ``circs``, in either orientation (p, q), has p in a, q in b and Z
    not in a & b (De Loera, Rambau & Santos, *Triangulations*, 4.1).  With
    held[s] the bitmask of the markings that contain the side s, an a that
    contains p clashes with every b in held[q], or, when q is in a too, with
    those not in held[p]; (q, p) is listed too, so the relation is symmetric.

    (=>) Such a Z gives a point x = sum l_i z_i over p = sum m_j z_j over
    q, with positive coefficients, on both hulls, so x lies in F.  F is a
    face of both hulls and x a positive combination on each side, so p and
    q lie in F: p in a & F = b & F and q in b & F = a & F, so Z is in a & b.

    (<=) Take x in the relative interior of the intersection, and F_a, F_b
    the smallest faces of the two hulls containing it.  x is a convex
    combination l with support all of a & F_a, and m with support all of
    b & F_b.  If a & F_a is not in b, or b & F_b not in a, then l - m is an
    affine dependence with positive part in a, negative part in b and a
    point of its support outside a & b.  By conformal decomposition it is a
    sum of sign-compatible circuits, and the one through that point breaks
    the rule.  Otherwise F_a = conv(a & F_a) lies in both hulls, so it is
    the intersection; likewise F_b, and a & F = b & F."""
    sides = [*circs, *((q, p) for p, q in circs)]
    held = dict.fromkeys(p for p, _ in sides)
    for side in held:
        held[side] = sum(1 << j for j, b in enumerate(masks) if side & ~b == 0)
    out = []
    for a in masks:
        bad = 0
        for p, q in sides:
            if p & ~a == 0:
                bad |= held[q] & ~held[p] if q & ~a == 0 else held[q]
        out.append(bad)
    return out


def enumerate_subdivisions(
    cfg: PointConfig, budget: int = 200_000
) -> list[MarkedSubdivision]:
    """All marked subdivisions by depth-first cover search over candidate
    cells (desk scale).  Full-dimensional cells that pairwise meet in common
    faces with agreeing markings, and whose volumes sum to the whole, form a
    subdivision, so a cover needs no further validation.  Such cells have
    disjoint interiors, so a node's volumes never sum past the whole.

    Everything the search needs is read off one pass, ``circuits``: the
    candidates (``_candidate_cells``), their normalized volumes by
    ``config.placing_volume`` on its determinants, once per vertex set, and
    the clash bitmasks (``_clashes``).  A node takes, lowest first, the bits
    of ``allowed``: the later candidates that meet every chosen cell
    properly."""
    circs, dets = circuits(cfg)
    candidates = _candidate_cells(cfg, circs, dets)

    def vol(idxs: Sequence[int]) -> int:  # from the lex-first basis among idxs
        bases = (c for c in itertools.combinations(idxs, cfg.n) if dets[sum(1 << i for i in c)])
        return placing_volume(next(bases), idxs, dets.__getitem__)

    by_vertices = {vs: vol(vs) for vs in {c.vertices for c in candidates}}
    vols = [by_vertices[c.vertices] for c in candidates]
    target = vol(range(cfg.r))
    clashes = _clashes(circs, [sum(1 << i for i in c.marking) for c in candidates])
    results = []
    nodes = 0

    def search(allowed: int, chosen: tuple, vol_acc: int):
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded(
                f"enumeration stopped after visiting {budget} search nodes:"
                f" {len(results)} subdivisions found among {len(candidates)} candidate cells"
            )
        if vol_acc == target:
            results.append(MarkedSubdivision(cells=tuple(candidates[i] for i in chosen)))
            return
        while allowed:
            i = (allowed & -allowed).bit_length() - 1
            allowed ^= 1 << i
            search(allowed & ~clashes[i], chosen + (i,), vol_acc + vols[i])

    search((1 << len(candidates)) - 1, (), 0)
    return results


def enumerate_regular_subdivisions(
    cfg: PointConfig, budget: int = 200_000
) -> list[ConditionCone]:
    """The condition cones of all regular subdivisions (desk scale), in the
    order of the cover search: one cone is built per cover, and the cover is
    kept iff the cone has a witness height.  Covers share most of their
    cells, so each distinct cell's relations are computed once per call."""
    relations: dict = {}
    ccs = (condition_cone(cfg, s, relations) for s in enumerate_subdivisions(cfg, budget))
    return [cc for cc in ccs if cc.witness_height is not None]


# ---------------------------------------------------------------------------
# row moves and dimensions
# ---------------------------------------------------------------------------

def _replace_row(psi: WeightMatrix, row: int, new) -> WeightMatrix:
    """psi with the given row replaced by the entries of ``new``."""
    rows = list(psi.rows)
    rows[row] = tuple(new)
    return WeightMatrix(rows=tuple(rows))


def scale_row(psi: WeightMatrix, row: int, factor) -> WeightMatrix:
    factor = rat(factor)
    if factor <= 0:
        raise ValueError("row scaling requires a positive factor")
    return _replace_row(psi, row, (factor * x for x in psi.rows[row]))


def add_row_multiple(psi: WeightMatrix, src: int, dst: int, factor) -> WeightMatrix:
    """Add factor * (row src) to the strictly less significant row dst."""
    if dst <= src:
        raise ValueError("target row must be strictly less significant")
    factor = rat(factor)
    return _replace_row(
        psi, dst, (x + factor * y for x, y in zip(psi.rows[dst], psi.rows[src]))
    )


def shift_row(psi: WeightMatrix, row: int, constant) -> WeightMatrix:
    """Add a constant to every entry of a row (an affine height shift)."""
    constant = rat(constant)
    return _replace_row(psi, row, (x + constant for x in psi.rows[row]))


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
    return n_rank * (cfg.r - len(cc.cone.lines))
