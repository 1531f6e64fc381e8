"""The paper's side statements, which no command computes and the tests
check: sums, intersections and co-faces of cones with their face lattice,
lex-matrix cones (``MuCone``) with membership, faces and the dimension
formula, elementarity, full rank, and Khovanskii-basis reports."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import add
from typing import Optional, Sequence

from lexfan.cones import PolyCone
from lexfan.config import MarkedSubdivision, PointConfig, is_triangulation
from lexfan.errors import DimensionError
from lexfan.exactlex import WeightMatrix
from lexfan.gkzfan import PiecewiseLinearMap, value_row
from lexfan.linalg import dot, rank
from lexfan.quasival import (
    Expr,
    Submonoid,
    TruncatedSemigroup,
    cell_semigroup,
    in_SQ1,
    semigroup_up_to,
)

from oracles import lex_sign, mat_vec


# ---------------------------------------------------------------------------
# cone operations and co-faces
# ---------------------------------------------------------------------------

def cone_sum(a: PolyCone, b: PolyCone) -> PolyCone:
    return PolyCone.from_generators(
        a.dim, rays=list(a.rays) + list(b.rays), lines=list(a.lines) + list(b.lines)
    )


def cone_intersection(a: PolyCone, b: PolyCone) -> PolyCone:
    return PolyCone.from_normals(
        a.dim,
        ineqs=list(a.ineq_normals) + list(b.ineq_normals),
        eqs=list(a.eq_normals) + list(b.eq_normals),
    )


def coface(cone: PolyCone, u: Sequence) -> PolyCone:
    """The cone C + R.u for u in C, computed as the intersection of the
    half-spaces of C whose normals vanish on u."""
    if not cone.contains(u):
        raise ValueError("point is not in the cone")
    tight = [n for n in cone.ineq_normals if dot(n, u) == 0]
    return PolyCone.from_normals(cone.dim, ineqs=tight, eqs=cone.eq_normals)


@dataclass(frozen=True)
class FaceLattice:
    """Faces of a cone, each paired with the co-face taken at a relative
    interior point, plus the inclusion relation between faces."""

    entries: tuple  # of (face, relint_point, coface)
    incidence: frozenset  # pairs (i, j) with face_i a subset of face_j

    @property
    def faces(self) -> list[PolyCone]:
        return [e[0] for e in self.entries]

    def __len__(self):
        return len(self.entries)


def cofaces(cone: PolyCone) -> FaceLattice:
    """One co-face per face; the counts agree."""
    fs = cone.faces()
    entries = []
    for f in fs:
        p = f.relative_interior_point()
        entries.append((f, p, coface(cone, p)))
    inc = frozenset(
        (i, j)
        for i, fi in enumerate(fs)
        for j, fj in enumerate(fs)
        if i != j and fi <= fj
    )
    return FaceLattice(entries=tuple(entries), incidence=inc)


# ---------------------------------------------------------------------------
# MuCone: lexicographic half-space intersections in matrix space
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MuCone:
    """Intersection of {Psi : Psi.v <= 0 lex} over the generators v of the
    stored co-polar cone; this representation is canonical and faithful."""

    n_rank: int  # N, number of matrix rows
    copolar_cone: PolyCone

    @property
    def r(self) -> int:
        return self.copolar_cone.dim

    @property
    def copolar_generators(self) -> tuple:
        return self.copolar_cone.generators


@dataclass(frozen=True)
class MuMembership:
    member: bool
    signs: tuple  # lex sign of Psi.v per co-polar generator, aligned
    face: Optional[MuCone]  # the face whose relative interior holds Psi


def mu_member(mu: MuCone, psi: WeightMatrix) -> MuMembership:
    """Membership with the per-generator lex sign ledger; the equality subset
    identifies the face containing Psi."""
    if psi.n_cols != mu.r:
        raise DimensionError("matrix columns != co-polar ambient dimension")
    gens = mu.copolar_generators
    signs = tuple(lex_sign(mat_vec(psi, v)) for v in gens)
    if any(s > 0 for s in signs):
        return MuMembership(member=False, signs=signs, face=None)
    tightsum = (0,) * mu.r
    for v, s in zip(gens, signs):
        if s == 0:
            tightsum = tuple(map(add, tightsum, v))
    return MuMembership(member=True, signs=signs, face=mu_face(mu, tightsum))


def mu_face(mu: MuCone, u: Sequence) -> MuCone:
    """The face of the mu-cone cut out by {Psi : Psi.u = 0}; dual to the
    co-face of the co-polar at u."""
    return MuCone(n_rank=mu.n_rank, copolar_cone=coface(mu.copolar_cone, u))


def mu_dim(mu: MuCone) -> int:
    """N times the codimension of the lineality space of the co-polar."""
    c = mu.copolar_cone
    return mu.n_rank * (c.dim - len(c.lines))


# ---------------------------------------------------------------------------
# elementarity and full rank
# ---------------------------------------------------------------------------

def is_elementary(plm: PiecewiseLinearMap, psi: WeightMatrix, f: Expr) -> bool:
    """A unique support point strictly minimizes the first-nonzero-row
    component of V."""
    k = next((i for i, row in enumerate(psi.rows) if any(x != 0 for x in row)), None)
    if k is None:
        raise ValueError("zero weight matrix has no leading row")
    if f.is_zero():
        raise ValueError("elementarity of the zero expression")
    # the int rows compare as the values do
    vals = [value_row(plm, u)[0][k] for u in f.support]
    m = min(vals)
    return vals.count(m) == 1


@dataclass(frozen=True)
class FullRankResult:
    full_rank: bool
    collision: Optional[tuple]  # (u, w) with equal map values


def is_full_rank(
    cfg: PointConfig, plm: PiecewiseLinearMap, bound: int
) -> FullRankResult:
    """Search the semigroup up to the bound for map-value collisions; full
    rank up to the bound means the map is injective there."""
    seen: dict[tuple, tuple] = {}
    for u in semigroup_up_to(cfg, bound):
        val = value_row(plm, u)[0]
        if val in seen:
            return FullRankResult(False, (seen[val], u))
        seen[val] = u
    return FullRankResult(True, None)


def geometric_full_rank(
    cfg: PointConfig, psi: WeightMatrix, s: MarkedSubdivision
) -> bool:
    """Sufficient full-rank test for triangulations: over every union of two
    cells the matrix columns of the involved points are linearly
    independent."""
    if not is_triangulation(cfg, s):
        raise ValueError("geometric full-rank test requires a triangulation")
    for ca, cb in itertools.combinations_with_replacement(s.cells, 2):
        idxs = sorted(set(ca.marking) | set(cb.marking))
        cols = [[psi.rows[k][i] for i in idxs] for k in range(psi.n_rows)]
        if rank(cols) != len(idxs):
            return False
    return True


# ---------------------------------------------------------------------------
# Khovanskii bases
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KhovanskiiReport:
    """Whether the degree-1 classes generate the graded algebra of the
    piecewise-linear valuation up to the bound."""

    bound: int
    generated: tuple  # points expressible inside a common cell
    extra_generators: tuple  # points requiring new generators, with cells
    per_cell_extras: tuple  # per cell: S_Q elements not generated by A cap Q


def khovanskii_report(t: TruncatedSemigroup) -> KhovanskiiReport:
    cfg, s = t.cfg, t.s
    homogenized = [cfg.homogenized(i) for i in range(cfg.r)]
    generated_by = [
        Submonoid(cfg, cell_semigroup(cfg, cell, homogenized)) for cell in s.cells
    ]
    basis = t.basis
    generated, extra = [], []
    for u, mask in zip(basis, t.cell_masks):
        if u[0] == 0:
            continue
        cells_holding = [ci for ci in range(len(s.cells)) if mask >> ci & 1]
        ok = any(in_SQ1(generated_by[ci], u) for ci in cells_holding)
        (generated if ok else extra).append((u, tuple(cells_holding)))
    per_cell = tuple(
        tuple(basis[i] for i in comp if basis[i][0] > 0 and not in_SQ1(q, basis[i]))
        for q, comp in zip(generated_by, t.cell_semigroups)
    )
    return KhovanskiiReport(
        bound=t.bound,
        generated=tuple(u for u, _ in generated),
        extra_generators=tuple(extra),
        per_cell_extras=per_cell,
    )
