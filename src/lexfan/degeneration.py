"""Associated graded algebras of the two quasi-valuations on a
degree-truncated basis, plus the Stanley-Reisner ideal in the triangulation
case and a Khovanskii-basis report.

Both algebras are reduced unions of toric pieces, one per cell, so two basis
classes multiply to zero exactly when no component holds both: the structure
rule is a bitmask of components per class, not a multiplication table (cf.
Sturmfels, *Groebner Bases and Convex Polytopes*, ch. 8-10)."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from lexfan.config import (
    MarkedSubdivision,
    PointConfig,
    hull_of,
    is_triangulation,
)
from lexfan.quasival import (
    GradedPoint,
    Submonoid,
    TruncatedSemigroup,
    class_masks,
    in_cell_cone,
    in_SQ1,
    least_multiple,
)


@dataclass(frozen=True)
class ComponentCertificate:
    """Irredundancy witness for one cell: the sum of its degree-1 classes
    lies in that cell's monoid and in no other cell's cone, so its class
    annihilates every other component while remaining nonzero."""

    cell: int
    witness: GradedPoint
    in_own_cell: bool
    outside_others: bool

    @property
    def ok(self) -> bool:
        return self.in_own_cell and self.outside_others


@dataclass(frozen=True)
class FanAlgebraPresentation:
    """Degree-truncated presentation: basis classes, per-cell component
    monoids, the component bitmask of each basis class (bit ci set when
    component ci holds it), the zero products, nilpotent classes (empty for
    the piecewise-linear valuation), and per-cell certificates."""

    subdivision: MarkedSubdivision
    bound: int
    basis: tuple  # of GradedPoint
    components: tuple  # per cell: tuple of GradedPoint in its monoid
    masks: dict  # GradedPoint -> component bitmask, for every basis class
    table: tuple  # zero products (u, w), sorted by (u.vector, w.vector)
    nilpotents: tuple  # of (GradedPoint, exponent witness)
    certificates: tuple  # of ComponentCertificate
    equidimensional: bool

    def product(self, u: GradedPoint, w: GradedPoint) -> Optional[GradedPoint]:
        """u + w when some component holds both classes, None when the
        product is zero.  KeyError unless both are positive-degree basis
        classes with d_u + d_w within the bound."""
        if u.d <= 0 or w.d <= 0 or u.d + w.d > self.bound:
            raise KeyError((u, w))
        return u + w if self.masks[u] & self.masks[w] else None


def _inside(cfg: PointConfig, cell) -> tuple:
    """Indices of the configuration points lying in the cell."""
    h = hull_of(tuple(cfg.points[i] for i in cell.vertices))
    return tuple(i for i in range(cfg.r) if h.cone.contains(cfg.homogenized(i)))


def _equidimensional(cfg: PointConfig, s: MarkedSubdivision) -> bool:
    return all(
        hull_of(tuple(cfg.points[i] for i in c.vertices)).intrinsic_dim == cfg.dim
        for c in s.cells
    )


def _zero_products(basis, bound, masks) -> tuple:
    """Pairs (u, w) of positive-degree basis classes, u before w, with
    d_u + d_w <= bound and no component holding both.  The basis is sorted by
    (d, eta), so the pairs come out sorted by (u.vector, w.vector) and the
    inner loop stops at the first w past the bound."""
    pos = [(u, masks[u]) for u in basis if u.d > 0]
    zeros = []
    for i, (u, mask) in enumerate(pos):
        room = bound - u.d
        for w, other in pos[i:]:
            if w.d > room:
                break
            if not mask & other:
                zeros.append((u, w))
    return tuple(zeros)


def _presentation(
    t: TruncatedSemigroup, comps, masks, certificates=()
) -> FanAlgebraPresentation:
    """The presentation of t's basis with these components and the
    ``class_masks`` of the basis over them.  A positive-degree class in no
    component is nilpotent, witnessed by its least multiple in a marked
    submonoid; gr_V has none, as the cell semigroups cover the basis."""
    basis = t.basis
    return FanAlgebraPresentation(
        subdivision=t.s,
        bound=t.bound,
        basis=basis,
        components=comps,
        masks=masks,
        table=_zero_products(basis, t.bound, masks),
        nilpotents=tuple(
            (u, least_multiple(t, u)) for u in basis if u.d > 0 and not masks[u]
        ),
        certificates=certificates,
        equidimensional=_equidimensional(t.cfg, t.s),
    )


def gr_v_present(t: TruncatedSemigroup) -> FanAlgebraPresentation:
    """Presentation of the graded algebra of the piecewise-linear valuation:
    classes multiply through when they share a cell cone, otherwise to zero.
    Reduced, with one irreducible component per cell."""
    cfg, s = t.cfg, t.s
    certs = []
    for ci, cell in enumerate(s.cells):
        inside = _inside(cfg, cell)
        witness = GradedPoint(len(inside), tuple(
            sum(cfg.points[i][k] for i in inside) for k in range(cfg.dim)
        ))
        in_own = in_cell_cone(cfg, witness, cell)
        outside = all(
            not in_cell_cone(cfg, witness, other)
            for cj, other in enumerate(s.cells)
            if cj != ci
        )
        certs.append(ComponentCertificate(ci, witness, in_own, outside))
    return _presentation(t, t.cell_semigroups, t.cell_masks, tuple(certs))


def gr_nu_reduced(t: TruncatedSemigroup) -> FanAlgebraPresentation:
    """The reduced graded algebra of the weighting valuation: components are
    the marked submonoids; classes outside every marked submonoid are
    nilpotent, witnessed by their least multiple that lands in one."""
    comps = tuple(tuple(u for u in t.basis if in_SQ1(q, u)) for q in t.marked)
    return _presentation(t, comps, class_masks(t.basis, comps))


@dataclass(frozen=True)
class SRIdeal:
    """Stanley-Reisner data of a triangulation: squarefree monomial
    generators (minimal non-faces) on the marked variables, plus the
    variables of unmarked points, which become nilpotent."""

    variables: tuple  # indices of marked points
    nonfaces: tuple  # minimal non-faces, each a sorted index tuple
    nilpotent: tuple  # indices of unmarked points


def stanley_reisner(cfg: PointConfig, t: MarkedSubdivision) -> SRIdeal:
    if not is_triangulation(cfg, t):
        raise ValueError("Stanley-Reisner ideal requires a triangulation")
    variables = tuple(t.marked_points)
    facets = [frozenset(c.vertices) for c in t.cells]

    def is_face(subset) -> bool:
        return any(subset <= f for f in facets)

    nonfaces = []
    for size in range(2, len(variables) + 1):
        for combo in itertools.combinations(variables, size):
            sub = frozenset(combo)
            if is_face(sub):
                continue
            if all(is_face(sub - {x}) for x in sub):
                nonfaces.append(tuple(sorted(combo)))
    nilpotent = tuple(i for i in range(cfg.r) if i not in variables)
    return SRIdeal(variables=variables, nonfaces=tuple(nonfaces), nilpotent=nilpotent)


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
    generated_by = [Submonoid(cfg, _inside(cfg, cell)) for cell in s.cells]
    masks = t.cell_masks
    generated, extra = [], []
    for u in t.basis:
        if u.d == 0:
            continue
        cells_holding = [ci for ci in range(len(s.cells)) if masks[u] >> ci & 1]
        ok = any(in_SQ1(generated_by[ci], u) for ci in cells_holding)
        (generated if ok else extra).append((u, tuple(cells_holding)))
    per_cell = tuple(
        tuple(u for u in comp if u.d > 0 and not in_SQ1(q, u))
        for q, comp in zip(generated_by, t.cell_semigroups)
    )
    return KhovanskiiReport(
        bound=t.bound,
        generated=tuple(u for u, _ in generated),
        extra_generators=tuple(extra),
        per_cell_extras=per_cell,
    )
