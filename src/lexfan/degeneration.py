"""Associated graded algebras of the two quasi-valuations on a
degree-truncated basis, plus the Stanley-Reisner ideal in the triangulation
case.

Both algebras are reduced unions of toric pieces, one per cell, so two basis
classes multiply to zero exactly when no component holds both: the structure
rule is a bitmask of components per class, not a multiplication table (cf.
Sturmfels, *Groebner Bases and Convex Polytopes*, ch. 8-10)."""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from operator import add, not_
from typing import Optional

from lexfan.config import MarkedSubdivision, PointConfig, is_triangulation
from lexfan.quasival import (
    TruncatedSemigroup,
    cell_semigroup,
    class_masks,
    in_cell_cone,
    least_multiple,
)


@dataclass(frozen=True)
class ComponentCertificate:
    """Irredundancy witness for one cell: the sum of its degree-1 classes
    lies in that cell's monoid and in no other cell's cone, so its class
    annihilates every other component while remaining nonzero."""

    cell: int
    witness: tuple  # a vector (d, *eta)
    in_own_cell: bool
    outside_others: bool

    @property
    def ok(self) -> bool:
        return self.in_own_cell and self.outside_others


@dataclass(frozen=True)
class FanAlgebraPresentation:
    """Degree-truncated presentation, each class its index in ``basis``:
    per-cell component monoids, the component bitmask of each class (bit ci
    set when component ci holds it), the zero products, nilpotent classes
    (none for the piecewise-linear valuation), and per-cell certificates."""

    semigroup: TruncatedSemigroup
    bound: int
    basis: tuple  # per class: its vector (d, *eta), sorted
    components: tuple  # per cell: the sorted classes of its monoid
    masks: list  # per class: its component bitmask
    table: tuple  # zero products (i, j), i <= j, sorted
    nilpotents: tuple  # of (class, exponent witness)
    certificates: tuple  # of ComponentCertificate
    equidimensional: bool

    def product(self, u: tuple, w: tuple) -> Optional[tuple]:
        """u + w when some component holds both classes, None when the
        product is zero.  KeyError unless both are positive-degree basis
        classes with d_u + d_w within the bound."""
        if u[0] <= 0 or w[0] <= 0 or u[0] + w[0] > self.bound:
            raise KeyError((u, w))
        index = self.semigroup.index
        return tuple(map(add, u, w)) if self.masks[index[u]] & self.masks[index[w]] else None


def _zero_products(basis, bound, masks) -> tuple:
    """Pairs (i, j) of positive-degree classes, i <= j, with d_i + d_j <=
    bound and no component holding both, sorted by (basis[i], basis[j]) as
    the basis is sorted: the classes of degree <= e precede (e + 1,)."""
    zeros = []
    for i in range(1, bisect_left(basis, (bound,))):  # d_i from 1 to bound - 1
        mask, end = masks[i], bisect_left(basis, (bound - basis[i][0] + 1,))
        disjoint = map(not_, map(mask.__and__, masks[i:end]))
        zeros += zip(itertools.repeat(i), itertools.compress(range(i, end), disjoint))
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
        semigroup=t,
        bound=t.bound,
        basis=basis,
        components=comps,
        masks=masks,
        table=_zero_products(basis, t.bound, masks),
        nilpotents=tuple(
            (i, least_multiple(t, i)) for i, v in enumerate(basis) if v[0] > 0 and not masks[i]
        ),
        certificates=certificates,
        equidimensional=t.equidimensional,
    )


def gr_v_present(t: TruncatedSemigroup) -> FanAlgebraPresentation:
    """Presentation of the graded algebra of the piecewise-linear valuation:
    classes multiply through when they share a cell cone, otherwise to zero.
    Reduced, with one irreducible component per cell."""
    cfg, s = t.cfg, t.s
    points = [cfg.homogenized(i) for i in range(cfg.r)]
    certs = []
    for ci, cell in enumerate(s.cells):
        inside = [points[i] for i in cell_semigroup(cfg, cell, points)]
        witness = tuple(map(sum, zip(*inside)))
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
    basis = t.basis
    starts = [bisect_left(basis, (d,)) for d in range(t.bound + 2)]
    comps = []
    for q in t.marked:  # one layer per degree, for the classes of that degree
        comp = []
        for d in range(t.bound + 1):
            layer = q.layer(d)
            comp += (i for i in range(starts[d], starts[d + 1]) if basis[i][1:] in layer)
        comps.append(tuple(comp))
    return _presentation(t, tuple(comps), class_masks(len(basis), comps))


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
