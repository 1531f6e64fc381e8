"""Exact polyhedral cones in Q^r.

A PolyCone has two descriptions:
  V-description: lineality basis (lines) + extreme rays (rays),
  H-description: equality normals + inequality normals, cone = all x with
                 n.x = 0 on equalities and n.x <= 0 on inequalities.
Each cone costs one pass of the double description (DD) method: its
constructor computes one side, the pass keeping each computed vector's zero
set (the given vectors it is tight on), and the other side is read off those
sets when it is first read (Fukuda & Prodon, "Double description method
revisited", 1996).  Faces are read off the ray-facet incidences, with no DD
pass per face.  Every vector of either side is a primitive int tuple:
input vectors of ints or Fractions enter the fraction-free DD as primitive
vectors, rays combine by integer combinations followed by a gcd division,
and projections return primitive int directions.  Canonical forms (rref
subspace bases, rays projected off the subspace, primitive integer vectors,
sorted) make structural equality meaningful.  Generators known to span the
kernel of a matrix (``from_generators(span=...)``) are worked in that
kernel's coordinates: the pass runs in its dimension, the equations are
given, and the facet normals are lifted rather than projected.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from operator import add
from typing import Optional, Sequence

from lexfan.errors import DimensionError, InvariantError
from lexfan.linalg import (
    canonical_subspace_basis,
    dot,
    primitive,
    project_off,
    rank,
)


# ---------------------------------------------------------------------------
# double description: H-description -> (lines, rays)
# ---------------------------------------------------------------------------

def _dd(dim: int, eqs: Sequence[Sequence], ineqs: Sequence[Sequence]):
    """Lineality basis and extreme rays of {x : e.x = 0 (e in eqs), a.x <= 0},
    fraction-free: constraints and vectors are primitive int tuples, and
    every combination is an integer one followed by a gcd division.  The
    rays map to their zero sets: bit k is set iff the ray is tight on ineqs[k]."""
    lines = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    rays: dict[tuple, int] = {}

    def reduce_by_line(a, w, bit):
        """Intersect with the constraint using lineality direction w:
        v -> |a.w| v - sgn(a.w) (a.v) w, a positive multiple of the
        projection of v along w onto the hyperplane a.x = 0.  w is tight on
        all earlier constraints, so a ray keeps its zero set and gains a's."""
        aw = dot(a, w)
        m, s = abs(aw), (aw > 0) - (aw < 0)

        def project(v):
            c = s * dot(a, v)
            return primitive([m * x - c * y for x, y in zip(v, w)])

        nonlocal lines, rays
        lines = [project(v) for v in lines if v != w]
        rays = {project(r): z | bit for r, z in rays.items()}

    for a in map(primitive, eqs):
        # no ray exists yet: a cuts the lineality by a line it is not tight
        # on, or every line is tight on it and it is implied by those before
        if w := next((v for v in lines if dot(a, v)), None):
            reduce_by_line(a, w, 0)
    for k, a in enumerate(map(primitive, ineqs)):
        bit = 1 << k
        w = next((v for v in lines if dot(a, v)), None)
        if w is None:
            rays = _cut(a, bit, rays)
        else:
            w_dir = tuple(-x for x in w) if dot(a, w) > 0 else w
            reduce_by_line(a, w, bit)
            rays[w_dir] = bit - 1  # a line: tight on all before a, not on a
    return lines, rays


def _cut(a, bit, rays: dict) -> dict:
    """Standard double-description step on the pointed part; adjacent
    rays combine as (a.rp) rn - (a.rn) rp, then the gcd is divided out.
    Two rays are adjacent iff no third ray is tight on every earlier
    constraint that both are tight on.  A ray tight on a gains a's ``bit``,
    and a combination's zero set is its two rays' common one plus bit."""
    vals = [dot(a, r) for r in rays]
    rs, zsets = list(rays), list(rays.values())
    out = {r: z | bit if not v else z for r, z, v in zip(rs, zsets, vals) if v <= 0}
    pos = [k for k, v in enumerate(vals) if v > 0]
    neg = [k for k, v in enumerate(vals) if v < 0]
    for p, q in itertools.product(pos, neg):
        common = zsets[p] & zsets[q]
        if any(z & common == common for k, z in enumerate(zsets) if k != p and k != q):
            continue  # not adjacent
        rp, rn, vp, vn = rs[p], rs[q], vals[p], vals[q]
        out[primitive([vp * x - vn * y for x, y in zip(rn, rp)])] = common | bit
    return out


def _incidences(vectors: Sequence[Sequence], against: Sequence[Sequence]) -> list[int]:
    """For each vector, the bitmask of the members of ``against`` it is
    orthogonal to (bit k for against[k])."""
    return [
        sum(1 << k for k, b in enumerate(against) if not dot(b, v)) for v in vectors
    ]


# ---------------------------------------------------------------------------
# PolyCone
# ---------------------------------------------------------------------------

class PolyCone:
    """Canonical polyhedral cone in Q^dim.  A constructor computes one side
    by one DD pass and keeps the vectors it was given and the pass's zero
    sets; the other side is read off those sets on first read
    (``_read_off``), with no second pass and no dot product."""

    def __init__(
        self,
        dim: int,
        v: Optional[tuple] = None,
        h: Optional[tuple] = None,
        given: Optional[tuple] = None,
    ):
        # given: what the side not passed is read off, (lines, rays) if h is
        # passed and (eqs, ineqs) if v is, then the passed side's one-sided
        # vectors' zero sets over those rays or ineqs; dropped once read
        self.dim = dim
        if v is not None:
            self._v = v
        if h is not None:
            self._h = h
        self._given = given

    @cached_property
    def _v(self) -> tuple:
        return _read_off(*self.__dict__.pop("_given"))

    @cached_property
    def _h(self) -> tuple:
        return _read_off(*self.__dict__.pop("_given"))

    lines = property(lambda self: self._v[0])  # canonical lineality basis
    rays = property(lambda self: self._v[1])  # extreme rays mod lineality, canonical
    eq_normals = property(lambda self: self._h[0])  # basis of the span-orthogonal constraints
    ineq_normals = property(lambda self: self._h[1])  # facet normals mod eq span, canonical

    # -- construction -------------------------------------------------------

    @staticmethod
    def from_generators(
        dim: int,
        rays: Sequence[Sequence] = (),
        lines: Sequence[Sequence] = (),
        span: Optional[tuple] = None,
    ) -> "PolyCone":
        """The cone generated by rays and lines.  ``span``, if given, is
        ``linalg.kernel_coordinates(A)`` of a matrix A whose kernel the
        generators span; the pass then runs in that kernel's coordinates."""
        rays, lines = list(rays), list(lines)
        for g in rays + lines:
            if len(g) != dim:
                raise DimensionError("generator length != ambient dimension")
        # the H-side is the polar's V-side: the DD of the generators taken as
        # constraints, lines as equalities and rays as inequalities
        if span is None:
            basis, zsets = _dd(dim, lines, rays)
            h = _canonical(basis, zsets)
        else:
            h, zsets = _dd_in_kernel(span, lines, rays)
        return PolyCone(dim, h=h, given=(lines, rays, tuple(zsets.values())))

    @staticmethod
    def from_normals(
        dim: int, ineqs: Sequence[Sequence] = (), eqs: Sequence[Sequence] = ()
    ) -> "PolyCone":
        ineqs, eqs = list(ineqs), list(eqs)
        for n in ineqs + eqs:
            if len(n) != dim:
                raise DimensionError("normal length != ambient dimension")
        basis, zsets = _dd(dim, eqs, ineqs)
        return PolyCone(
            dim, v=_canonical(basis, zsets), given=(eqs, ineqs, tuple(zsets.values()))
        )

    # -- queries ------------------------------------------------------------

    @property
    def generators(self) -> tuple:
        """Generator list with lineality expanded as opposite ray pairs."""
        return self.rays + self.lines + tuple(
            tuple(-x for x in l) for l in self.lines
        )

    @property
    def normals(self) -> tuple:
        return self.ineq_normals + self.eq_normals + tuple(
            tuple(-x for x in n) for n in self.eq_normals
        )

    def contains(self, x: Sequence) -> bool:
        if len(x) != self.dim:
            raise DimensionError("point length != ambient dimension")
        return all(dot(n, x) == 0 for n in self.eq_normals) and all(
            dot(n, x) <= 0 for n in self.ineq_normals
        )

    def cone_dim(self) -> int:
        return rank(list(self.lines) + list(self.rays))

    def relative_interior_point(self) -> tuple:
        """Sum of the extreme rays (zero lineality combination); lies in the
        relative interior, and co-faces taken there do not depend on the
        particular interior point chosen."""
        p = (0,) * self.dim
        for r in self.rays:
            p = tuple(map(add, p, r))
        return p

    def __le__(self, other: "PolyCone") -> bool:
        """Set inclusion."""
        return all(other.contains(g) for g in self.generators)

    # -- faces and co-faces -------------------------------------------------

    def faces(self) -> list["PolyCone"]:
        """All faces (intersections with supporting hyperplanes of facets),
        including the cone itself and its minimal face, breadth first: each
        face's facets cut out the next faces.  A face is the set of rays tight
        on some facets, so it is read off the ray-facet incidences, with no DD
        pass (Kaibel & Pfetsch, "Computing the face lattice of a polytope from
        its vertex-facet incidences", 2002): its V-side is the lines and those
        rays, and its H-side is read off the cone's normals, the facets tight
        on all of those rays becoming equations."""
        rays = self.rays
        zsets = _incidences(rays, self.ineq_normals)
        full = (1 << len(rays)) - 1
        seen = {full: self}
        frontier = [(full, self)]
        while frontier:
            nxt = []
            for mask, f in frontier:
                for m in _incidences(f.ineq_normals, rays):
                    m &= mask
                    if m not in seen:
                        ks = [k for k in range(len(rays)) if m >> k & 1]
                        sub = PolyCone(
                            self.dim,
                            v=(self.lines, tuple(rays[k] for k in ks)),
                            given=(*self._h, tuple(zsets[k] for k in ks)),
                        )
                        seen[m] = sub
                        nxt.append((m, sub))
            frontier = nxt
        return list(seen.values())

    def _vkey(self):
        return (self.lines, frozenset(self.rays))

    def __eq__(self, other):
        return (
            isinstance(other, PolyCone)
            and self.dim == other.dim
            and self._vkey() == other._vkey()
        )

    def __hash__(self):
        return hash((self.dim, self._vkey()))


def _canonical(basis, rays) -> tuple:
    """Canonical form of one side: the rref subspace basis and the primitive
    rays projected off it, deduplicated and sorted.  No ray is tight on all
    of its side's constraints, so none lies in the subspace or projects to 0."""
    basis = canonical_subspace_basis(basis)
    return basis, tuple(sorted(set(project_off(rays, basis))))


def _dd_in_kernel(span: tuple, lines: list, rays: list) -> tuple:
    """The canonical H-side of the cone generated by lines and rays that
    span the kernel D of a matrix A, and the pass's zero sets, from one DD
    pass in D's coordinates ``span = (free, basis, lift)``
    (``linalg.kernel_coordinates``).  Each generator enters as its entries
    on ``free``; the generators span D, so the polar there is pointed and
    the pass ends with no line.  The cone spans D, so its equations are
    ``basis``, the canonical basis of D's complement; its facet normals lie
    in D, and a facet h of the pass lifts to the normal primitive(lift h),
    tight on the same generators: no subspace basis, no projection."""
    free, basis, lift = span
    basis_k, zsets = _dd(
        len(free), [[g[j] for j in free] for g in lines], [[g[j] for j in free] for g in rays]
    )
    if basis_k:
        raise InvariantError("generators do not span the kernel")
    normals = {primitive([dot(row, h) for row in lift]) for h in zsets}
    return (basis, tuple(sorted(normals))), zsets


def _read_off(base, cands, zsets) -> tuple:
    """The canonical side of a cone built from ``base`` (lines or equations)
    and ``cands`` (rays or inequalities), read off the zero sets ``zsets`` of
    the one-sided vectors of its computed side (facet normals or extreme
    rays), bit k for cands[k], with no DD pass.  A candidate's mask, the
    vectors tight on it, is a column of zsets; their order and repeats do not
    matter, nor does projecting a vector off the subspace.  The subspace is
    spanned by base and every candidate tight on all of them.  Each remaining
    candidate is kept iff no remaining candidate is tight on a strict
    superset of its vectors: each face of a cone is generated by the
    generators it contains, so a ray is extreme iff its face is minimal, and
    dually an inequality is a facet iff its face is maximal (Fukuda & Prodon
    1996)."""
    full = (1 << len(zsets)) - 1
    span, rest = list(base), []
    for k, c in enumerate(cands):
        m = sum(1 << j for j, z in enumerate(zsets) if z >> k & 1)
        if m == full:
            span.append(c)
        else:
            rest.append((c, m))
    masks = {m for _, m in rest}
    kept = [c for c, m in rest if not any(n != m and n & m == m for n in masks)]
    return _canonical(span, kept)
