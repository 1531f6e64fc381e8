"""Point configurations, marked polytopes and polytopal subdivisions.

A configuration is a finite list of distinct lattice points affinely spanning
its ambient space.  Subdivisions are stored combinatorially: each cell is a
vertex-index set plus a marking (indices of configuration points attached to
the cell).  All geometry goes through the homogenization cone, so every
predicate is exact: a point x is the homogeneous vector (1, x), a rational
point y / d is (d, y), hull normals are primitive int tuples, and membership
in a hull is membership of the homogeneous vector in its cone, with no
division anywhere.
"""

from __future__ import annotations

import itertools
from functools import cache, cached_property, lru_cache, reduce
from operator import and_, or_
from typing import Iterable, NamedTuple, Sequence

from lexfan.cones import PolyCone
from lexfan.errors import DimensionError, SchemaError
from lexfan.linalg import dot, echelon, kernel_coordinates, primitive

Point = tuple


class PointConfig:
    """A configuration (P, A): distinct integer points whose affine span is
    the full ambient space; P is their convex hull.  Immutable; equal and
    hashed by (dim, points)."""

    def __init__(self, dim: int, points: Iterable):
        pts = tuple(map(tuple, points))
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "points", pts)
        for c in itertools.chain.from_iterable(pts):
            if type(c) is not int:  # no bool, no Fraction, no string
                raise SchemaError(f"expected integer, got {c!r}")
        if not pts:
            raise SchemaError("a configuration needs at least one point")
        if any(len(p) != dim for p in pts):
            raise DimensionError("point length != ambient dimension")
        if len(set(pts)) != len(pts):
            raise SchemaError("configuration points must be distinct")
        # the homogenized points span iff their transpose has full row rank
        if len(echelon(self.matrix)[1]) != dim + 1:
            raise SchemaError("points do not affinely span the ambient space")

    def __setattr__(self, *_):
        raise AttributeError("PointConfig is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if type(other) is not PointConfig:
            return NotImplemented
        return (self.dim, self.points) == (other.dim, other.points)

    def __hash__(self):
        return hash((self.dim, self.points))

    def __repr__(self):
        return f"PointConfig(dim={self.dim!r}, points={self.points!r})"

    @property
    def r(self) -> int:
        return len(self.points)

    @property
    def n(self) -> int:
        """Homogenized dimension (degree coordinate + ambient)."""
        return self.dim + 1

    def homogenized(self, j: int) -> tuple:
        return (1,) + self.points[j]

    @property
    def matrix(self) -> list[tuple]:
        """The n x r matrix A whose columns are the homogenized points."""
        return [(1,) * self.r, *zip(*self.points)]

    def columns(self, idxs: Sequence[int]) -> list[list[int]]:
        """The columns idxs of ``matrix``, the homogenized points idxs."""
        return [[1] * len(idxs)] + [[self.points[i][k] for i in idxs] for k in range(self.dim)]

    @cached_property
    def det_table(self) -> tuple[dict[int, int], dict[int, tuple]]:
        """``(dets, cramer)``, computed once per configuration and read by
        the cover search and the condition cones of an enumeration
        (``gkzfan.circuits``, ``gkzfan.enumerate_regular_subdivisions``).

        ``dets`` maps the bitmask of every ascending n-subset to the
        determinant of its ``columns``, one echelon pass each: the pass's d,
        or 0 if it leaves fewer than n pivots.  ``cramer`` maps the bitmask
        of every (n + 1)-subset S = (s_0 < ... < s_n) to its Cramer vector,
        as an r-tuple: (-1)^j det(S minus s_j) at s_j, 0 off S.  Expanding
        a determinant with a repeated row shows A u = 0, and u is nonzero
        iff S has rank n, when it spans the kernel of S's columns: S's one
        affine dependence."""
        dets, cramer = {}, {}
        for idxs in itertools.combinations(range(self.r), self.n):
            _, pivots, d = echelon(self.columns(idxs))
            dets[sum(1 << i for i in idxs)] = d if len(pivots) == self.n else 0
        for idxs in itertools.combinations(range(self.r), self.n + 1):
            mask = sum(1 << i for i in idxs)
            u = [0] * self.r
            for j, i in enumerate(idxs):
                d = dets[mask ^ 1 << i]
                u[i] = -d if j & 1 else d
            cramer[mask] = tuple(u)
        return dets, cramer

    @cached_property
    def kernel_coordinates(self) -> tuple[tuple, tuple, tuple]:
        """``linalg.kernel_coordinates(A)``, computed once per configuration:
        every condition cone lies in ker A, the space of affine dependences,
        and is built there (``gkzfan.condition_cone``)."""
        return kernel_coordinates(self.matrix)


class Hull(NamedTuple):
    """Exact hull data of a point list: the cone over the homogenized points
    (1, x), whose normals are the facet inequalities and affine-hull
    equations, and the vertex indices.  A homogeneous vector (d, y) lies in
    the cone iff d > 0 and y / d lies in the hull, or it is zero, so
    ``cone.contains`` is the membership test."""

    points: tuple
    cone: PolyCone
    vertices: tuple  # indices into points

    facets = property(lambda self: self.cone.ineq_normals)  # a.(1,x) <= 0
    affine_eqs = property(lambda self: self.cone.eq_normals)  # a.(1,x) = 0

    @property
    def intrinsic_dim(self) -> int:
        return len(self.points[0]) - len(self.affine_eqs)


@lru_cache(maxsize=4096)
def hull_of(points: tuple) -> Hull:
    """Hull via the cone over the homogenized points; it is pointed, and its
    rays are the primitive homogenized vertices."""
    cone = PolyCone.from_generators(len(points[0]) + 1, rays=[(1, *p) for p in points])
    rays = set(cone.rays)
    return Hull(
        points=points,
        cone=cone,
        vertices=tuple(i for i, p in enumerate(points) if primitive((1, *p)) in rays),
    )


# ---------------------------------------------------------------------------
# volumes (exact, used by the covering check)
# ---------------------------------------------------------------------------

def placing_volume(start: Sequence[int], idxs: Iterable[int], det) -> int:
    """The normalized volume of the convex hull of the points idxs, by a
    placing triangulation read off determinant signs alone (De Loera,
    Rambau & Santos, *Triangulations*, 4.3).  ``start`` is a basis among
    them and ``det(mask)`` the determinant of the homogenized points of a
    bitmask of n indices, as ascending columns, 0 if they are dependent.

    The boundary is kept as facets, bitmasks of n - 1 points, each with the
    sign of its simplex's inner side.  Each later point p is joined to every
    facet F it lies strictly beyond, where det(F, p) has the opposite sign;
    the ridges in exactly one such F, the horizon, span the new facets with
    p.  The volume is the sum of |det| over the simplices, so a point on a
    facet's hyperplane, beyond none, adds nothing."""
    def side(facet: int, p: int) -> int:  # det of facet's points ascending, then p
        d = det(facet | 1 << p)
        return -d if (facet >> p).bit_count() & 1 else d

    full = sum(1 << i for i in start)
    total = abs(det(full))
    boundary = {full ^ 1 << q: side(full ^ 1 << q, q) for q in start}
    for p in (i for i in idxs if i not in start):
        horizon: dict[int, int] = {}
        for facet, inner in list(boundary.items()):
            d = side(facet, p)
            if d * inner >= 0:
                continue  # p is not strictly beyond this facet
            total += abs(d)
            del boundary[facet]
            for q in range(facet.bit_length()):
                ridge = facet ^ 1 << q
                if facet >> q & 1 and horizon.pop(ridge, None) is None:
                    horizon[ridge] = q  # the point of facet off the ridge
        for ridge, q in horizon.items():
            boundary[ridge | 1 << p] = side(ridge | 1 << p, q)
    return total


def volume(points: Sequence[Sequence]) -> int:
    """The normalized volume dim! * vol of a lattice polytope, an integer,
    by ``placing_volume`` from the lex-first basis, the greedy pivots of one
    echelon pass, with one more pass per determinant it reads; 0 if the
    points span no full space."""
    cols = [(1, *p) for p in points]
    n = len(cols[0])

    @cache
    def det(mask: int) -> int:
        _, pivots, d = echelon(list(zip(*(c for i, c in enumerate(cols) if mask >> i & 1))))
        return d if len(pivots) == n else 0

    _, start, _ = echelon(list(zip(*cols)))
    return placing_volume(start, range(len(cols)), det) if len(start) == n else 0


def _intersection_vertices(pa: tuple, pb: tuple) -> list[tuple]:
    """Vertices of conv(pa) intersect conv(pb), exactly, as the primitive
    homogeneous rays (d, y) with d > 0 of the intersection of the two
    cones: the vertex is y / d."""
    ha, hb = hull_of(pa), hull_of(pb)
    d = len(pa[0])
    ineqs = list(ha.facets) + list(hb.facets)
    ineqs.append((-1,) + (0,) * d)  # t >= 0
    eqs = list(ha.affine_eqs) + list(hb.affine_eqs)
    cone = PolyCone.from_normals(d + 1, ineqs=ineqs, eqs=eqs)
    return [ray for ray in cone.rays if ray[0] > 0]


def _face_to_face(pa: tuple, pb: tuple) -> bool:
    """True iff the two polytopes meet in a common face (or not at all)."""
    iv = _intersection_vertices(pa, pb)
    if not iv:
        return True
    for h in (hull_of(pa), hull_of(pb)):
        # the intersection must be the face cut out by the facets tight on
        # all of it: the rays of the cone tight on those facets
        tight = [a for a in h.facets if all(dot(a, w) == 0 for w in iv)]
        if {r for r in h.cone.rays if all(dot(a, r) == 0 for a in tight)} != set(iv):
            return False
    return True


# ---------------------------------------------------------------------------
# marked cells and subdivisions
# ---------------------------------------------------------------------------

class MarkedCell(NamedTuple("MarkedCell", [("vertices", tuple), ("marking", tuple)])):
    """A full-dimensional cell given by its vertex indices into A, together
    with its marking (a subset of A in the cell containing all vertices),
    each stored sorted and without repeats."""

    __slots__ = ()

    def __new__(cls, vertices: Iterable[int], marking: Iterable[int]):
        return tuple.__new__(cls, (tuple(sorted(set(vertices))), tuple(sorted(set(marking)))))


class MarkedSubdivision(NamedTuple("MarkedSubdivision", [("cells", tuple)])):
    """A set of marked cells; canonical form sorts cells by (vertices,
    marking), a cell's tuple order, making structural equality the right
    notion of sameness."""

    __slots__ = ()

    def __new__(cls, cells: Iterable[MarkedCell]):
        return tuple.__new__(cls, (tuple(sorted(cells)),))

    @property
    def marked_points(self) -> tuple:
        out = set()
        for c in self.cells:
            out.update(c.marking)
        return tuple(sorted(out))


class ValidationReport(NamedTuple):
    """The violations of a subdivision; ``ok`` when there are none."""

    violations: tuple  # of (code, message)

    @property
    def ok(self) -> bool:
        return not self.violations


def _cell_points(cfg: PointConfig, cell: MarkedCell) -> tuple:
    return tuple(cfg.points[i] for i in cell.vertices)


def cell_pair_violations(cfg: PointConfig, ca: MarkedCell, cb: MarkedCell) -> list:
    """Violations of a pair of cells: they must meet in a common face, and a
    point lying on both must be marked on both or on neither."""
    pa, pb = _cell_points(cfg, ca), _cell_points(cfg, cb)
    if not _face_to_face(pa, pb):
        return [("overlap-not-face", f"cells {ca.vertices} and {cb.vertices}")]
    ha, hb = hull_of(pa), hull_of(pb)
    return [
        ("marking-mismatch", f"point {i} on cells {ca.vertices} / {cb.vertices}")
        for i, w in enumerate(map(cfg.homogenized, range(cfg.r)))
        if (i in ca.marking) != (i in cb.marking)
        and ha.cone.contains(w) and hb.cone.contains(w)
    ]


def validate_subdivision(cfg: PointConfig, s: MarkedSubdivision) -> ValidationReport:
    """Check covering, face-to-face intersections, and marking conditions."""
    v: list[tuple] = []
    for c in s.cells:
        for i in c.vertices + c.marking:
            if not 0 <= i < cfg.r:
                v.append(("index-range", f"index {i} out of range"))
                return ValidationReport(tuple(v))

    if len(set(s.cells)) != len(s.cells):
        v.append(("duplicate-cell", "a cell is listed twice"))

    for c in s.cells:
        h = hull_of(_cell_points(cfg, c))
        if h.intrinsic_dim != cfg.dim:
            v.append(("cell-not-full-dim", f"cell {c.vertices} is degenerate"))
            continue
        if tuple(c.vertices[i] for i in h.vertices) != c.vertices:
            v.append(
                ("vertex-set", f"cell {c.vertices}: listed points are not all vertices")
            )
        if not set(c.vertices) <= set(c.marking):
            v.append(("marking-missing-vertex", f"cell {c.vertices}"))
        for i in c.marking:
            if not h.cone.contains(cfg.homogenized(i)):
                v.append(("marking-outside-cell", f"point {i} not in cell {c.vertices}"))

    if v:
        return ValidationReport(tuple(v))

    for ca, cb in itertools.combinations(s.cells, 2):
        v.extend(cell_pair_violations(cfg, ca, cb))

    total = sum(volume(_cell_points(cfg, c)) for c in s.cells)
    if total != volume(cfg.points):
        v.append(("not-covering", f"cell volumes sum to {total}"))

    return ValidationReport(tuple(v))


def refines(cfg: PointConfig, s: MarkedSubdivision, coarse: MarkedSubdivision) -> bool:
    """True iff within every cell of the coarse subdivision, the contained
    cells of s cover it and carry markings inside the coarse marking."""
    for big in coarse.cells:
        hb = hull_of(_cell_points(cfg, big))
        inside = [
            c
            for c in s.cells
            if all(hb.cone.contains(cfg.homogenized(i)) for i in c.vertices)
        ]
        total = sum(volume(_cell_points(cfg, c)) for c in inside)
        if total != volume(_cell_points(cfg, big)):
            return False
        for c in inside:
            if not set(c.marking) <= set(big.marking):
                return False
    return True


def refinement_poset(subdivisions: Sequence[MarkedSubdivision]) -> list[tuple[int, int]]:
    """Every pair (i, j), i != j, i-major and j ascending, with s_i refining
    s_j: each cell marking of s_i lies inside some cell marking of s_j (De
    Loera, Rambau & Santos, *Triangulations*, 2.3; ``refines`` is the
    geometric check).  For regular subdivisions this is inclusion of
    condition cones (ch. 5).

    The rule is read through an inverted index of the distinct markings,
    with bitsets of subdivisions as ints: ``holders[y]`` holds the
    subdivisions with a cell marked y, and ``sup[x]`` the union of
    ``holders[y]`` over the markings y that contain x.  s_i then refines
    exactly the subdivisions in the intersection of ``sup[x]`` over its cell
    markings x, less i itself.  That costs one subset test per pair of
    distinct markings and one intersection per cell, not a test per pair of
    subdivisions."""
    masks = [{sum(1 << i for i in c.marking) for c in s.cells} for s in subdivisions]
    holders: dict[int, int] = {}
    for k, xs in enumerate(masks):
        for y in xs:
            holders[y] = holders.get(y, 0) | 1 << k
    sup = {
        x: reduce(or_, (h for y, h in holders.items() if x & ~y == 0))
        for x in holders
    }
    out = []
    for i, xs in enumerate(masks):
        above = reduce(and_, (sup[x] for x in xs)) & ~(1 << i)
        while above:  # set bits, lowest first
            low = above & -above
            out.append((i, low.bit_length() - 1))
            above ^= low
    return out


def is_triangulation(cfg: PointConfig, s: MarkedSubdivision) -> bool:
    """Every cell a simplex marked exactly by its vertices."""
    return all(
        len(c.vertices) == cfg.dim + 1 and c.marking == c.vertices
        for c in s.cells
    )
