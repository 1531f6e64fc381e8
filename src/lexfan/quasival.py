"""The graded semigroup of a configuration and its two quasi-valuations.

V: minimum of the piecewise-linear map over the support of a function.
nu: per graded point the maximum of Psi.alpha over all monomial
    representatives, then the minimum over the support.
Their difference delta is <= 0 with finite image at any bounded degree, and
V is recovered from nu by stretching (the radicalization).

All three are compared on ints, in the per-row scales of
``WeightMatrix.integer_rows``: nu as ``NuTable`` keys, V as
``gkzfan.value_row`` rows over the map's common denominator D, and delta as
D * nu - V.  A LexVec is built only for an answer.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from fractions import Fraction
from functools import cached_property, partial
from math import lcm
from operator import add, eq, ge, mul, sub
from typing import Iterable, NamedTuple, Optional, Sequence

from lexfan.config import (
    MarkedCell,
    MarkedSubdivision,
    PointConfig,
    hull_of,
    volume,
)
from lexfan.errors import DegreeOverflow, DimensionError, InvariantError, SchemaError
from lexfan.exactlex import INFINITY, LexVec, WeightMatrix, rat
from lexfan.gkzfan import PiecewiseLinearMap, subdivide, value_row
from lexfan.linalg import dot


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------

class Expr:
    """A finite rational combination of basis functions f_u.  Each u is a
    graded point of the semigroup generated by the homogenized
    configuration points, given as its vector (d, *eta): the degree, then
    the character.  Zero coefficients are never stored.  Immutable; equal
    and hashed by its terms.  Not a tuple, so that + and len raise."""

    __slots__ = ("terms",)

    def __init__(self, terms: tuple):  # of (vector, Fraction), sorted
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, *_):
        raise AttributeError("Expr is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return self.terms == other.terms if type(other) is Expr else NotImplemented

    def __hash__(self):
        return hash((self.terms,))

    def __repr__(self):
        return f"Expr(terms={self.terms!r})"

    @staticmethod
    def from_terms(pairs: Iterable[tuple]) -> "Expr":
        acc: dict[tuple, Fraction] = {}
        for u, c in pairs:
            c = rat(c)
            if c == 0:
                continue
            acc[u] = acc.get(u, Fraction(0)) + c
        return Expr(terms=tuple(sorted((u, c) for u, c in acc.items() if c != 0)))

    @staticmethod
    def basis(u: tuple) -> "Expr":
        return Expr.from_terms([(u, 1)])

    @property
    def support(self) -> tuple:
        return tuple(u for u, _ in self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __mul__(self, other: "Expr") -> "Expr":
        if type(other) is not Expr:
            return NotImplemented
        pairs = []
        for u, cu in self.terms:
            for w, cw in other.terms:
                pairs.append((tuple(map(add, u, w)), cu * cw))
        return Expr.from_terms(pairs)

    def power(self, k: int) -> "Expr":
        if k < 1:
            raise ValueError(f"power exponent must be at least 1, got {k}")
        out = self
        for _ in range(k - 1):
            out = out * self
        return out


# ---------------------------------------------------------------------------
# the semigroup
# ---------------------------------------------------------------------------

class Submonoid:
    """The submonoid generated by the homogenized configuration points at the
    given indices, as layered reachable sets: layer d holds the characters of
    all sums of exactly d of those points.  Layers are added one at a time
    when a higher degree is asked for, and kept for the life of the object."""

    def __init__(self, cfg: PointConfig, indices: Iterable[int]):
        self._points = tuple(cfg.points[i] for i in indices)
        self._layers = [{(0,) * cfg.dim}]

    def layer(self, d: int) -> set:
        layers = self._layers
        while len(layers) <= d:
            layers.append({tuple(map(add, eta, p)) for eta in layers[-1] for p in self._points})
        return layers[d]


def semigroup_up_to(cfg: PointConfig, bound: int) -> list[tuple]:
    """All semigroup elements of degree <= bound, each its vector (d, *eta),
    by layered sums, sorted."""
    if bound < 0:
        raise ValueError("degree bound must be nonnegative")
    whole = Submonoid(cfg, range(cfg.r))
    return [(d, *eta) for d in range(bound + 1) for eta in sorted(whole.layer(d))]


def rep_set(cfg: PointConfig, u: tuple) -> list[tuple]:
    """All exponent vectors alpha in N^r with sum alpha = d_u and
    sum alpha_j chi_j = eta_u (depth-first bounded knapsack), in lex order.
    The fibre oracle that tests check ``NuTable`` against."""
    r = cfg.r
    out: list[tuple] = []
    lo = [min(p[k] for p in cfg.points) for k in range(cfg.dim)]
    hi = [max(p[k] for p in cfg.points) for k in range(cfg.dim)]

    def walk(j: int, remaining: int, eta: tuple, alpha: list[int]):
        if j == r:
            if remaining == 0 and all(c == 0 for c in eta):
                out.append(tuple(alpha))
            return
        # prune: the remaining points cannot reach eta outside these bounds
        if any(
            not remaining * lo[k] <= eta[k] <= remaining * hi[k]
            and not (remaining == 0 and eta[k] == 0)
            for k in range(cfg.dim)
        ):
            return
        p = cfg.points[j]
        for take in range(remaining + 1):
            alpha.append(take)
            walk(
                j + 1,
                remaining - take,
                tuple(e - take * c for e, c in zip(eta, p)),
                alpha,
            )
            alpha.pop()

    walk(0, u[0], u[1:], [])
    return out


# ---------------------------------------------------------------------------
# valuations
# ---------------------------------------------------------------------------

class ValuationReport(NamedTuple):
    value: object  # LexVec or INFINITY
    witness_point: Optional[tuple]  # a vector (d, *eta)
    witness_alpha: Optional[tuple]  # for nu: maximizing exponent vector
    witness_cell: Optional[int]  # for V: a cell where g attains the value


def _first_least(values: Sequence) -> int:
    """The index of the first least of the values."""
    return min(range(len(values)), key=values.__getitem__)


def _v_report(plm: PiecewiseLinearMap, support: tuple, rows: list) -> ValuationReport:
    """V(f) from the ``value_row`` of every support point: the first least
    row, its point and the first cell attaining it; one value is built."""
    i = _first_least([row for row, _ in rows])
    row, cell = rows[i]
    return ValuationReport(plm.value(row), support[i], None, cell)


def v_quasi(plm: PiecewiseLinearMap, f: Expr) -> ValuationReport:
    """V(f): lexicographic minimum of the piecewise-linear map over the
    support, the first minimal support point its witness."""
    if f.is_zero():
        return ValuationReport(INFINITY, None, None, None)
    return _v_report(plm, f.support, [value_row(plm, u) for u in f.support])


class NuTable:
    """nu(f_u) = max over the fibre of u of Psi.alpha, for the graded points
    of degree <= ``bound`` of one configuration under one weight matrix, by
    meet in the middle (Horowitz & Sahni, J. ACM 1974).  Each face F keeps
    complete layers: layer m maps every sum of m points of F to its best
    key, built from layer m - 1 by one step per point.  A point u of degree
    d on F is read off its best split over the v in layer h = d // 2 with
    u - v in layer d - h.  Layers are kept for the life of the table, on
    plain ints (one code per point, one key per value and witness), valid
    only up to the bound; answers are not: a point asked twice is read off
    its split twice.

    Faces.  A facet form a of the hull is <= 0 on every homogenized point,
    so a.u > 0 puts u off the semigroup, and a.u = 0 keeps the points off
    the facet out of every representative of u.  F is the set of points on
    every facet tight at u: all for an interior u, one for a vertex multiple.
    The configuration is full-dimensional, so the facets cut out the cone
    over P: a point of negative degree fails one, and a point of degree d
    that passes them all lies in d*P.

    Characters.  With lo_k and span_k the least coordinate and the width of
    the configuration along axis k, a point of d*P lies in d times the
    bounding box: every digit e_k = eta_k - d*lo_k lies in [0, d*span_k].
    The code is sum_k e_k W_k in the mixed radix R_k = bound*span_k + 1
    (W_0 = 1, W_{k+1} = W_k R_k), so a step by a_j adds
    s_j = sum_k (a_jk - lo_k) W_k with no carry.  A split needs no box test:
    digit k of u - v is e_k - f_k >= -h*span_k, and if some are negative,
    the least significant one, with no borrow below it, reads
    e_k - f_k + R_k >= (bound-h)*span_k + 1 > (d-h)*span_k, so a code that
    borrowed, or a negative one, is never a code of layer d - h.

    Values and witnesses.  Each row of Psi is scaled by the lcm of its
    denominators, which keeps lex order; row i of Psi.alpha then lies in
    [-bound*M_i, bound*M_i] (M_i the largest |entry| of the scaled row),
    and the value packs as one int V in the balanced radix Q_i =
    2*bound*M_i + 1, most significant row first, so integer order is lex
    order.  With C = (bound+1)^r and the witness code
    w(alpha) = sum_j alpha_j (bound+1)^(r-1-j) in [0, C), the key
    V*C - w(alpha) = sum_j alpha_j K_j is linear in alpha, and the largest
    key holds the lex-largest value and, among ties, the lex-smallest
    alpha: the first maximizer in ``rep_set`` order.  Layers and splits are
    exact because the key is linear and every representative of degree d
    is one of degree h plus one of degree d - h.

    Lookups.  ``key(u)`` checks u against the bound and the dimension, then
    against the facets, and returns u's key, or None off the semigroup; no
    box test is made.  ``values(key)`` unpacks the int row of nu(f_u) (row
    i times the scale of Psi row i, as ``WeightMatrix.integer_rows`` scales
    it) and ``decode(key)`` turns one key into (nu(f_u), witness alpha).
    With the value part V = -(-key // C) a minimum over many points compares
    ints and decodes only the winner.

    Cost.  Layer m of a k-dimensional face holds O(m^k) codes, so a point
    costs O(d^(k+1)) however few points lie below it: O(d) for a vertex
    multiple, but the whole configuration's layers for a point near the
    boundary on no facet.  On the 2-D simplex, (d, (3d-2, 1)) fills 2.1e6
    codes at d = 320 and would need about 5e8 at d = 2000."""

    def __init__(self, cfg: PointConfig, psi: WeightMatrix, bound: int):
        if psi.n_cols != cfg.r:
            raise DimensionError(
                f"matrix has {psi.n_cols} columns, configuration has {cfg.r} points"
            )
        if bound < 0:
            raise ValueError("degree bound must be nonnegative")
        self.bound = bound
        axes = tuple(zip(*cfg.points))
        self._lo = tuple(map(min, axes))
        spans = (max(a) - lo for a, lo in zip(axes[:-1], self._lo))
        radices = (bound * s + 1 for s in spans)
        self._places = tuple(itertools.accumulate(radices, mul, initial=1))
        self._scales, rows = psi.integer_rows
        self._halves = tuple(bound * max(map(abs, row)) for row in rows)
        self._witness_radix = (bound + 1) ** cfg.r

        def key_step(j: int, col: tuple) -> int:
            packed = 0
            for v, h in zip(col, self._halves):
                packed = packed * (2 * h + 1) + v
            return packed * self._witness_radix - (bound + 1) ** (cfg.r - 1 - j)

        # per point a_j: (s_j, K_j)
        self._steps = tuple(
            (sum(map(mul, map(sub, p, self._lo), self._places)), key_step(j, col))
            for j, (p, col) in enumerate(zip(cfg.points, zip(*rows)))
        )
        # per facet: its normal and the bitmask of the points on it
        self._facets = tuple(
            (a, sum(1 << j for j, p in enumerate(cfg.points) if dot(a, (1, *p)) == 0))
            for a in hull_of(tuple(cfg.points)).facets
        )
        # face bitmask -> its complete layers 0..m, each {code: key}
        self._layers: dict[int, list] = {}

    def key(self, u: tuple) -> Optional[int]:
        """The max-plus key of u = (d, *eta), or None when u is not in the
        semigroup."""
        d, eta = u[0], u[1:]
        if d > self.bound:
            raise DegreeOverflow(f"degree {d} exceeds bound {self.bound}")
        if len(eta) != len(self._lo):
            raise DimensionError(
                f"point {u} has a character of length {len(eta)}, not {len(self._lo)}"
            )
        face = (1 << len(self._steps)) - 1
        for a, on in self._facets:
            t = sum(map(mul, a, u))
            if t > 0:
                return None
            if t == 0:
                face &= on
        code = 0
        for c, lo, w in zip(eta, self._lo, self._places):
            code += (c - d * lo) * w
        h = d // 2
        layers = self._layers.setdefault(face, [{0: 0}])
        while len(layers) <= d - h:  # a loop: no recursion grows with d
            layer = {}
            for j, (s, k) in enumerate(self._steps):
                if face >> j & 1:
                    for v, kv in layers[-1].items():
                        old = layer.get(v + s)
                        if old is None or kv + k > old:
                            layer[v + s] = kv + k
            layers.append(layer)
        top = layers[d - h].get
        splits = [k + w for v, k in layers[h].items() if (w := top(code - v)) is not None]
        return max(splits, default=None)

    def values(self, key: int) -> tuple:
        """The int row of nu(f_u) from the key of u: row i of the value
        times the scale of row i of Psi."""
        packed = -(-key // self._witness_radix)
        val = []
        for h in reversed(self._halves):
            packed, v = divmod(packed + h, 2 * h + 1)
            val.append(v - h)
        return tuple(reversed(val))

    def decode(self, key: int) -> tuple[LexVec, tuple]:
        """(nu(f_u), witness alpha) from the key of u."""
        witness = -(-key // self._witness_radix) * self._witness_radix - key
        alpha = []
        for _ in self._steps:
            witness, a = divmod(witness, self.bound + 1)
            alpha.append(a)
        return (
            LexVec(Fraction(v, s) for v, s in zip(self.values(key), self._scales)),
            tuple(reversed(alpha)),
        )


def _semigroup_key(table: NuTable, u: tuple) -> int:
    """u's key in the table; SchemaError off the semigroup."""
    key = table.key(u)
    if key is None:
        raise SchemaError(f"point {u} is not in the semigroup")
    return key


def nu_point(table: NuTable, u: tuple) -> tuple[LexVec, tuple]:
    """nu(f_u) = max over representatives alpha of Psi.alpha, with witness;
    DegreeOverflow above the table's bound."""
    return table.decode(_semigroup_key(table, u))


def _nu_report(table: NuTable, support: tuple, keys: list) -> ValuationReport:
    """nu(f) from the key of every support point, the first whose value part
    -(-key // C), C = (bound+1)^r, is least; one key is decoded.  Whole keys
    are not compared, since among equal values they order the witnesses and
    would pick a later point on a tie."""
    radix = table._witness_radix
    i = _first_least([-(-key // radix) for key in keys])
    value, alpha = table.decode(keys[i])
    return ValuationReport(value, support[i], alpha, None)


def nu_quasi(table: NuTable, f: Expr) -> ValuationReport:
    """nu(f): minimum over the support of the per-point maxima, the first
    minimal support point its witness; only the winner's key is decoded."""
    if f.is_zero():
        return ValuationReport(INFINITY, None, None, None)
    return _nu_report(table, f.support, [_semigroup_key(table, u) for u in f.support])


def _gap(table: NuTable, plm: PiecewiseLinearMap, row: tuple, key: int) -> tuple:
    """The int row of nu(f_u) - V(f_u), over D times the scales, from u's
    ``value_row`` and key: D * nu_int - V_int, row by row."""
    return tuple(plm.denominator * a - b for a, b in zip(table.values(key), row))


def delta_point(table: NuTable, plm: PiecewiseLinearMap, u: tuple) -> LexVec:
    row, _ = value_row(plm, u)
    return plm.value(_gap(table, plm, row, _semigroup_key(table, u)))


def valuate(table: NuTable, plm: PiecewiseLinearMap, f: Expr) -> tuple:
    """The reports of V(f), nu(f) and delta(f) = min over the support of
    nu(f_u) - V(f_u), from one pass over the support on ints.  Every point
    is checked against the cone over P and gets its V row first, so a point
    off the cone fails before any key is read (a SchemaError before a
    DegreeOverflow); then every point gets its key.  Each report's witness
    is the first minimal support point, and each value is built once.  The
    table and the map must come from the same Psi; the delta report is
    None for the zero expression."""
    if f.is_zero():
        none = ValuationReport(INFINITY, None, None, None)
        return none, none, None
    support = f.support
    rows = [value_row(plm, u) for u in support]
    keys = [_semigroup_key(table, u) for u in support]
    gaps = [_gap(table, plm, row, key) for (row, _), key in zip(rows, keys)]
    i = _first_least(gaps)
    return (
        _v_report(plm, support, rows),
        _nu_report(table, support, keys),
        ValuationReport(plm.value(gaps[i]), support[i], None, None),
    )


def delta(table: NuTable, plm: PiecewiseLinearMap, f: Expr) -> LexVec:
    """min over the support of nu(f_u) - V(f_u); always <= 0."""
    if f.is_zero():
        raise ValueError("delta of the zero expression")
    return valuate(table, plm, f)[2].value


class DeltaImage(NamedTuple):
    values: frozenset  # of LexVec
    per_cell: tuple  # per cell: frozenset of values of points in that cone


def delta_image(
    cfg: PointConfig, psi: WeightMatrix, plm: PiecewiseLinearMap, bound: int
) -> DeltaImage:
    """The image of delta on semigroup elements of degree <= bound, and per
    cell the values on its positive-degree ``cell_semigroup``."""
    elems = semigroup_up_to(cfg, bound)
    table = NuTable(cfg, psi, bound)
    image = {u: delta_point(table, plm, u) for u in elems}
    positive = [u for u in elems if u[0] > 0]
    return DeltaImage(
        values=frozenset(image.values()),
        per_cell=tuple(
            frozenset(image[positive[i]] for i in cell_semigroup(cfg, cell, positive))
            for cell in plm.subdivision.cells
        ),
    )


# ---------------------------------------------------------------------------
# cell monoids and the stretch factor
# ---------------------------------------------------------------------------

def in_cell_cone(cfg: PointConfig, u: tuple, cell: MarkedCell) -> bool:
    """Whether u = (d, *eta) lies in the cone over the cell."""
    return hull_of(tuple(cfg.points[i] for i in cell.vertices)).cone.contains(u)


def in_SQ1(q: Submonoid, u: tuple) -> bool:
    """Membership of u = (d, *eta) in a layered submonoid, such as the
    marked submonoid S¹_Q generated by a cell's marked points."""
    return u[0] >= 0 and u[1:] in q.layer(u[0])


def cell_semigroup(cfg: PointConfig, cell: MarkedCell, vectors: Sequence[tuple]) -> list[int]:
    """S_Q among the given points, each a vector (d, *eta): the indices of
    those in the cone over Q, in order.  The hull is taken once, and each of
    its cone's equation and facet normals n is tested on all points still
    kept in one pass: n.u on exact ints, as ``PolyCone.contains`` computes
    it, must be 0 for an equation and <= 0 for a facet."""
    cone = hull_of(tuple(cfg.points[i] for i in cell.vertices)).cone
    if any(len(v) != cone.dim for v in vectors):
        raise DimensionError("point length != ambient dimension")
    tests = [(n, partial(eq, 0)) for n in cone.eq_normals]
    tests += [(n, partial(ge, 0)) for n in cone.ineq_normals]
    kept = range(len(vectors))
    for n, holds in tests:
        keep = list(map(holds, map(sum, map(partial(map, mul, n), vectors))))
        kept = list(itertools.compress(kept, keep))
        vectors = list(itertools.compress(vectors, keep))
    return list(kept)


def class_masks(n: int, comps) -> list:
    """The bitmask of each of n classes: bit ci set when comps[ci] holds it."""
    masks = [0] * n
    for ci, comp in enumerate(comps):
        for i in comp:
            masks[i] |= 1 << ci
    return masks


class TruncatedSemigroup:
    """The semigroup of a configuration up to a degree bound, with the pieces
    that the presentations of one subdivision read: the basis, the cell
    semigroups S_Q and the cells of each class, the marked submonoids S¹_Q
    and the search limit of ``least_multiple``, each class by its index in
    the basis.  Each is computed once, on first read; create one per
    computation and pass it around."""

    def __init__(self, cfg: PointConfig, s: MarkedSubdivision, bound: int):
        self.cfg, self.s, self.bound = cfg, s, bound

    @cached_property
    def basis(self) -> tuple:
        """Each class of degree <= bound as its vector (d, *eta), sorted."""
        return tuple(semigroup_up_to(self.cfg, self.bound))

    @cached_property
    def index(self) -> dict:
        """The class of each basis vector."""
        return {v: i for i, v in enumerate(self.basis)}

    @cached_property
    def cell_semigroups(self) -> tuple:
        return tuple(
            tuple(cell_semigroup(self.cfg, cell, self.basis)) for cell in self.s.cells
        )

    @cached_property
    def cell_masks(self) -> list:
        """The cells whose cone holds each class, as a bitmask."""
        return class_masks(len(self.basis), self.cell_semigroups)

    @cached_property
    def marked(self) -> tuple:
        """The marked submonoid S¹_Q of each cell, generated by its marking."""
        return tuple(Submonoid(self.cfg, cell.marking) for cell in self.s.cells)

    @cached_property
    def multiple_limit(self) -> int:
        """dim! * vol(P), the normalized volume of the configuration
        (``config.volume``)."""
        return volume(self.cfg.points)

    @cached_property
    def equidimensional(self) -> bool:
        """Whether every cell spans the dimension of the configuration."""
        hulls = (hull_of(tuple(self.cfg.points[i] for i in c.vertices)) for c in self.s.cells)
        return all(h.intrinsic_dim == self.cfg.dim for h in hulls)


def least_multiple(t: TruncatedSemigroup, i: int) -> int:
    """The least k >= 1 with k*u in some marked submonoid S¹_Q, for the basis
    class u of index i.

    Only the cells whose cone holds u are searched, read off
    ``t.cell_masks``: S¹_Q lies in the cone over Q, and k*u lies there only
    if u does.  The search stops at the normalized volume dim! * vol(P)
    (``t.multiple_limit``), which it never reaches when every cell marks its
    vertices: u lies in the cone over some cell, hence over a simplex of
    that cell's vertices.  Its barycentric coordinates there are ratios of
    integer determinants over the simplex's determinant, its normalized
    volume, at most that of P, so that multiple of u is a nonnegative
    integer combination of marked vertices.  ValueError names u when no
    multiple up to the limit lands in a marked submonoid."""
    u, mask = t.basis[i], t.cell_masks[i]
    layers = [q.layer for ci, q in enumerate(t.marked) if mask >> ci & 1]
    for k in range(1, t.multiple_limit + 1):
        scaled = tuple(k * c for c in u[1:])
        if any(scaled in layer(k * u[0]) for layer in layers):
            return k
    raise ValueError(
        f"no multiple k*u, k <= {t.multiple_limit}, of point {u} lies in a marked"
        " submonoid; does every cell mark its vertices?"
    )


def stretch_factor(t: TruncatedSemigroup) -> int:
    """A positive integer l, not always the least, with l*u in some marked
    submonoid for every basis class u up to the bound: the lcm of their least
    multiples, which every nilpotent witness of ``gr_nu_reduced`` divides."""
    return lcm(*(least_multiple(t, i) for i in range(len(t.basis))))


# ---------------------------------------------------------------------------
# power sequences and accumulation
# ---------------------------------------------------------------------------

def power_seq(table: NuTable, f: Expr, window: int = 8) -> list[tuple[int, LexVec]]:
    """The exact sequence nu(f^l)/l for l = 1..window, by branch and bound
    (Land & Doig 1960) on nu(fg) >= nu(f) + nu(g).  A key is linear in
    alpha, so each point p of f^l has as lower bound the largest bound of q
    plus key of w over the products q + w that make it, the key of one of
    its representatives; its exact key, once read, replaces the bound.  The
    terms of f are keyed once, at l = 1, in sorted order, so an error names
    the point nu_quasi(table, f) would; every later point has a bound.  The
    points of f^l are read in increasing bound order until the next bound's
    value part is no less than the least value found."""
    if f.is_zero():
        raise SchemaError("power sequence of the zero expression")
    max_deg = max(u[0] for u in f.support)
    if window * max_deg > table.bound:
        raise DegreeOverflow(
            f"power {window} needs degree {window * max_deg} > bound {table.bound}"
        )
    radix = table._witness_radix
    # f^l as {point vector: int coefficient}: f's coefficients times the
    # lcm of their denominators, a positive scaling that keeps the support
    # and makes every cancellation an exact int sum; each term with its key
    scale = lcm(*(c.denominator for _, c in f.terms))
    base = [
        (u, c.numerator * (scale // c.denominator), _semigroup_key(table, u))
        for u, c in f.terms
    ]
    current = {v: c for v, c, _ in base}
    # point -> a lower bound on its key, the key of one of its representatives
    lower = {v: k for v, _, k in base}
    out = []
    for ell in range(1, window + 1):
        if ell > 1:
            product, bound = defaultdict(int), {}
            for v, c in current.items():
                kv = lower[v]
                for w, e, kw in base:
                    p = tuple(map(add, v, w))
                    product[p] += c * e
                    b = kv + kw
                    if bound.get(p, b - 1) < b:
                        bound[p] = b
            current = {v: c for v, c in product.items() if c}
            lower = {v: bound[v] for v in current}
        least = INFINITY
        for v in sorted(lower, key=lower.get):
            if -(-lower[v] // radix) >= least:
                break
            if ell > 1:  # at l = 1 a bound is f's own key
                lower[v] = _semigroup_key(table, v)
            least = min(least, -(-lower[v] // radix))
        # l * v_l = nu(f^l) as its int row; one LexVec per l
        row = table.values(least * radix)
        out.append((ell, LexVec(Fraction(x, ell * s) for x, s in zip(row, table._scales))))
    return out


class AccumulationReport(NamedTuple):
    """The accumulation candidates of a finite window, with no claim beyond
    it; ``liminf`` is the lex-least of them, None when there is none."""

    candidates: frozenset  # of LexVec (limits of exact affine-in-1/l fits)

    @property
    def liminf(self) -> Optional[LexVec]:
        return min(self.candidates, default=None)


def windowed_accumulation(seq: Sequence[tuple[int, LexVec]]) -> AccumulationReport:
    """Accumulation candidates from the finite window: on every arithmetic
    index progression (step <= 4) keep c when its last three terms fit
    v_l = c + b/l exactly."""
    candidates = set()
    # v_l = c + b/l iff N_l = l*v_l = c*l + b, so c is kept iff the points
    # (l, N_l) are collinear, and it is their slope.  Row i of every N_l is
    # kept as an int over S_i, the lcm of the denominators of row i in the
    # window, so the test and the slopes run on ints
    dens = [lcm(*(x.denominator for x in col)) for col in zip(*(v for _, v in seq))]
    scaled = {
        l: [x.numerator * (s // x.denominator) * l for x, s in zip(v, dens)] for l, v in seq
    }
    indices = sorted(scaled)
    for step in range(1, 5):
        for offset in range(step):
            sub = [l for l in indices if l % step == offset]
            if len(sub) < 3:
                continue
            l0, l1, l2 = sub[-3:]
            n0, n1, n2 = scaled[l0], scaled[l1], scaled[l2]
            if all(
                (c - b) * (l1 - l0) == (b - a) * (l2 - l1)
                for a, b, c in zip(n0, n1, n2)
            ):
                candidates.add(
                    LexVec(Fraction(c - b, (l2 - l1) * s) for b, c, s in zip(n1, n2, dens))
                )
    return AccumulationReport(candidates=frozenset(candidates))


def stack(cfg: PointConfig, psi: WeightMatrix) -> WeightMatrix:
    """Append the homogenized coordinate rows (degree row, then the ambient
    coordinates) as least-significant rows; the induced subdivision is
    unchanged and the resulting map is injective."""
    rows = list(psi.rows)
    rows.append(tuple(Fraction(1) for _ in range(cfg.r)))
    for k in range(cfg.dim):
        rows.append(tuple(Fraction(p[k]) for p in cfg.points))
    stacked = WeightMatrix(rows=tuple(rows))
    if subdivide(cfg, stacked) != subdivide(cfg, psi):
        raise InvariantError("stacking changed the induced subdivision")
    return stacked
