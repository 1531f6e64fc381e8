"""The graded semigroup of a configuration and its two quasi-valuations.

V: minimum of the piecewise-linear map over the support of a function.
nu: per graded point the maximum of Psi.alpha over all monomial
    representatives, then the minimum over the support.
Their difference delta is <= 0 with finite image at any bounded degree, and
V is recovered from nu by stretching (the radicalization).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import add, le, sub
from typing import Iterable, Optional, Sequence

from lexfan.config import (
    MarkedCell,
    MarkedSubdivision,
    PointConfig,
    hull_of,
)
from lexfan.errors import DegreeOverflow, DimensionError, InvariantError, SchemaError
from lexfan.exactlex import INFINITY, LexVec, WeightMatrix, rat
from lexfan.gkzfan import PiecewiseLinearMap, cell_value, g_eval, subdivide
from lexfan.linalg import rank, solve


# ---------------------------------------------------------------------------
# graded points and expressions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GradedPoint:
    """An element u = (degree, character) of the semigroup generated by the
    homogenized configuration points."""

    d: int
    eta: tuple

    def __post_init__(self):
        object.__setattr__(self, "eta", tuple(int(c) for c in self.eta))

    def __add__(self, other: "GradedPoint") -> "GradedPoint":
        return GradedPoint(self.d + other.d, tuple(a + b for a, b in zip(self.eta, other.eta)))

    def scaled(self, k: int) -> "GradedPoint":
        return GradedPoint(self.d * k, tuple(k * c for c in self.eta))

    @property
    def vector(self) -> tuple:
        return (self.d,) + self.eta


@dataclass(frozen=True)
class Expr:
    """A finite rational combination of basis functions f_u; zero
    coefficients are never stored."""

    terms: tuple  # of (GradedPoint, Fraction), sorted

    @staticmethod
    def from_terms(pairs: Iterable[tuple]) -> "Expr":
        acc: dict[GradedPoint, Fraction] = {}
        for u, c in pairs:
            c = rat(c)
            if c == 0:
                continue
            acc[u] = acc.get(u, Fraction(0)) + c
        items = tuple(
            sorted(((u, c) for u, c in acc.items() if c != 0), key=lambda t: t[0].vector)
        )
        return Expr(terms=items)

    @staticmethod
    def basis(u: GradedPoint) -> "Expr":
        return Expr.from_terms([(u, 1)])

    @property
    def support(self) -> tuple:
        return tuple(u for u, _ in self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __mul__(self, other: "Expr") -> "Expr":
        pairs = []
        for u, cu in self.terms:
            for w, cw in other.terms:
                pairs.append((u + w, cu * cw))
        return Expr.from_terms(pairs)

    def power(self, k: int) -> "Expr":
        if k < 1:
            raise ValueError(f"power exponent must be at least 1, got {k}")
        out = self
        for _ in range(k - 1):
            out = out * self
        return out

    def support_vertices(self) -> tuple:
        """Vertices of the support polytope (the valuation minimum over the
        support is attained there)."""
        if not self.terms:
            return ()
        pts = tuple(u.vector for u in self.support)
        h = hull_of(pts)
        return tuple(self.support[i] for i in h.vertices)


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


def semigroup_up_to(cfg: PointConfig, bound: int) -> list[GradedPoint]:
    """All semigroup elements of degree <= bound, by layered sums, sorted by
    (degree, character)."""
    if bound < 0:
        raise ValueError("degree bound must be nonnegative")
    whole = Submonoid(cfg, range(cfg.r))
    return [GradedPoint(d, eta) for d in range(bound + 1) for eta in sorted(whole.layer(d))]


def rep_set(cfg: PointConfig, u: GradedPoint) -> list[tuple]:
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

    walk(0, u.d, u.eta, [])
    return out


# ---------------------------------------------------------------------------
# valuations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ValuationReport:
    value: object  # LexVec or INFINITY
    witness_point: Optional[GradedPoint]
    witness_alpha: Optional[tuple]  # for nu: maximizing exponent vector
    witness_cell: Optional[int]  # for V: a cell where g attains the value


def v_quasi(plm: PiecewiseLinearMap, f: Expr, use_vertices: bool = False) -> ValuationReport:
    """V(f): lexicographic minimum of the piecewise-linear map over the
    support (vertices of the support polytope suffice)."""
    if f.is_zero():
        return ValuationReport(INFINITY, None, None, None)
    points = f.support_vertices() if use_vertices else f.support
    best, best_u = None, None
    for u in points:
        val = g_eval(plm, u.vector)
        if best is None or val < best:
            best, best_u = val, u
    cell = next(
        ci
        for ci in range(len(plm.subdivision.cells))
        if cell_value(plm, ci, best_u.vector) == best
    )
    return ValuationReport(best, best_u, None, cell)


class NuTable:
    """nu(f_u) = max over the fibre of u of Psi.alpha, for the graded points
    of one configuration under one weight matrix, by dynamic programming
    over the semigroup layers: nu(u) is the best over the points a_j of
    nu(u - a_j) + Psi e_j, so each point costs one lookup per configuration
    point once the points below it are known.  Points are filled only below
    the ones asked for, and each is computed once for the life of the table.

    The witness is the lex-smallest maximizing alpha (the first maximizer in
    ``rep_set`` order): among the candidates beta + e_j, where beta is the
    witness below, ties go to the smaller alpha, which is exact because
    adding e_j keeps lex order.  Values are kept as integer tuples: each row
    of Psi is scaled by the lcm of its denominators, a positive row scaling,
    which keeps lex order."""

    def __init__(self, cfg: PointConfig, psi: WeightMatrix):
        if psi.n_cols != cfg.r:
            raise DimensionError(
                f"matrix has {psi.n_cols} columns, configuration has {cfg.r} points"
            )
        self._dim = cfg.dim
        self._scales = tuple(lcm(*(x.denominator for x in row)) for row in psi.rows)
        self._steps = tuple(
            (
                j,
                p,
                tuple(
                    row[j].numerator * (s // row[j].denominator)
                    for row, s in zip(psi.rows, self._scales)
                ),
            )
            for j, p in enumerate(cfg.points)
        )
        self._lo = tuple(min(c) for c in zip(*cfg.points))
        self._hi = tuple(max(c) for c in zip(*cfg.points))
        zero = (0,) * cfg.dim
        # (d, eta) -> (integer value, alpha), or None outside the semigroup
        self._memo = {(0, zero): ((0,) * psi.n_rows, (0,) * cfg.r)}

    def best(self, u: GradedPoint) -> Optional[tuple[LexVec, tuple]]:
        """(nu(f_u), witness alpha), or None when u is not in the semigroup."""
        if len(u.eta) != self._dim:
            raise DimensionError(f"{u} has a character of length {len(u.eta)}, not {self._dim}")
        key = (u.d, u.eta)
        if key not in self._memo:
            self._fill(key)
        found = self._memo[key]
        if found is None:
            return None
        val, alpha = found
        return LexVec(Fraction(v, s) for v, s in zip(val, self._scales)), alpha

    def _fill(self, key: tuple) -> None:
        """Fill the memo at key and at every point below it that it needs:
        layer by layer down to the known points, then back up (a loop over
        degrees, so no recursion grows with the degree).  A point whose
        character lies outside d times the bounding box of the
        configuration is not in the semigroup and is not visited."""
        memo = self._memo
        below_of = {}  # point -> its visited points one degree lower
        layers = [[key]]
        for d in range(key[0] - 1, -1, -1):
            lo = tuple(d * c for c in self._lo)
            hi = tuple(d * c for c in self._hi)
            layer = {}
            for v in layers[-1]:
                below = below_of[v] = []
                for j, p, col in self._steps:
                    eta = tuple(map(sub, v[1], p))
                    w = (d, eta)
                    if w not in memo and w not in layer:
                        if not all(map(le, lo, eta)) or not all(map(le, eta, hi)):
                            continue
                        layer[w] = None
                    below.append((j, col, w))
            if not layer:
                break
            layers.append(list(layer))
        for layer in reversed(layers):
            for v in layer:
                best = None
                for j, col, w in below_of.get(v, ()):
                    found = memo[w]
                    if found is None:
                        continue
                    val = tuple(map(add, found[0], col))
                    if best is not None and val < best[0]:
                        continue
                    alpha = found[1][:j] + (found[1][j] + 1,) + found[1][j + 1:]
                    if best is None or val > best[0] or alpha < best[1]:
                        best = (val, alpha)
                memo[v] = best


def nu_point(table: NuTable, u: GradedPoint, degree_bound: int = 12) -> tuple[LexVec, tuple]:
    """nu(f_u) = max over representatives alpha of Psi.alpha, with witness."""
    if u.d > degree_bound:
        raise DegreeOverflow(f"degree {u.d} exceeds bound {degree_bound}")
    found = table.best(u)
    if found is None:
        raise SchemaError(f"{u} is not in the semigroup")
    return found


def nu_quasi(table: NuTable, f: Expr, degree_bound: int = 12) -> ValuationReport:
    """nu(f): minimum over the support of the per-point maxima."""
    if f.is_zero():
        return ValuationReport(INFINITY, None, None, None)
    best = None
    best_u = best_alpha = None
    for u in f.support:
        val, alpha = nu_point(table, u, degree_bound)
        if best is None or val < best:
            best, best_u, best_alpha = val, u, alpha
    return ValuationReport(best, best_u, best_alpha, None)


def delta_point(
    table: NuTable, plm: PiecewiseLinearMap, u: GradedPoint, degree_bound: int = 12
) -> LexVec:
    nu_val, _ = nu_point(table, u, degree_bound)
    return nu_val - g_eval(plm, u.vector)


def delta(
    table: NuTable, plm: PiecewiseLinearMap, f: Expr, degree_bound: int = 12
) -> LexVec:
    """min over the support of nu(f_u) - V(f_u); always <= 0."""
    if f.is_zero():
        raise ValueError("delta of the zero expression")
    return min(delta_point(table, plm, u, degree_bound) for u in f.support)


@dataclass(frozen=True)
class DeltaImage:
    values: frozenset  # of LexVec
    per_cell: tuple  # per cell: frozenset of values of points in that cone


def delta_image(
    cfg: PointConfig,
    psi: WeightMatrix,
    plm: PiecewiseLinearMap,
    bound: int,
    reverse: bool = False,
) -> DeltaImage:
    """The image of delta on semigroup elements of degree <= bound; the
    enumeration order is switchable so stability can be tested."""
    elems = semigroup_up_to(cfg, bound)
    if reverse:
        elems = list(reversed(elems))
    values = set()
    per_cell: list[set] = [set() for _ in plm.subdivision.cells]
    hulls = [
        hull_of(tuple(cfg.points[i] for i in c.vertices))
        for c in plm.subdivision.cells
    ]
    table = NuTable(cfg, psi)
    for u in elems:
        val = delta_point(table, plm, u, degree_bound=bound)
        values.add(val)
        for ci, h in enumerate(hulls):
            if u.d > 0 and h.cone.contains(u.vector):
                per_cell[ci].add(val)
    return DeltaImage(
        values=frozenset(values), per_cell=tuple(frozenset(s) for s in per_cell)
    )


# ---------------------------------------------------------------------------
# cell monoids and the stretch factor
# ---------------------------------------------------------------------------

def in_cell_cone(cfg: PointConfig, u: GradedPoint, cell: MarkedCell) -> bool:
    """Whether u lies in the cone over the cell."""
    return hull_of(tuple(cfg.points[i] for i in cell.vertices)).cone.contains(u.vector)


def _bounded_combination(
    cfg: PointConfig, u: GradedPoint, indices: Sequence[int]
) -> Optional[tuple]:
    """A nonnegative-integer combination of the homogenized points at the
    given indices equal to u, if one exists (exact degree knapsack).  The
    membership oracle that tests check ``Submonoid`` against."""
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


def in_SQ1(q: Submonoid, u: GradedPoint) -> bool:
    """Membership in a layered submonoid, such as the marked submonoid S¹_Q
    generated by a cell's marked points."""
    return u.d >= 0 and u.eta in q.layer(u.d)


def in_any_SQ1(qs: Iterable[Submonoid], u: GradedPoint) -> bool:
    return any(in_SQ1(q, u) for q in qs)


def cell_semigroup(
    cfg: PointConfig, cell: MarkedCell, elems: Iterable[GradedPoint]
) -> list[GradedPoint]:
    """S_Q among the given semigroup elements: those in the cone over Q."""
    return [u for u in elems if in_cell_cone(cfg, u, cell)]


class TruncatedSemigroup:
    """The semigroup of a configuration up to a degree bound, with the pieces
    that the presentations of one subdivision read: the basis and the cell
    semigroups S_Q.  Each is computed once, on first read; create one per
    computation and pass it around."""

    def __init__(self, cfg: PointConfig, s: MarkedSubdivision, bound: int):
        self.cfg, self.s, self.bound = cfg, s, bound

    @cached_property
    def basis(self) -> tuple:
        return tuple(semigroup_up_to(self.cfg, self.bound))

    @cached_property
    def cell_semigroups(self) -> tuple:
        return tuple(
            tuple(cell_semigroup(self.cfg, cell, self.basis)) for cell in self.s.cells
        )


def _cell_generators(elems: Sequence[GradedPoint]) -> list[GradedPoint]:
    """Elements of S_Q (degree <= bound) that are not sums of two smaller
    S_Q elements; a generating set up to the bound."""
    in_sq = set(u.vector for u in elems)
    gens = []
    for u in elems:
        if u.d == 0:
            continue
        decomposable = False
        for v in elems:
            if v.d == 0 or v.d >= u.d or v == u:
                continue
            w = GradedPoint(u.d - v.d, tuple(a - b for a, b in zip(u.eta, v.eta)))
            if w.vector in in_sq:
                decomposable = True
                break
        if not decomposable:
            gens.append(u)
    return gens


def _barycentric_denominator(
    cfg: PointConfig, u: GradedPoint, marking: Sequence[int]
) -> int:
    """lcm of the denominators of some nonnegative rational expression of u
    in the homogenized marked points (first basic feasible solution)."""
    cols = [cfg.homogenized(i) for i in marking]
    n = cfg.n
    target = u.vector
    for support in itertools.combinations(range(len(cols)), min(n, len(cols))):
        mat = [[cols[j][k] for j in support] for k in range(n)]
        if rank(mat) != min(n, len(cols)):
            continue
        coeff = solve(mat, target)
        if coeff is None or any(c < 0 for c in coeff):
            continue
        return lcm(*(c.denominator for c in coeff)) if coeff else 1
    raise ValueError(f"{u} is not a nonnegative combination of the marked points")


def stretch_factor(t: TruncatedSemigroup) -> int:
    """A positive integer l with l*u in some marked submonoid for every
    semigroup element u (valid but not necessarily minimal): the lcm of the
    barycentric denominators of the per-cell generators up to the bound."""
    factor = 1
    for cell, elems in zip(t.s.cells, t.cell_semigroups):
        for g in _cell_generators(elems):
            factor = lcm(factor, _barycentric_denominator(t.cfg, g, cell.marking))
    return factor


# ---------------------------------------------------------------------------
# power sequences, accumulation, elementarity, full rank
# ---------------------------------------------------------------------------

def power_seq(
    table: NuTable,
    f: Expr,
    window: int = 8,
    degree_bound: int = 12,
    start: int = 1,
) -> list[tuple[int, LexVec]]:
    """The exact sequence nu(f^l)/l for l = start..window."""
    if f.is_zero():
        raise SchemaError("power sequence of the zero expression")
    max_deg = max(u.d for u in f.support)
    if window * max_deg > degree_bound:
        raise DegreeOverflow(
            f"power {window} needs degree {window * max_deg} > bound {degree_bound}"
        )
    out = []
    current = f
    for ell in range(1, window + 1):
        if ell > 1:
            current = current * f
        if ell >= start:
            rep = nu_quasi(table, current, degree_bound)
            out.append((ell, rep.value * Fraction(1, ell)))
    return out


@dataclass(frozen=True)
class AccumulationReport:
    candidates: frozenset  # of LexVec (limits of exact affine-in-1/l fits)
    liminf: Optional[LexVec]  # lex-min candidate
    windowed: bool  # always True: no claim beyond the window


def windowed_accumulation(seq: Sequence[tuple[int, LexVec]]) -> AccumulationReport:
    """Accumulation candidates from the finite window: on every arithmetic
    index progression (step <= 4) fit v_l = c + b/l exactly from the last two
    terms and keep c when the last three or more terms agree with the fit."""
    candidates = set()
    by_index = dict(seq)
    indices = sorted(by_index)
    for step in range(1, 5):
        for offset in range(step):
            sub = [l for l in indices if l % step == offset]
            if len(sub) < 3:
                continue
            l1, l2 = sub[-2], sub[-1]
            v1, v2 = by_index[l1], by_index[l2]
            # solve c + b/l1 = v1, c + b/l2 = v2 componentwise
            b = (v1 - v2) * Fraction(l1 * l2, l2 - l1)
            c = v1 - b * Fraction(1, l1)
            tail = sub[-3:]
            if all(by_index[l] == c + b * Fraction(1, l) for l in tail):
                candidates.add(c)
    liminf = min(candidates) if candidates else None
    return AccumulationReport(
        candidates=frozenset(candidates), liminf=liminf, windowed=True
    )


def is_elementary(plm: PiecewiseLinearMap, psi: WeightMatrix, f: Expr) -> bool:
    """A unique support point strictly minimizes the first-nonzero-row
    component of V."""
    k = next((i for i, row in enumerate(psi.rows) if any(x != 0 for x in row)), None)
    if k is None:
        raise ValueError("zero weight matrix has no leading row")
    if f.is_zero():
        raise ValueError("elementarity of the zero expression")
    vals = [g_eval(plm, u.vector)[k] for u in f.support]
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
    seen: dict[tuple, GradedPoint] = {}
    for u in semigroup_up_to(cfg, bound):
        val = tuple(g_eval(plm, u.vector))
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
    from lexfan.config import is_triangulation

    if not is_triangulation(cfg, s):
        raise ValueError("geometric full-rank test requires a triangulation")
    for ca, cb in itertools.combinations_with_replacement(s.cells, 2):
        idxs = sorted(set(ca.marking) | set(cb.marking))
        cols = [[psi.rows[k][i] for i in idxs] for k in range(psi.n_rows)]
        if rank(cols) != len(idxs):
            return False
    return True


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
