"""Brute-force oracles that the tests check the library's fast paths
against: fiber optima by basic feasible solutions, cell maps by one solve
per affine basis and the piecewise-linear map evaluated on them in
Fractions, semigroup membership by an exact knapsack, cell-cone
membership and the cells searched by a least multiple point by point, the
Euclidean closure of a lex-matrix cone, the lex sign of Psi . u that
``gkzfan.closed_member``'s sign ledger reads off int rows, the refinement
poset pair by pair, a rank-k weight matrix flattened to one row, candidate
cells and volumes by hulls, proper meeting of two cells by circuits and the
cover search that tests it pair by pair, and the face-lattice invariants of
a whole ``fan`` output.  No command or script uses them.

``python tests/oracles.py CONFIG FAN_JSON`` checks a ``fan`` output against
the invariants (``fan_invariant_violations``) and exits 1 if one fails."""

from __future__ import annotations

import itertools
import json
import sys
from fractions import Fraction
from typing import Optional, Sequence

from lexfan.cones import PolyCone
from lexfan.config import MarkedCell, MarkedSubdivision, PointConfig, hull_of
from lexfan.errors import BudgetExceeded, DimensionError, InvariantError, SchemaError
from lexfan.exactlex import LexVec, WeightMatrix, rat
from lexfan.gkzfan import circuits
from lexfan.linalg import dot, echelon, nullspace, primitive, rank, solve
from lexfan.quasival import GradedPoint, TruncatedSemigroup, in_cell_cone, in_SQ1


def combination_basis(cfg: PointConfig, indices) -> Optional[tuple]:
    """The first affinely independent (dim+1)-subset in lex order."""
    for combo in itertools.combinations(sorted(indices), cfg.n):
        if rank([cfg.homogenized(i) for i in combo]) == cfg.n:
            return combo
    return None


def cell_maps_by_solve(
    cfg: PointConfig, s: MarkedSubdivision, psi: WeightMatrix
) -> tuple:
    """The cell maps of ``gkzfan.linear_extension``: per cell, one solve per
    row of Psi on the lex-first affine basis of the marking, then a check
    that the map takes the height at every marked point."""
    maps = []
    for cell in s.cells:
        basis = combination_basis(cfg, cell.marking)
        if basis is None:
            raise InvariantError(f"cell {cell.vertices}: marking contains no affine basis")
        mat = [cfg.homogenized(i) for i in basis]
        rows = tuple(
            tuple(solve(mat, [psi.rows[k][i] for i in basis])) for k in range(psi.n_rows)
        )
        for i in cell.marking:
            if LexVec(dot(row, cfg.homogenized(i)) for row in rows) != psi.column(i):
                raise ValueError(f"heights not affine on cell {cell.vertices} (point {i})")
        maps.append(rows)
    return tuple(maps)


def value_by_cells(cfg: PointConfig, maps: tuple, w: Sequence) -> tuple[LexVec, int]:
    """g(w) on Fractions: per cell of ``maps`` (``cell_maps_by_solve``) one
    dot product per row, the lex-least value and the first cell taking it;
    SchemaError, with ``gkzfan.g_eval``'s message, off the cone over the
    configuration."""
    if not hull_of(cfg.points).cone.contains(w):
        raise SchemaError(f"point {tuple(w)} outside the cone over the configuration")
    values = [LexVec(dot(row, w) for row in rows) for rows in maps]
    best = min(values)
    return best, values.index(best)


def fiber_value(cfg: PointConfig, psi: WeightMatrix, w: Sequence) -> Optional[LexVec]:
    """Lex-max of Psi.lambda over the fiber polytope
    {lambda >= 0 : sum lambda_j (1, chi_j) = w}, by enumerating its vertices
    as basic feasible solutions.  None if the fiber is empty."""
    if all(x == 0 for x in w):
        return LexVec([0] * psi.n_rows)
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


def bounded_combination(
    cfg: PointConfig, u: GradedPoint, indices: Sequence[int]
) -> Optional[tuple]:
    """A nonnegative-integer combination of the homogenized points at the
    given indices equal to u, if one exists (exact degree knapsack): the
    membership oracle for ``quasival.Submonoid``."""
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


def cell_semigroup_by_contains(
    cfg: PointConfig, cell: MarkedCell, elems: Sequence[GradedPoint]
) -> list[GradedPoint]:
    """``quasival.cell_semigroup`` point by point: the elements whose vector
    ``PolyCone.contains`` puts in the cone over the cell."""
    cone = hull_of(tuple(cfg.points[i] for i in cell.vertices)).cone
    return [u for u in elems if cone.contains(u.vector)]


def least_multiple_by_cones(t: TruncatedSemigroup, u: GradedPoint) -> int:
    """``quasival.least_multiple`` with the cells whose cone holds u found
    by ``in_cell_cone``, cell by cell."""
    marked = [q for q, cell in zip(t.marked, t.s.cells) if in_cell_cone(t.cfg, u, cell)]
    for k in range(1, t.multiple_limit + 1):
        if any(in_SQ1(q, u.scaled(k)) for q in marked):
            return k
    raise ValueError(f"no multiple k*u with k <= {t.multiple_limit} of u = {u}")


def lex_sign(a: Sequence[Fraction]) -> int:
    """Sign of a vector under the lexicographic order: -1, 0 or +1."""
    for x in a:
        if x < 0:
            return -1
        if x > 0:
            return 1
    return 0


def mat_vec(psi: WeightMatrix, u: Sequence) -> LexVec:
    """Psi . u as a LexVec (the bilinear pairing of matrix space with Q^r)."""
    if len(u) != psi.n_cols:
        raise DimensionError(f"matrix has {psi.n_cols} columns, vector length {len(u)}")
    # ints multiply the Fraction rows as they are; zero entries drop out
    uu = [(j, x if type(x) is int else rat(x)) for j, x in enumerate(u)]
    uu = [(j, x) for j, x in uu if x]
    return LexVec(sum(row[j] * x for j, x in uu) for row in psi.rows)


def euclidean_closure(mu) -> PolyCone:
    """The topological closure of a ``paper.MuCone`` as an ordinary
    polyhedral cone in Q^(N*r): rows constrained to the span of the
    co-polar's normals, the most-significant row obeying the co-polar's
    inequalities.  Its dimension independently recomputes mu_dim."""
    c = mu.copolar_cone
    n, r = mu.n_rank, c.dim
    eqs = []
    for i in range(n):
        for b in c.lines:  # rows must be orthogonal to the lineality space
            v = [0] * (n * r)
            v[i * r : (i + 1) * r] = b
            eqs.append(tuple(v))
    ineqs = []
    for g in c.rays:  # top row pairs <= 0 against the pointed generators
        v = [0] * (n * r)
        v[0:r] = g
        ineqs.append(tuple(v))
    return PolyCone.from_normals(n * r, ineqs=ineqs, eqs=eqs)


def flattened(cfg: PointConfig, psi: WeightMatrix) -> WeightMatrix:
    """The one-row matrix h = sum_i eps^(i-1) Psi_i, rows scaled to coprime
    ints, with eps = 1/(M+2) and M the largest |Psi_i . z| over the primitive
    integer circuits z of cfg.  A nonzero Psi_i . z is at least 1 in size and
    the later rows add less than eps^(i-1) (M eps < 1 - eps), so
    sign(h . z) = lexsign(Psi . z) on every circuit; those signs fix the
    marked regular subdivision, so ``subdivide`` must give the same one for
    h as for Psi."""
    rows = [primitive(r) for r in psi.rows]
    m = 0
    for pos, neg in circuits(cfg):
        idxs = [i for i in range(cfg.r) if (pos | neg) >> i & 1]
        (kernel,) = nullspace([[cfg.homogenized(i)[c] for i in idxs] for c in range(cfg.n)])
        z = [0] * cfg.r
        for i, x in zip(idxs, primitive(kernel)):
            z[i] = x
        m = max([m, *(abs(dot(row, z)) for row in rows)])
    eps = Fraction(1, m + 2)
    h = tuple(sum(eps**i * row[j] for i, row in enumerate(rows)) for j in range(cfg.r))
    return WeightMatrix(rows=(h,))


def pairwise_refinement_poset(subdivisions: Sequence[MarkedSubdivision]) -> list[tuple[int, int]]:
    """The rule of ``config.refinement_poset`` tested on every ordered pair:
    (i, j), i != j, i-major, when each cell marking of s_i lies inside some
    cell marking of s_j.  Two exact prefilters go first: the marked points
    of s_i lie in those of s_j, and s_i has at least as many cells."""
    masks = [[sum(1 << i for i in c.marking) for c in s.cells] for s in subdivisions]
    marked = [sum(1 << i for i in s.marked_points) for s in subdivisions]
    return [
        (i, j)
        for i, (xi, mi) in enumerate(zip(masks, marked))
        for j, (xj, mj) in enumerate(zip(masks, marked))
        if mi & ~mj == 0 and len(xi) >= len(xj) and i != j
        and all(any(x & ~y == 0 for y in xj) for x in xi)
    ]


def pulling_triangulation(points: tuple) -> list[tuple]:
    """Pulling triangulation of conv(points) into simplices (vertex tuples),
    valid in any intrinsic dimension: the lex-least vertex joined to the
    triangulation of every facet off it, recursively, by ``hull_of``."""
    h = hull_of(points)
    verts = [points[i] for i in h.vertices]
    k = h.intrinsic_dim
    if len(verts) == k + 1:
        return [tuple(verts)]
    v0 = min(verts)
    w0 = (1, *v0)
    simplices = []
    for a in h.facets:
        if dot(a, w0) == 0:
            continue  # v0 lies on this facet
        facet_pts = tuple(p for p in points if dot(a, (1, *p)) == 0)
        simplices.extend((v0,) + s for s in pulling_triangulation(facet_pts))
    return simplices


def pulling_volume(points: Sequence[Sequence]) -> int:
    """The normalized volume of ``config.volume``: the sum over the pulling
    triangulation's simplices of |det| of their edge vectors, one echelon
    pass each; 0 if the points span no full space."""
    pts = tuple(map(tuple, points))
    total = 0
    for simplex in pulling_triangulation(pts):
        rows = [tuple(a - b for a, b in zip(v, simplex[0])) for v in simplex[1:]]
        _, pivots, d = echelon(rows)
        total += abs(d) if len(pivots) == len(pts[0]) else 0
    return total


def hull_candidate_cells(cfg: PointConfig) -> list[MarkedCell]:
    """The candidates of ``gkzfan._candidate_cells``, in its order, by one
    hull per subset: each full-dimensional subset whose points are all
    vertices of its hull, with every marking between those vertices and all
    the points the hull contains."""
    cells = []
    idxs = range(cfg.r)
    for size in range(cfg.dim + 1, cfg.r + 1):
        for combo in itertools.combinations(idxs, size):
            h = hull_of(tuple(cfg.points[i] for i in combo))
            if h.intrinsic_dim != cfg.dim or len(h.vertices) != size:
                continue
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


def meet_properly(circs: Sequence[tuple[int, int]], a: int, b: int) -> bool:
    """Whether two cells with marking bitmasks a and b meet properly: no
    circuit Z of ``circs``, in either orientation, has Z+ in a, Z- in b and
    Z not in a & b (the rule ``gkzfan._clashes`` proves and reads once per
    candidate), tested circuit by circuit for this one pair."""
    both = a & b
    return not any(
        (pos | neg) & ~both
        and (pos & ~a == 0 and neg & ~b == 0 or neg & ~a == 0 and pos & ~b == 0)
        for pos, neg in circs
    )


def pairwise_cover_search(
    cfg: PointConfig, budget: int = 200_000
) -> tuple[list[MarkedSubdivision], int]:
    """The covers of ``gkzfan.enumerate_subdivisions`` and the number of
    search nodes visited, by a node loop that scans every later candidate
    and tests it against each chosen cell with ``meet_properly`` (memoised
    per pair), on the hull-built candidates and volumes of
    ``hull_candidate_cells`` and ``pulling_volume``.  It raises the same
    ``BudgetExceeded`` past ``budget`` nodes."""
    candidates = hull_candidate_cells(cfg)
    vols = [pulling_volume(tuple(cfg.points[i] for i in c.vertices)) for c in candidates]
    target = pulling_volume(cfg.points)
    masks = [sum(1 << i for i in c.marking) for c in candidates]
    circs = circuits(cfg)
    compatible: dict[tuple[int, int], bool] = {}  # (i, j), j < i

    def compat(i: int, j: int) -> bool:
        if (i, j) not in compatible:
            compatible[i, j] = meet_properly(circs, masks[i], masks[j])
        return compatible[i, j]

    results = []
    nodes = 0

    def search(start: int, chosen: list[int], vol_acc: int):
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
        for i in range(start, len(candidates)):
            if vol_acc + vols[i] > target:
                continue
            if all(compat(i, j) for j in chosen):
                chosen.append(i)
                search(i + 1, chosen, vol_acc + vols[i])
                chosen.pop()

    search(0, [], 0)
    return results, nodes


def fan_invariant_violations(r: int, dim: int, payload: dict) -> list[str]:
    """Face-lattice invariants of a ``fan`` output over r points in
    dimension dim, which no cover search is needed to check.  A regular
    subdivision with ``dim_closed_cone_rank1`` k is a face of dimension
    r - k of the secondary polytope, and s_i refines s_j iff face i lies in
    face j (Gelfand, Kapranov & Zelevinsky 1994, ch. 7; De Loera, Rambau &
    Santos, ch. 5).  So:

    - Euler-Poincare: the sum of (-1)^(r - k) over all listed subdivisions
      is 1, and so is the sum over each face and the faces inside it;
    - grading: a refinement strictly raises k, and exactly one subdivision,
      the trivial one, has k = dim + 1;
    - every wall (k = r - 1) is refined by exactly two chambers (k = r);
    - each chamber's condition cone has one generator per wall it refines.

    Returns one message per violation; an empty list means all hold."""
    subs = payload["regular_subdivisions"]
    poset = [tuple(p) for p in payload["refinement_poset"]]
    n = len(subs)
    out = []
    bad = [p for p in poset if not (0 <= p[0] < n and 0 <= p[1] < n and p[0] != p[1])]
    if bad:
        return [f"poset pairs out of range: {bad[:3]}"]
    if len(set(poset)) != len(poset):
        out.append("a poset pair is listed twice")
    k = [e["dim_closed_cone_rank1"] for e in subs]
    sign = [(-1) ** (r - x) for x in k]
    if sum(sign) != 1:
        out.append(f"Euler-Poincare sum {sum(sign)} != 1")
    face_sums = list(sign)
    for i, j in poset:
        face_sums[j] += sign[i]
    out += [f"Euler-Poincare sum {t} != 1 on face {j}" for j, t in enumerate(face_sums) if t != 1]
    out += [f"refinement {i} -> {j} does not raise k" for i, j in poset if k[i] <= k[j]]
    coarsest = [i for i in range(n) if k[i] == dim + 1]
    if len(coarsest) != 1:
        out.append(f"{len(coarsest)} subdivisions with k = dim + 1")
    elif not (len(subs[coarsest[0]]["cells"]) == 1
              and len(subs[coarsest[0]]["cells"][0]["marking"]) == r):
        out.append(f"subdivision {coarsest[0]} has k = dim + 1 but is not trivial")
    chambers = {i: [] for i in range(n) if k[i] == r}
    walls = {j: [] for j in range(n) if k[j] == r - 1}
    for i, j in poset:
        if i in chambers and j in walls:
            chambers[i].append(j)
            walls[j].append(i)
    out += [f"wall {j} lies in {len(c)} chambers" for j, c in walls.items() if len(c) != 2]
    out += [
        f"chamber {i}: {len(subs[i]['condition_cone']['generators'])} generators,"
        f" {len(w)} walls"
        for i, w in chambers.items()
        if len(subs[i]["condition_cone"]["generators"]) != len(w)
    ]
    return out


if __name__ == "__main__":
    cfg_obj = json.load(open(sys.argv[1]))
    violations = fan_invariant_violations(
        len(cfg_obj["points"]), cfg_obj["dim"], json.load(open(sys.argv[2]))
    )
    print("\n".join(violations) or "fan invariants hold")
    sys.exit(1 if violations else 0)
