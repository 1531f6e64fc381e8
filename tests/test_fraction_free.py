"""Differential tests of the fraction-free paths: the Bareiss ``echelon`` and
the integer ``rank``, ``det``, ``canonical_subspace_basis``,
``project_off`` and ``kernel_coordinates`` against Fraction elimination, and the batched relation
vectors of ``gkzfan``, with their greedy affine bases, against the
per-subset and per-point constructions they replace."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lexfan.config import MarkedCell, MarkedSubdivision, PointConfig
from lexfan.errors import InvariantError
from lexfan.gkzfan import condition_generators
from lexfan.linalg import (
    canonical_subspace_basis,
    det,
    dot,
    echelon,
    kernel_coordinates,
    nullspace,
    primitive,
    project_off,
    rank,
    solve,
)

from oracles import combination_basis

small_ints = st.integers(-6, 6)
small_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def fraction_rref(rows) -> tuple[list, list]:
    """Oracle: Gauss-Jordan over Fraction, dividing each pivot row by its
    pivot."""
    mat = [[Fraction(x) for x in r] for r in rows]
    pivots, row = [], 0
    for col in range(len(mat[0]) if mat else 0):
        p = next((i for i in range(row, len(mat)) if mat[i][col]), None)
        if p is None:
            continue
        mat[row], mat[p] = mat[p], mat[row]
        mat[row] = [x / mat[row][col] for x in mat[row]]
        for i in range(len(mat)):
            if i != row:
                f = mat[i][col]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[row])]
        pivots.append(col)
        row += 1
    return mat[:row], pivots


def laplace_det(rows) -> Fraction:
    """Oracle: cofactor expansion along the first row."""
    if not rows:
        return Fraction(1)
    return sum(
        (-1) ** j * Fraction(x) * laplace_det([r[:j] + r[j + 1:] for r in rows[1:]])
        for j, x in enumerate(rows[0])
    )


@st.composite
def matrices(draw, entries, square=False):
    nrows = draw(st.integers(1, 4))
    ncols = nrows if square else draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    if nrows > 1 and draw(st.booleans()):  # force a dependent row
        rows[-1] = [2 * a - b for a, b in zip(rows[0], rows[1])]
    return rows


@st.composite
def lattice_configs(draw):
    """Random lattice configurations (dim 1-3, r <= 8) and an index set."""
    dim = draw(st.integers(1, 3))
    point = st.tuples(*[st.integers(-2, 3)] * dim)
    pts = draw(st.lists(point, min_size=dim + 1, max_size=8, unique=True))
    assume(rank([(1,) + p for p in pts]) == dim + 1)
    cfg = PointConfig(dim=dim, points=tuple(pts))
    idxs = draw(st.lists(st.integers(0, cfg.r - 1), min_size=1, unique=True))
    return cfg, tuple(sorted(idxs))


def solve_relation(cfg, v, basis) -> tuple:
    """Oracle: e_v - sum a_i e_{w_i}, with v = sum a_i w_i solved over
    Fraction, primitively scaled."""
    mat = [[cfg.homogenized(w)[k] for w in basis] for k in range(cfg.n)]
    u = [Fraction(int(i == v)) for i in range(cfg.r)]
    for a, w in zip(solve(mat, cfg.homogenized(v)), basis):
        u[w] -= a
    return primitive(u)


class TestEchelon:
    @settings(max_examples=100, deadline=None)
    @given(matrices(small_ints))
    def test_rows_are_pivot_times_rref(self, rows):
        red, pivots, d = echelon(rows)
        frac_red, frac_pivots = fraction_rref(rows)
        assert pivots == frac_pivots
        assert all(type(x) is int for r in red for x in r)
        assert [[Fraction(x, d) for x in r] for r in red] == frac_red
        assert all(r[p] == d for r, p in zip(red, pivots))

    @settings(max_examples=100, deadline=None)
    @given(matrices(small_ints, square=True))
    def test_last_pivot_is_determinant(self, rows):
        _, pivots, d = echelon(rows)
        if len(pivots) == len(rows):
            assert d == laplace_det(rows)
        else:
            assert laplace_det(rows) == 0


class TestIntegerLinalg:
    @settings(max_examples=100, deadline=None)
    @given(matrices(small_rationals))
    def test_rank_and_canonical_basis(self, rows):
        frac_red, _ = fraction_rref(rows)
        assert rank(rows) == len(frac_red)
        basis = canonical_subspace_basis(rows)
        assert basis == tuple(primitive(r) for r in frac_red)
        assert all(type(x) is int for r in basis for x in r)

    @settings(max_examples=100, deadline=None)
    @given(matrices(small_rationals, square=True))
    def test_det(self, rows):
        assert det(rows) == laplace_det(rows)

    @settings(max_examples=100, deadline=None)
    @given(matrices(small_ints), st.data())
    def test_project_off_matches_gram_solve(self, rows, data):
        v = data.draw(st.lists(small_rationals, min_size=len(rows[0]), max_size=len(rows[0])))
        if rank(rows) < len(rows):
            with pytest.raises(InvariantError):
                project_off([v], rows)
            return
        expected = [Fraction(x) for x in v]
        gram = [[dot(a, b) for b in rows] + [dot(a, expected)] for a in rows]
        coeffs = [r[-1] for r in fraction_rref(gram)[0]]
        for c, b in zip(coeffs, rows):
            expected = [x - c * y for x, y in zip(expected, b)]
        (p,) = project_off([v], rows)
        assert p == primitive(expected) and all(type(x) is int for x in p)


class TestKernelCoordinates:
    @settings(max_examples=150, deadline=None)
    @given(matrices(small_ints))
    def test_lift_against_fraction_nullspace(self, rows):
        free, basis, lift = kernel_coordinates(rows)
        _, pivots = fraction_rref(rows)
        assert free == tuple(c for c in range(len(rows[0])) if c not in pivots)
        assert basis == canonical_subspace_basis(rows)
        assert all(type(x) is int for row in lift for x in row)
        cols = list(zip(*lift))
        assert len(lift) == len(rows[0]) and len(cols) == len(free)
        assert all(dot(a, col) == 0 for a in rows for col in cols)  # L's columns lie in D
        # L^T u is one positive multiple of u[free] for every u in D, so L h
        # pairs with D as h pairs with the free coordinates
        kern = nullspace(rows)
        assert len(kern) == len(free)
        if kern:
            c = dot(cols[0], kern[0]) / kern[0][free[0]]
            assert c > 0
            for u in kern:
                assert [dot(col, u) for col in cols] == [c * u[f] for f in free]


class TestGeneratorsAgainstSolve:
    @settings(max_examples=150, deadline=None)
    @given(lattice_configs())
    def test_relation_vectors(self, drawn):
        cfg, idxs = drawn
        s = MarkedSubdivision(cells=(MarkedCell(vertices=idxs, marking=idxs),))
        basis = combination_basis(cfg, idxs)
        if basis is None:
            with pytest.raises(InvariantError):
                condition_generators(cfg, s)
            return
        unmarked = [v for v in range(cfg.r) if v not in idxs]
        expected = [
            (solve_relation(cfg, v, basis), v, basis, v in idxs)
            for v in list(idxs) + unmarked
            if v not in basis
        ]
        gens = condition_generators(cfg, s)
        assert [(g.vector, g.point, g.basis, g.two_sided) for g in gens] == expected
