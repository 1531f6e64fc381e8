"""Exact linear algebra and the exact simplex solver."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexfan import lp
from lexfan.errors import InvariantError
from lexfan.linalg import (
    canonical_subspace_basis,
    det,
    dot,
    nullspace,
    primitive,
    project_off,
    rank,
    rref,
    solve,
)

small_ints = st.integers(min_value=-6, max_value=6)
mat33 = st.lists(
    st.lists(small_ints, min_size=3, max_size=3), min_size=3, max_size=3
)


class TestLinalg:
    def test_rref_pivots(self):
        rows, pivots = rref([[2, 4], [1, 2]])
        assert rows == [(Fraction(1), Fraction(2))]
        assert pivots == [0]

    def test_rank(self):
        assert rank([[1, 0], [0, 1]]) == 2
        assert rank([[1, 2], [2, 4]]) == 1
        assert rank([]) == 0

    def test_solve_exact(self):
        x = solve([[2, 1], [1, 3]], [5, 10])
        assert x == (Fraction(1), Fraction(3))

    def test_solve_inconsistent(self):
        assert solve([[1, 1], [1, 1]], [0, 1]) is None

    def test_nullspace(self):
        ns = nullspace([[1, 1, 0]])
        assert len(ns) == 2
        assert all(dot([1, 1, 0], v) == 0 for v in ns)

    def test_primitive(self):
        assert primitive([Fraction(2, 3), Fraction(-4, 3)]) == (1, -2)
        assert primitive([0, Fraction(5, 2)]) == (0, 1)

    def test_det(self):
        assert det([[1, 2], [3, 4]]) == -2
        assert det([[2]]) == 2

    def test_project_off_is_orthogonal(self):
        basis = canonical_subspace_basis([[1, 1, 0]])
        (p,) = project_off([[3, 1, 2]], basis)
        assert all(dot(b, p) == 0 for b in basis)
        # (3, 1, 2) - 2 (1, 1, 0) is primitive, so the direction is the
        # projection itself: original minus projection lies in the span
        diff = tuple(a - b for a, b in zip((3, 1, 2), p))
        assert rank(list(basis) + [diff]) == rank(list(basis))

    def test_project_off_raises_on_singular_gram(self):
        with pytest.raises(InvariantError):
            project_off([[3, 1, 2]], [(1, 1, 0), (2, 2, 0)])

    def test_canonical_basis_is_representation_independent(self):
        b1 = canonical_subspace_basis([[1, 1, 0], [0, 2, 2]])
        b2 = canonical_subspace_basis([[1, 3, 2], [2, 2, 0], [3, 5, 2]])
        assert b1 == b2

    @settings(max_examples=50, deadline=None)
    @given(mat33)
    def test_solve_against_multiplication(self, a):
        b = [sum(row) for row in a]  # so x = (1,1,1) is a solution if any
        x = solve(a, b)
        if x is not None:
            assert all(
                sum(Fraction(c) * xi for c, xi in zip(row, x)) == bi
                for row, bi in zip(a, b)
            )

    @settings(max_examples=50, deadline=None)
    @given(mat33)
    def test_det_zero_iff_rank_deficient(self, a):
        assert (det(a) == 0) == (rank(a) < 3)

    @settings(max_examples=50, deadline=None)
    @given(mat33)
    def test_nullspace_dimension(self, a):
        ns = nullspace(a)
        assert len(ns) == 3 - rank(a)
        assert all(any(v) for v in ns)
        assert all(all(dot(row, v) == 0 for row in a) for v in ns)


class TestSimplex:
    def test_optimal(self):
        # max x + y st x <= 2, y <= 3, free variables
        res = lp.solve_lp(
            [1, 1], [[1, 0], [0, 1]], [2, 3], [], []
        )
        assert res.status == lp.OPTIMAL
        assert res.value == 5
        assert res.x == (Fraction(2), Fraction(3))

    def test_exact_rational_optimum(self):
        # max y st 3y <= 1
        res = lp.solve_lp([0, 1], [[0, 3]], [1], [], [])
        assert res.status == lp.OPTIMAL
        assert res.value == Fraction(1, 3)

    def test_equality_constraints(self):
        # max x st x + y = 4, x <= 3
        res = lp.solve_lp([1, 0], [[1, 0]], [3], [[1, 1]], [4])
        assert res.status == lp.OPTIMAL
        assert res.value == 3
        assert res.x == (Fraction(3), Fraction(1))

    def test_unbounded_phase_one_raises(self, monkeypatch):
        monkeypatch.setattr(lp, "_simplex", lambda *args: lp.UNBOUNDED)
        with pytest.raises(InvariantError):
            lp.solve_lp([1, 0], [[1, 0]], [3], [[1, 1]], [4])

    def test_infeasible(self):
        res = lp.solve_lp([1], [[1], [-1]], [-1, -1], [], [])
        assert res.status == lp.INFEASIBLE

    def test_unbounded(self):
        res = lp.solve_lp([1], [[-1]], [0], [], [])
        assert res.status == lp.UNBOUNDED

    def test_degenerate_no_cycling(self):
        # many redundant constraints through the origin; Bland's rule
        # must terminate
        a_ub = [[1, 1], [2, 2], [1, 2], [2, 1], [1, 0], [0, 1]]
        b_ub = [0, 0, 0, 0, 1, 1]
        res = lp.solve_lp([1, 1], a_ub, b_ub, [], [])
        assert res.status == lp.OPTIMAL
        assert res.value == 0
