"""Differential tests of the exact linear algebra against sympy."""

from fractions import Fraction

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from lexfan.linalg import det, nullspace, rank, rref, solve

small_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def rational_matrices(draw, square=False):
    """A small rational matrix, often rank-deficient (entries include 0)."""
    nrows = draw(st.integers(1, 4))
    ncols = nrows if square else draw(st.integers(1, 4))
    row = st.lists(small_rationals, min_size=ncols, max_size=ncols)
    return draw(st.lists(row, min_size=nrows, max_size=nrows))


def _sym(rows):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r] for r in rows])


def _frac(x) -> Fraction:
    x = sympy.Rational(x)
    return Fraction(int(x.p), int(x.q))


def _frac_rows(m) -> list:
    return [tuple(_frac(x) for x in m.row(i)) for i in range(m.rows)]


class TestLinalgAgainstSympy:
    """Differential checks of the exact linear algebra against sympy."""

    @settings(max_examples=80, deadline=None)
    @given(rational_matrices())
    def test_rref_and_rank(self, rows):
        red, pivots = rref(rows)
        sym_red, sym_pivots = _sym(rows).rref()
        assert pivots == list(sym_pivots)
        assert red == _frac_rows(sym_red)[: len(sym_pivots)]
        assert rank(rows) == _sym(rows).rank()

    @settings(max_examples=80, deadline=None)
    @given(rational_matrices(square=True))
    def test_det(self, rows):
        assert det(rows) == _frac(_sym(rows).det())

    @settings(max_examples=80, deadline=None)
    @given(rational_matrices(), st.data())
    def test_solve(self, rows, data):
        b = data.draw(st.lists(small_rationals, min_size=len(rows), max_size=len(rows)))
        x = solve(rows, b)
        try:
            sol, params = _sym(rows).gauss_jordan_solve(_sym([[v] for v in b]))
        except ValueError:  # sympy: inconsistent system
            assert x is None
            return
        # free variables set to zero give the same particular solution
        particular = sol.subs({p: 0 for p in params})
        assert x == tuple(_frac(v) for v in particular)

    @settings(max_examples=80, deadline=None)
    @given(rational_matrices())
    def test_nullspace(self, rows):
        basis = nullspace(rows)
        sym_basis = _sym(rows).nullspace()
        assert basis == [tuple(_frac(v) for v in vec) for vec in sym_basis]

