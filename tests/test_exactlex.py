"""Scalars, lexicographic vectors, infinity, weight matrices."""

import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexfan.errors import DimensionError, SchemaError
from lexfan.exactlex import (
    INFINITY,
    LexVec,
    WeightMatrix,
    lex_sign,
    mat_vec,
    rat,
    rat_str,
    zero_vec,
)

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=12
)
vec3 = st.lists(rationals, min_size=3, max_size=3).map(LexVec)


class TestRat:
    def test_roundtrip_strings(self):
        for s in ["3/4", "-7/2", "0", "12", "-1"]:
            assert rat_str(rat(s)) == s

    def test_int_and_fraction(self):
        assert rat(5) == Fraction(5)
        assert rat(Fraction(2, 6)) == Fraction(1, 3)

    def test_floats_rejected(self):
        with pytest.raises(SchemaError):
            rat(0.5)

    def test_garbage_rejected(self):
        with pytest.raises(SchemaError):
            rat("3.14.15")
        with pytest.raises(SchemaError):
            rat("1/0")
        with pytest.raises(SchemaError):
            rat(None)

    def test_lowest_terms(self):
        x = rat("-6/4")
        assert (x.numerator, x.denominator) == (-3, 2)
        # sign belongs on the numerator; a negative denominator is rejected
        with pytest.raises(SchemaError):
            rat("6/-4")

    @pytest.mark.parametrize(
        "s",
        ["--3", "3/-1", "3/ 4", "1/0", "-0", "007/014", "+3", " 3 ", "3_0", "1.5", "1e3",
         "\u0663", "\u0663/\u0664", "\u00b2", "3\n", "-", "/3", "3/", ""],
    )
    def test_agrees_with_fraction_on_edge_strings(self, s):
        _agrees_with_fraction(s)

    @settings(max_examples=400, deadline=None)
    @given(
        s=st.one_of(
            st.text(max_size=8),
            st.text(alphabet="0123456789-+/_. e\n\u0663\u00b2", max_size=8),
            st.from_regex(r"-{0,2}[0-9]{1,5}(/-?[0-9]{1,5})?", fullmatch=True),
        )
    )
    def test_agrees_with_fraction(self, s):
        # on strings without an exponent, the plain "-?digits(/digits)?"
        # fast path reads the same values, and rat accepts and rejects
        # exactly what Fraction does; strings with one are rejected
        _agrees_with_fraction(s)

    def test_exponent_rejected_at_once(self):
        # Fraction expands the exponent: "1e100000000" ran for over a minute
        with pytest.raises(SchemaError, match="^not a rational: '1e100000000'$"):
            rat("1e100000000")
        with pytest.raises(SchemaError, match="not a rational"):
            rat("-2.5E-7")
        assert rat("1.5") == Fraction(3, 2)


def _agrees_with_fraction(s: str) -> None:
    """rat(s) is Fraction(s) if s has no exponent and Fraction reads it;
    otherwise rat raises SchemaError."""
    try:
        if "e" in s or "E" in s:
            raise ValueError("exponent")
        expected = Fraction(s)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(SchemaError, match="not a rational"):
            rat(s)
    else:
        got = rat(s)
        assert type(got) is Fraction and got == expected


def cmp(a, b) -> int:
    return (a > b) - (a < b)


class TestLexOrder:
    def test_most_significant_first(self):
        # the second coordinate only matters on a first-coordinate tie
        assert LexVec(["3/2", "1/2"]) < LexVec(["3/2", "1"])
        assert LexVec([2, -100]) > LexVec([1, 100])
        assert LexVec([1, 2]) == LexVec([1, 2])

    @settings(max_examples=60, deadline=None)
    @given(vec3, vec3)
    def test_python_comparison_matches_lex_sign(self, a, b):
        assert cmp(a, b) == lex_sign(a - b)

    @settings(max_examples=60, deadline=None)
    @given(vec3, vec3, vec3)
    def test_total_order_transitive(self, a, b, c):
        if a <= b and b <= c:
            assert a <= c

    @settings(max_examples=60, deadline=None)
    @given(vec3, vec3, vec3)
    def test_translation_invariance(self, a, b, c):
        assert cmp(a, b) == cmp(a + c, b + c)

    @settings(max_examples=60, deadline=None)
    @given(vec3, vec3, st.fractions(min_value="1/5", max_value=9, max_denominator=5))
    def test_positive_scaling_invariance(self, a, b, t):
        assert cmp(a, b) == cmp(a * t, b * t)

    @settings(max_examples=40, deadline=None)
    @given(vec3)
    def test_sign_antisymmetry(self, a):
        assert lex_sign(a) == -lex_sign(-a)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            LexVec([1]) + LexVec([1, 2])

    def test_min_max_vertex(self):
        vs = [LexVec([1, 5]), LexVec([0, 9]), LexVec([1, 4])]
        assert max(vs) == LexVec([1, 5])
        assert min(vs) == LexVec([0, 9])
        # ties go to the first occurrence, which fixes the reported witnesses
        tied = [LexVec([1, 5]), LexVec(["2/2", "10/2"])]
        assert max(tied) is tied[0] and min(tied) is tied[0]
        with pytest.raises(ValueError):
            max([])


class TestInfinity:
    def test_top_element(self):
        v = LexVec([10**9, 10**9])
        assert INFINITY > v and not (INFINITY < v)
        assert v < INFINITY
        assert INFINITY == INFINITY and INFINITY >= INFINITY

    def test_absorbing_addition(self):
        assert INFINITY + LexVec([1, 2]) is INFINITY
        assert LexVec([1, 2]) + INFINITY is INFINITY

    def test_positive_scaling_only(self):
        assert 3 * INFINITY is INFINITY
        with pytest.raises(ValueError):
            INFINITY * 0
        with pytest.raises(ValueError):
            INFINITY * -2

    def test_singleton(self):
        from lexfan.exactlex import Infinity

        assert Infinity() is INFINITY


class TestWeightMatrix:
    def test_columns_and_pairing(self, seg_psi):
        assert seg_psi.n_rows == 2 and seg_psi.n_cols == 5
        assert seg_psi.column(2) == LexVec([2, 1])
        # pairing against e_{-1} - 1/2 e_{-2} - 1/2 e_0
        u = [Fraction(-1, 2), 1, Fraction(-1, 2), 0, 0]
        assert mat_vec(seg_psi, u) == LexVec(["-3/2", "1/2"])

    def test_ragged_rejected(self):
        with pytest.raises(DimensionError):
            WeightMatrix(rows=((1, 2), (1,)))

    def test_dimension_mismatch(self, seg_psi):
        with pytest.raises(DimensionError):
            mat_vec(seg_psi, [1, 2, 3])

    def test_zero_vec(self):
        assert zero_vec(3) == LexVec([0, 0, 0])


class TestReimport:
    def test_dropped_imports_are_freed(self):
        """A fresh import of lexfan, once dropped from sys.modules, is
        collected: no module-level object (such as a typing alias cached
        by ``typing``) keeps the old classes and module dicts alive."""
        code = textwrap.dedent(
            """
            import gc, importlib, sys, weakref
            refs = []
            for _ in range(3):
                importlib.import_module("lexfan.cli")
                refs.append(weakref.ref(sys.modules["lexfan.exactlex"].LexVec))
                for name in [m for m in sys.modules if m.split(".")[0] == "lexfan"]:
                    del sys.modules[name]
                gc.collect()
            print(sum(ref() is not None for ref in refs))
            """
        )
        root = Path(__file__).resolve().parents[1]
        out = subprocess.run(
            [sys.executable, "-c", code],
            cwd=root,
            env=dict(os.environ, PYTHONPATH="src"),
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == "0"
