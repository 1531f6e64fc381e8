"""Point configurations, hulls, exact volumes, and subdivision validation."""

import itertools
from fractions import Fraction
from math import factorial, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lexfan.config import (
    MarkedCell,
    MarkedSubdivision,
    PointConfig,
    hull_of,
    is_triangulation,
    refines,
    validate_subdivision,
    volume,
)
from lexfan.errors import DimensionError, SchemaError
from lexfan.linalg import dot, rank

from helpers import trivial_subdivision
from oracles import pulling_volume


class TestPointConfig:
    def test_basic(self, seg_cfg, simplex_cfg):
        assert seg_cfg.r == 5 and seg_cfg.n == 2
        assert simplex_cfg.homogenized(3) == (1, 1, 1)

    def test_duplicates_rejected(self):
        with pytest.raises(SchemaError):
            PointConfig(dim=1, points=((0,), (1,), (0,)))

    def test_non_spanning_rejected(self):
        with pytest.raises(SchemaError):
            PointConfig(dim=2, points=((0, 0), (1, 1), (2, 2)))

    def test_wrong_length_rejected(self):
        with pytest.raises(DimensionError):
            PointConfig(dim=2, points=((0, 0), (1,)))

    @pytest.mark.parametrize("coord", [1.5, Fraction(3, 2), Fraction(2), True, "2", None])
    def test_non_integer_coordinates_rejected(self, coord):
        # each of these used to be cast with int() and kept as 1, 2 or 0
        with pytest.raises(SchemaError, match="expected integer"):
            PointConfig(dim=1, points=((coord,), (0,)))


class TestHull:
    def test_square(self, square_cfg):
        h = hull_of(square_cfg.points)
        assert h.vertices == (0, 1, 2, 3)
        assert len(h.facets) == 4 and h.affine_eqs == ()
        assert h.intrinsic_dim == 2
        # membership is on homogeneous vectors (d, y): y / d in the hull
        assert h.cone.contains((2, 1, 1))  # the point (1/2, 1/2)
        assert not h.cone.contains((1, 2, 0))
        with pytest.raises(DimensionError):
            h.cone.contains((1, 1))  # an affine point, not (d, y)

    def test_interior_point_not_vertex(self, simplex_cfg):
        h = hull_of(simplex_cfg.points)
        assert h.vertices == (0, 1, 2)
        assert h.cone.contains((1, 1, 1))

    def test_lower_dimensional_hull(self):
        h = hull_of(((0, 0), (2, 2)))
        assert h.intrinsic_dim == 1
        assert len(h.affine_eqs) == 1

    def test_faces_of_square(self, square_cfg):
        faces = hull_of(square_cfg.points).cone.faces()
        sizes = sorted(len(f.rays) for f in faces)
        # empty face, 4 vertices, 4 edges, the square itself
        assert sizes == [0, 1, 1, 1, 1, 2, 2, 2, 2, 4]

    def test_segment_hull_vertices(self, seg_cfg):
        assert hull_of(seg_cfg.points).vertices == (0, 4)


@st.composite
def _spanning_points(draw, dim):
    """dim + 1 to 8 distinct lattice points affinely spanning dim-space."""
    coord = st.integers(-3, 3)
    pts = draw(
        st.lists(st.tuples(*[coord] * dim), min_size=dim + 1, max_size=8, unique=True)
    )
    assume(rank([(1, *p) for p in pts]) == dim + 1)
    return tuple(pts)


@st.composite
def _unimodular(draw, dim):
    """A product of elementary integer matrices (add c times row j to row i,
    or negate a row): det +-1, so it maps the lattice onto itself."""
    m = [[int(i == j) for j in range(dim)] for i in range(dim)]
    for _ in range(draw(st.integers(0, 6))):
        i, j = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
        if i == j:
            m[i] = [-x for x in m[i]]
        else:
            c = draw(st.integers(-2, 2))
            m[i] = [x + c * y for x, y in zip(m[i], m[j])]
    return m


def _convex_hull_2d(pts):
    """Hull vertices in counter-clockwise order (Andrew's monotone chain)."""
    pts = sorted(set(pts))

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and (
                (out[-1][0] - out[-2][0]) * (p[1] - out[-2][1])
                - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])
            ) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]

    return half(pts) + half(pts[::-1])


class TestVolume:
    """``volume`` is the normalized volume dim! * vol, an int."""

    def test_segment(self, seg_cfg):
        assert volume(seg_cfg.points) == 6

    def test_simplex(self, simplex_cfg):
        assert volume(simplex_cfg.points) == 9

    def test_square(self, square_cfg):
        assert volume(square_cfg.points) == 2

    def test_segment_in_the_plane(self):
        # the one edge vector leaves one pivot, short of the plane's two
        assert volume(((0, 0), (2, 2))) == 0

    def test_points_that_span_no_full_space(self):
        assert volume(((0, 0), (1, 1), (3, 3))) == 0
        assert volume(((0, 0, 0), (2, 0, 0), (0, 1, 0), (1, 1, 0))) == 0

    def test_translation_invariance(self):
        a = ((0, 0), (3, 0), (0, 3))
        b = tuple((x + 7, y - 2) for x, y in a)
        assert volume(a) == volume(b)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_lattice_invariance(self, data):
        dim = data.draw(st.integers(1, 3))
        pts = data.draw(_spanning_points(dim))
        m = data.draw(_unimodular(dim))
        t = data.draw(st.tuples(*[st.integers(-5, 5)] * dim))
        moved = [tuple(dot(row, p) + c for row, c in zip(m, t)) for p in pts]
        vol = volume(pts)
        assert type(vol) is int and vol > 0
        assert volume(moved) == vol

    @settings(max_examples=30, deadline=None)
    @given(sides=st.lists(st.integers(1, 3), min_size=1, max_size=3))
    def test_lattice_box(self, sides):
        # every lattice point of the box, so most are not vertices
        box = list(itertools.product(*(range(s + 1) for s in sides)))
        assert volume(box) == factorial(len(sides)) * prod(sides)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_twice_shoelace_area_in_the_plane(self, data):
        pts = data.draw(_spanning_points(2))
        hull = _convex_hull_2d(pts)
        twice_area = sum(
            x0 * y1 - x1 * y0
            for (x0, y0), (x1, y1) in zip(hull, hull[1:] + hull[:1])
        )
        assert volume(pts) == twice_area

    def test_point_in_dimension_zero(self):
        assert volume(((),)) == pulling_volume(((),)) == 1

    @pytest.mark.parametrize("pts", [
        ((0, 0), (1, 1), (2, 2), (3, 3)),  # collinear in the plane
        ((0, 0, 0), (2, 0, 0), (0, 2, 0), (1, 1, 0), (2, 2, 0)),  # coplanar in space
        ((0, 0), (4, 0), (1, 0), (2, 0), (0, 2), (0, 1), (2, 2), (1, 1)),  # on edges
        ((0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (0, 2, 2)),
    ])
    def test_coplanar_points_match_pulling_oracle(self, pts):
        assert volume(pts) == pulling_volume(pts)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_volume_matches_pulling_oracle(self, data):
        # on a small grid, so non-spanning, collinear and coplanar sets
        # are common; points need not be vertices
        dim = data.draw(st.integers(0, 3))
        pts = data.draw(
            st.lists(st.tuples(*[st.integers(0, 2)] * dim), min_size=1, max_size=9, unique=True)
        )
        assert volume(pts) == pulling_volume(pts)


class TestValidation:
    def test_trivial_is_valid(self, seg_cfg, simplex_cfg, square_cfg):
        for cfg in (seg_cfg, simplex_cfg, square_cfg):
            s = trivial_subdivision(cfg)
            assert validate_subdivision(cfg, s).ok

    def test_running_subdivision_valid(self, seg_cfg, seg_sub):
        rep = validate_subdivision(seg_cfg, seg_sub)
        assert rep.ok and rep.violations == ()

    def test_pinwheel_valid_triangulation(self, pinwheel_cfg, pinwheel_tri):
        assert validate_subdivision(pinwheel_cfg, pinwheel_tri).ok
        assert is_triangulation(pinwheel_cfg, pinwheel_tri)

    def _codes(self, cfg, cells):
        s = MarkedSubdivision(cells=tuple(cells))
        rep = validate_subdivision(cfg, s)
        assert not rep.ok
        return {code for code, _ in rep.violations}

    def test_index_range(self, seg_cfg):
        codes = self._codes(
            seg_cfg, [MarkedCell(vertices=(0, 9), marking=(0, 9))]
        )
        assert "index-range" in codes

    def test_cell_not_full_dim(self, square_cfg):
        codes = self._codes(
            square_cfg,
            [MarkedCell(vertices=(0, 1), marking=(0, 1))],
        )
        assert "cell-not-full-dim" in codes

    def test_vertex_set_violation(self, seg_cfg):
        # -1 is an interior point of [-2, 0], not a vertex
        codes = self._codes(
            seg_cfg,
            [
                MarkedCell(vertices=(0, 1, 2), marking=(0, 1, 2)),
                MarkedCell(vertices=(2, 4), marking=(2, 3, 4)),
            ],
        )
        assert "vertex-set" in codes

    def test_marking_missing_vertex(self, seg_cfg):
        codes = self._codes(
            seg_cfg,
            [
                MarkedCell(vertices=(0, 2), marking=(0,)),
                MarkedCell(vertices=(2, 4), marking=(2, 4)),
            ],
        )
        assert "marking-missing-vertex" in codes

    def test_marking_outside_cell(self, seg_cfg):
        codes = self._codes(
            seg_cfg,
            [
                MarkedCell(vertices=(0, 2), marking=(0, 2, 4)),
                MarkedCell(vertices=(2, 4), marking=(2, 4)),
            ],
        )
        assert "marking-outside-cell" in codes

    def test_overlap_not_face(self, seg_cfg):
        # [-2, 2] and [0, 4] overlap in [0, 2], not a face of either
        codes = self._codes(
            seg_cfg,
            [
                MarkedCell(vertices=(0, 3), marking=(0, 1, 2, 3)),
                MarkedCell(vertices=(2, 4), marking=(2, 3, 4)),
            ],
        )
        assert "overlap-not-face" in codes

    def test_marking_mismatch(self):
        cfg = PointConfig(
            dim=2, points=((0, 0), (2, 0), (0, 2), (2, 2), (1, 1))
        )
        codes = self._codes(
            cfg,
            [
                MarkedCell(vertices=(0, 1, 2), marking=(0, 1, 2, 4)),
                MarkedCell(vertices=(1, 2, 3), marking=(1, 2, 3)),
            ],
        )
        assert "marking-mismatch" in codes

    def test_not_covering(self, seg_cfg):
        codes = self._codes(
            seg_cfg,
            [
                MarkedCell(vertices=(0, 2), marking=(0, 1, 2)),
                MarkedCell(vertices=(3, 4), marking=(3, 4)),
            ],
        )
        assert "not-covering" in codes

    def test_duplicate_cell(self, seg_cfg):
        cell = MarkedCell(vertices=(0, 4), marking=(0, 1, 2, 3, 4))
        codes = self._codes(seg_cfg, [cell, cell])
        assert "duplicate-cell" in codes


class TestRefinesAndTriangulation:
    def test_simplex_poset(self, simplex_cfg, simplex_q0, simplex_q1, simplex_q2):
        assert refines(simplex_cfg, simplex_q1, simplex_q0)
        assert refines(simplex_cfg, simplex_q2, simplex_q0)
        assert not refines(simplex_cfg, simplex_q1, simplex_q2)
        assert not refines(simplex_cfg, simplex_q2, simplex_q1)
        # reflexive
        assert refines(simplex_cfg, simplex_q2, simplex_q2)

    def test_running_refines_trivial(self, seg_cfg, seg_sub):
        assert refines(seg_cfg, seg_sub, trivial_subdivision(seg_cfg))
        assert not refines(seg_cfg, trivial_subdivision(seg_cfg), seg_sub)

    def test_flat_cell_adds_no_volume(self, square_cfg):
        # a triangle and a segment on its edge: not a subdivision, so it
        # refines nothing, though both markings lie in the trivial cell
        s = MarkedSubdivision(
            cells=(
                MarkedCell(vertices=(0, 1, 2), marking=(0, 1, 2)),
                MarkedCell(vertices=(1, 2), marking=(1, 2)),
            )
        )
        assert not validate_subdivision(square_cfg, s).ok
        assert not refines(square_cfg, s, trivial_subdivision(square_cfg))

    def test_is_triangulation(self, simplex_cfg, simplex_q0, simplex_q1, simplex_q2):
        assert is_triangulation(simplex_cfg, simplex_q2)
        assert not is_triangulation(simplex_cfg, simplex_q0)
        # q1 is a simplex cell marked exactly by its vertices
        assert is_triangulation(simplex_cfg, simplex_q1)

    def test_canonical_cell_sorting(self):
        a = MarkedSubdivision(
            cells=(
                MarkedCell(vertices=(2, 4), marking=(4, 2)),
                MarkedCell(vertices=(2, 0), marking=(0, 2)),
            )
        )
        b = MarkedSubdivision(
            cells=(
                MarkedCell(vertices=(0, 2), marking=(0, 2)),
                MarkedCell(vertices=(2, 4), marking=(2, 4)),
            )
        )
        assert a == b
        assert a.marked_points == (0, 2, 4)
