"""Point configurations, hulls, exact volumes, and subdivision validation."""

from fractions import Fraction

import pytest

from lexfan.config import (
    MarkedCell,
    MarkedSubdivision,
    PointConfig,
    hull_of,
    is_triangulation,
    refines,
    trivial_subdivision,
    validate_subdivision,
    volume,
)
from lexfan.errors import DimensionError, SchemaError


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


class TestVolume:
    def test_segment(self, seg_cfg):
        assert volume(seg_cfg.points) == 6

    def test_simplex(self, simplex_cfg):
        assert volume(simplex_cfg.points) == Fraction(9, 2)

    def test_square(self, square_cfg):
        assert volume(square_cfg.points) == 1

    def test_translation_invariance(self):
        a = ((0, 0), (3, 0), (0, 3))
        b = tuple((x + 7, y - 2) for x, y in a)
        assert volume(a) == volume(b)


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
