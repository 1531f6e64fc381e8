"""Graded-algebra presentations, Stanley-Reisner ideals, Khovanskii
reports."""

from operator import add
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexfan import degeneration, io
from lexfan.config import PointConfig
from lexfan.exactlex import WeightMatrix
from lexfan.gkzfan import shift_row, subdivide
from lexfan.degeneration import (
    gr_nu_reduced,
    gr_v_present,
    stanley_reisner,
)
from lexfan.quasival import Submonoid, TruncatedSemigroup, in_SQ1, semigroup_up_to

from helpers import scaled, trivial_subdivision
from oracles import (
    cell_semigroup_by_contains,
    class_masks_by_points,
    least_multiple_by_cones,
    zero_products_by_points,
)
from paper import khovanskii_report


class TestGrV:
    def test_running_example_products(self, seg_cfg, seg_sub):
        pres = gr_v_present(TruncatedSemigroup(seg_cfg, seg_sub, 6))
        # no common cell: [-2, 0] vs [0, 4] interiors
        assert pres.product((1, -2), (1, 4)) is None
        # common cell [-2, 0]
        assert pres.product((1, -2), (1, 0)) == (2, -2)
        # symmetric lookup
        assert pres.product((1, 0), (1, -2)) == (2, -2)
        assert pres.nilpotents == ()
        assert len(pres.components) == len(seg_sub.cells)
        assert all(c.ok for c in pres.certificates)
        assert pres.equidimensional

    def test_radical_powers(self, seg_cfg, seg_sub):
        pres = gr_v_present(TruncatedSemigroup(seg_cfg, seg_sub, 6))
        # powers inside a single cell never vanish
        for u in ((1, -1), (1, 2), (2, -3)):
            for ell in (2, 3):
                if u[0] * ell > 6:
                    continue
                assert pres.product(scaled(u, ell - 1), u) == scaled(u, ell)

    def test_associativity_sampled(self, seg_cfg, seg_sub):
        pres = gr_v_present(TruncatedSemigroup(seg_cfg, seg_sub, 6))
        deg1 = [u for u in pres.basis if u[0] == 1]
        for a in deg1:
            for b in deg1:
                for c in deg1:
                    ab = pres.product(a, b)
                    bc = pres.product(b, c)
                    left = pres.product(ab, c) if ab is not None else None
                    right = pres.product(a, bc) if bc is not None else None
                    if ab is None or bc is None:
                        # one side already zero; the other must vanish too
                        assert left is None and right is None
                    else:
                        assert left == right

    def test_trivial_subdivision_single_component(self, seg_cfg):
        pres = gr_v_present(TruncatedSemigroup(seg_cfg, trivial_subdivision(seg_cfg), 4))
        assert len(pres.components) == 1
        assert pres.table == ()
        assert pres.nilpotents == ()

    def test_simplex_disjoint_triangles(self, simplex_cfg, simplex_q2):
        pres = gr_v_present(TruncatedSemigroup(simplex_cfg, simplex_q2, 6))
        u = (3, 4, 1)  # interior to the cone over (0, 1, 3)
        w = (3, 1, 4)  # interior to the cone over (0, 2, 3)
        assert pres.product(u, w) is None
        assert pres.product(u, (1, 0, 0)) == (4, 4, 1)
        assert all(c.ok for c in pres.certificates)

    def test_depends_only_on_subdivision(self, seg_cfg, seg_psi, seg_sub):
        moved = shift_row(seg_psi, 1, 7)
        s2 = subdivide(seg_cfg, moved)
        assert s2 == seg_sub
        a = gr_v_present(TruncatedSemigroup(seg_cfg, seg_sub, 5))
        b = gr_v_present(TruncatedSemigroup(seg_cfg, s2, 5))
        assert a.table == b.table and a.components == b.components


class TestGrNuReduced:
    def test_nilpotents_pinned(self, seg_cfg, seg_sub, seg_marked):
        pres = gr_nu_reduced(TruncatedSemigroup(seg_cfg, seg_sub, 6))
        nil = {pres.basis[i]: w for i, w in pres.nilpotents}
        assert nil[(1, -1)] == 2
        assert nil[(1, 2)] == 2
        # exactly the classes outside every marked submonoid are nilpotent
        for u in pres.basis:
            if u[0] == 0:
                continue
            assert (u in nil) == (not any(in_SQ1(q, u) for q in seg_marked))

    def test_marked_degree_one_never_nilpotent(self, seg_cfg, seg_sub):
        pres = gr_nu_reduced(TruncatedSemigroup(seg_cfg, seg_sub, 6))
        nil_vecs = {pres.basis[i] for i, _ in pres.nilpotents}
        for i in seg_sub.marked_points:
            assert (1,) + (seg_cfg.points[i]) not in nil_vecs

    def test_trivial_all_marked_no_nilpotents(self, seg_cfg):
        pres = gr_nu_reduced(TruncatedSemigroup(seg_cfg, trivial_subdivision(seg_cfg), 4))
        assert pres.nilpotents == ()

    def test_component_count(self, seg_cfg, seg_sub):
        pres = gr_nu_reduced(TruncatedSemigroup(seg_cfg, seg_sub, 6))
        assert len(pres.components) == len(seg_sub.cells)
        assert pres.equidimensional

    def test_component_test_reads_one_layer_per_degree(self, monkeypatch):
        # the simplex with its interior point unmarked; the least multiples
        # of the nilpotent classes are stubbed, so only the component test
        # reads the marked submonoids' layers
        cfg = io.config_from_json(io.load_json(DATA / "simplex.json"))
        psi = io.matrix_from_json(io.load_json(DATA / "simplex_psi_unmarked.json"))
        t = TruncatedSemigroup(cfg, subdivide(cfg, psi), 12)
        assert t.basis  # its layered sums are not the component test's
        calls, layer = [], Submonoid.layer
        monkeypatch.setattr(Submonoid, "layer", lambda q, d: calls.append(d) or layer(q, d))
        monkeypatch.setattr(degeneration, "least_multiple", lambda t, i: 1)
        assert gr_nu_reduced(t).nilpotents
        assert 0 < len(calls) <= len(t.s.cells) * (t.bound + 1)

    def test_sr_quotient_agreement_on_triangulation(self, simplex_cfg, simplex_q2):
        # the structure rule of the reduced algebra mirrors face membership
        # in the simplicial complex: pairwise products of variable classes
        # vanish exactly on non-faces
        pres = gr_nu_reduced(TruncatedSemigroup(simplex_cfg, simplex_q2, 4))
        ideal = stanley_reisner(simplex_cfg, simplex_q2)
        facets = [set(c.vertices) for c in simplex_q2.cells]
        cls = {i: (1, *simplex_cfg.points[i]) for i in ideal.variables}
        for i in ideal.variables:
            for j in ideal.variables:
                if i >= j:
                    continue
                is_face = any({i, j} <= f for f in facets)
                assert (pres.product(cls[i], cls[j]) is not None) == is_face
        # the single minimal non-face {0, 1, 2} kills the triple product
        pair = pres.product(cls[0], cls[1])
        assert pair is not None
        assert pres.product(pair, cls[2]) is None
        assert ideal.nonfaces == ((0, 1, 2),)


def _old_table(pres) -> dict:
    """The full product table, rebuilt from the components alone: u + w when
    some component holds both classes, else None (zero), for positive-degree
    basis classes u before w with d_u + d_w within the bound."""
    comps = [{pres.basis[i] for i in comp} for comp in pres.components]
    pos = [u for u in pres.basis if u[0] > 0]
    return {
        (u, w): tuple(map(add, u, w)) if any(u in c and w in c for c in comps) else None
        for i, u in enumerate(pos)
        for w in pos[i:]
        if u[0] + w[0] <= pres.bound
    }


@pytest.fixture(scope="module")
def mask_cases(seg_cfg, seg_sub, simplex_cfg, simplex_q2, square_cfg):
    square_sub = subdivide(square_cfg, WeightMatrix(rows=((1, 0, 0, 0),)))
    return {
        "segment": (seg_cfg, seg_sub),
        "simplex": (simplex_cfg, simplex_q2),
        "square": (square_cfg, square_sub),
    }


class TestMaskRule:
    """The zero products and ``product`` read off the component bitmasks
    agree with the product table built from the components."""

    @pytest.mark.parametrize("bound", [4, 5, 6, 7])
    @pytest.mark.parametrize("case", ["segment", "simplex", "square"])
    @pytest.mark.parametrize("build", [gr_v_present, gr_nu_reduced])
    def test_matches_product_table(self, mask_cases, case, bound, build):
        cfg, s = mask_cases[case]
        pres = build(TruncatedSemigroup(cfg, s, bound))
        old = _old_table(pres)
        assert old
        for (u, w), prod in old.items():
            assert pres.product(u, w) == prod
            assert pres.product(w, u) == prod
        zeros = sorted(k for k, v in old.items() if v is None)
        assert [(pres.basis[i], pres.basis[j]) for i, j in pres.table] == zeros

    def test_out_of_range_raises(self, seg_cfg, seg_sub):
        pres = gr_nu_reduced(TruncatedSemigroup(seg_cfg, seg_sub, 4))
        zero, top = pres.basis[::len(pres.basis) - 1]
        assert zero[0] == 0 and top[0] == 4
        outside = (1, 1)  # 1 is no point of the segment
        pairs = [(zero, (1, 0)), ((1, 0), zero), (top, (1, 0)), (outside, (1, 0))]
        for u, w in pairs:
            with pytest.raises(KeyError):
                pres.product(u, w)
        assert pres.product((3, 0), (1, 0)) == (4, 0)


DATA = Path(__file__).resolve().parents[1] / "scripts" / "data"
# the origin is interior to each: a height above the lower hull leaves it
# unmarked, and its classes nilpotent in the reduced algebra of nu
_LINE = PointConfig(dim=1, points=((-2,), (-1,), (0,), (2,), (4,)))
_TRIANGLE = PointConfig(dim=2, points=((-1, -1), (2, -1), (-1, 2), (0, 0)))
_PINWHEEL = PointConfig(dim=2, points=((0, 0), (4, 0), (0, 4), (1, 1), (2, 1), (1, 2)))
_TETRAHEDRON = PointConfig(
    dim=3, points=((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1), (0, 0, 0))
)


def _check_index_form(cfg, s, bound):
    """Both presentations by class index against the same ones on points:
    the components, the cells of each class keyed by point, the pairs loop
    on points, the least multiple found cell cone by cell cone, and
    ``product`` on every pair of positive-degree classes within the bound."""
    points = semigroup_up_to(cfg, bound)
    fresh = TruncatedSemigroup(cfg, s, bound)
    by_points = {
        gr_v_present: [cell_semigroup_by_contains(cfg, cell, points) for cell in s.cells],
        gr_nu_reduced: [[u for u in points if in_SQ1(q, u)] for q in fresh.marked],
    }
    t = TruncatedSemigroup(cfg, s, bound)
    for build, comps in by_points.items():
        pres = build(t)
        assert pres.basis == tuple(points)
        assert [[pres.basis[i] for i in comp] for comp in pres.components] == comps
        masks = class_masks_by_points(points, comps)
        assert pres.masks == [masks[u] for u in points]
        zeros = zero_products_by_points(points, bound, masks)
        assert [(pres.basis[i], pres.basis[j]) for i, j in pres.table] == list(zeros)
        assert [(pres.basis[i], w) for i, w in pres.nilpotents] == [
            (u, least_multiple_by_cones(fresh, u)) for u in points if u[0] > 0 and not masks[u]
        ]
        pos = [u for u in points if u[0] > 0]
        for u in pos:
            for w in pos:
                if u[0] + w[0] <= bound:
                    product = tuple(map(add, u, w)) if masks[u] & masks[w] else None
                    assert pres.product(u, w) == product


class TestIndexForm:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_point_form(self, data):
        cfg = data.draw(st.sampled_from([_LINE, _TRIANGLE, _PINWHEEL, _TETRAHEDRON]))
        # small integer heights leave the interior points unmarked often
        row = st.lists(st.integers(-3, 3), min_size=cfg.r, max_size=cfg.r).map(tuple)
        psi = WeightMatrix(rows=tuple(data.draw(st.lists(row, min_size=1, max_size=2))))
        _check_index_form(cfg, subdivide(cfg, psi), data.draw(st.integers(2, 6)))

    @pytest.mark.parametrize(
        "config, matrix, bound",
        # the cube at bound 3, and the simplex with its interior point
        # unmarked, where every class off the vertices' monoid is nilpotent
        [("cube", "cube_psi", 3), ("simplex", "simplex_psi_unmarked", 5)],
    )
    def test_pinned_cases(self, config, matrix, bound):
        cfg = io.config_from_json(io.load_json(DATA / f"{config}.json"))
        psi = io.matrix_from_json(io.load_json(DATA / f"{matrix}.json"))
        _check_index_form(cfg, subdivide(cfg, psi), bound)


class TestStanleyReisner:
    def test_running_example(self, seg_cfg, seg_sub):
        ideal = stanley_reisner(seg_cfg, seg_sub)
        assert ideal.variables == (0, 2, 4)
        assert ideal.nonfaces == ((0, 4),)
        assert ideal.nilpotent == (1, 3)

    def test_simplex_q2(self, simplex_cfg, simplex_q2):
        ideal = stanley_reisner(simplex_cfg, simplex_q2)
        assert ideal.variables == (0, 1, 2, 3)
        assert ideal.nonfaces == ((0, 1, 2),)
        assert ideal.nilpotent == ()

    def test_single_simplex_zero_ideal(self, simplex_cfg, simplex_q1):
        ideal = stanley_reisner(simplex_cfg, simplex_q1)
        assert ideal.nonfaces == ()
        assert ideal.nilpotent == (3,)

    def test_requires_triangulation(self, simplex_cfg, simplex_q0):
        with pytest.raises(ValueError):
            stanley_reisner(simplex_cfg, simplex_q0)


class TestKhovanskii:
    def test_running_example_pinned(self, seg_cfg, seg_sub):
        rep = khovanskii_report(TruncatedSemigroup(seg_cfg, seg_sub, 4))
        # the marked monoid of [-2, 0] is generated in degree 1
        assert rep.per_cell_extras[0] == ()
        # odd characters in the cone over [0, 4] need new generators
        extras = set(rep.per_cell_extras[1])
        assert (2, 1) in extras and (3, 1) in extras
        assert all(e % 2 == 1 for _, e in extras)
        # generated + extra partitions the positive-degree semigroup
        from lexfan.quasival import semigroup_up_to

        total = {u for u in semigroup_up_to(seg_cfg, 4) if u[0] > 0}
        got = set(rep.generated) | {u for u, _ in rep.extra_generators}
        assert got == total

    def test_trivial_normal_segment(self):
        from lexfan.config import PointConfig

        cfg = PointConfig(dim=1, points=((0,), (1,), (2,)))
        rep = khovanskii_report(TruncatedSemigroup(cfg, trivial_subdivision(cfg), 4))
        assert rep.extra_generators == ()

    def test_simplex_q2_reports_per_cell(self, simplex_cfg, simplex_q2):
        rep = khovanskii_report(TruncatedSemigroup(simplex_cfg, simplex_q2, 3))
        assert len(rep.per_cell_extras) == 3
