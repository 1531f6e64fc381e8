"""Graded-algebra presentations, Stanley-Reisner ideals, Khovanskii
reports."""

import pytest

from lexfan.exactlex import WeightMatrix
from lexfan.gkzfan import shift_row, subdivide
from lexfan.degeneration import (
    gr_nu_reduced,
    gr_v_present,
    stanley_reisner,
)
from lexfan.quasival import GradedPoint, TruncatedSemigroup, in_SQ1

from helpers import trivial_subdivision
from paper import khovanskii_report


def gp(d, e):
    return GradedPoint(d, (e,))


class TestGrV:
    def test_running_example_products(self, seg_cfg, seg_sub):
        pres = gr_v_present(TruncatedSemigroup(seg_cfg, seg_sub, 6))
        # no common cell: [-2, 0] vs [0, 4] interiors
        assert pres.product(gp(1, -2), gp(1, 4)) is None
        # common cell [-2, 0]
        assert pres.product(gp(1, -2), gp(1, 0)) == gp(2, -2)
        # symmetric lookup
        assert pres.product(gp(1, 0), gp(1, -2)) == gp(2, -2)
        assert pres.nilpotents == ()
        assert len(pres.components) == len(seg_sub.cells)
        assert all(c.ok for c in pres.certificates)
        assert pres.equidimensional

    def test_radical_powers(self, seg_cfg, seg_sub):
        pres = gr_v_present(TruncatedSemigroup(seg_cfg, seg_sub, 6))
        # powers inside a single cell never vanish
        for u in (gp(1, -1), gp(1, 2), gp(2, -3)):
            for ell in (2, 3):
                if u.d * ell > 6:
                    continue
                assert pres.product(u.scaled(ell - 1), u) == u.scaled(ell)

    def test_associativity_sampled(self, seg_cfg, seg_sub):
        pres = gr_v_present(TruncatedSemigroup(seg_cfg, seg_sub, 6))
        deg1 = [u for u in pres.basis if u.d == 1]
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
        u = GradedPoint(3, (4, 1))  # interior to the cone over (0, 1, 3)
        w = GradedPoint(3, (1, 4))  # interior to the cone over (0, 2, 3)
        assert pres.product(u, w) is None
        assert pres.product(u, GradedPoint(1, (0, 0))) == GradedPoint(4, (4, 1))
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
        nil = {u.vector: w for u, w in pres.nilpotents}
        assert nil[(1, -1)] == 2
        assert nil[(1, 2)] == 2
        # exactly the classes outside every marked submonoid are nilpotent
        for u in pres.basis:
            if u.d == 0:
                continue
            assert ((u.vector in nil)) == (not any(in_SQ1(q, u) for q in seg_marked))

    def test_marked_degree_one_never_nilpotent(self, seg_cfg, seg_sub):
        pres = gr_nu_reduced(TruncatedSemigroup(seg_cfg, seg_sub, 6))
        nil_vecs = {u.vector for u, _ in pres.nilpotents}
        for i in seg_sub.marked_points:
            assert (1,) + (seg_cfg.points[i]) not in nil_vecs

    def test_trivial_all_marked_no_nilpotents(self, seg_cfg):
        pres = gr_nu_reduced(TruncatedSemigroup(seg_cfg, trivial_subdivision(seg_cfg), 4))
        assert pres.nilpotents == ()

    def test_component_count(self, seg_cfg, seg_sub):
        pres = gr_nu_reduced(TruncatedSemigroup(seg_cfg, seg_sub, 6))
        assert len(pres.components) == len(seg_sub.cells)
        assert pres.equidimensional

    def test_sr_quotient_agreement_on_triangulation(self, simplex_cfg, simplex_q2):
        # the structure rule of the reduced algebra mirrors face membership
        # in the simplicial complex: pairwise products of variable classes
        # vanish exactly on non-faces
        pres = gr_nu_reduced(TruncatedSemigroup(simplex_cfg, simplex_q2, 4))
        ideal = stanley_reisner(simplex_cfg, simplex_q2)
        facets = [set(c.vertices) for c in simplex_q2.cells]
        cls = {i: GradedPoint(1, simplex_cfg.points[i]) for i in ideal.variables}
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
    comps = [set(comp) for comp in pres.components]
    pos = [u for u in pres.basis if u.d > 0]
    return {
        (u, w): u + w if any(u in c and w in c for c in comps) else None
        for i, u in enumerate(pos)
        for w in pos[i:]
        if u.d + w.d <= pres.bound
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
        zeros = sorted(
            (k for k, v in old.items() if v is None),
            key=lambda k: (k[0].vector, k[1].vector),
        )
        assert pres.table == tuple(zeros)

    def test_out_of_range_raises(self, seg_cfg, seg_sub):
        pres = gr_nu_reduced(TruncatedSemigroup(seg_cfg, seg_sub, 4))
        zero, top = pres.basis[0], pres.basis[-1]
        assert zero.d == 0 and top.d == 4
        outside = gp(1, 1)  # 1 is no point of the segment
        pairs = [(zero, gp(1, 0)), (gp(1, 0), zero), (top, gp(1, 0)), (outside, gp(1, 0))]
        for u, w in pairs:
            with pytest.raises(KeyError):
                pres.product(u, w)
        assert pres.product(gp(3, 0), gp(1, 0)) == gp(4, 0)


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
        extras = {u.vector for u in rep.per_cell_extras[1]}
        assert (2, 1) in extras and (3, 1) in extras
        assert all(e % 2 == 1 for _, e in extras)
        # generated + extra partitions the positive-degree semigroup
        from lexfan.quasival import semigroup_up_to

        total = {u.vector for u in semigroup_up_to(seg_cfg, 4) if u.d > 0}
        got = {u.vector for u in rep.generated} | {
            u.vector for u, _ in rep.extra_generators
        }
        assert got == total

    def test_trivial_normal_segment(self):
        from lexfan.config import PointConfig

        cfg = PointConfig(dim=1, points=((0,), (1,), (2,)))
        rep = khovanskii_report(TruncatedSemigroup(cfg, trivial_subdivision(cfg), 4))
        assert rep.extra_generators == ()

    def test_simplex_q2_reports_per_cell(self, simplex_cfg, simplex_q2):
        rep = khovanskii_report(TruncatedSemigroup(simplex_cfg, simplex_q2, 3))
        assert len(rep.per_cell_extras) == 3
