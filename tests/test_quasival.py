"""The graded semigroup, the two quasi-valuations, their gap, power
sequences, accumulation, elementarity, and full-rank checks."""

import pytest

from lexfan.errors import DegreeOverflow
from lexfan.exactlex import INFINITY, LexVec, WeightMatrix
from lexfan.gkzfan import linear_extension, subdivide
from lexfan.quasival import (
    Expr,
    GradedPoint,
    cell_semigroup,
    delta,
    delta_image,
    delta_point,
    geometric_full_rank,
    in_any_SQ1,
    in_cell_cone,
    in_SQ1,
    is_elementary,
    is_full_rank,
    nu_point,
    nu_quasi,
    power_seq,
    rep_set,
    semigroup_up_to,
    stack,
    stretch_factor,
    v_quasi,
    windowed_accumulation,
)


def gp(d, e):
    return GradedPoint(d, (e,))


@pytest.fixture(scope="module")
def f_running():
    return Expr.from_terms([(gp(1, -1), 1), (gp(1, 2), 1)])


class TestSemigroup:
    def test_degree_two_census(self, seg_cfg):
        elems = semigroup_up_to(seg_cfg, 2)
        expected = {(0, 0)}
        chars = [-2, -1, 0, 2, 4]
        expected |= {(1, c) for c in chars}
        expected |= {(2, a + b) for a in chars for b in chars}
        assert {u.vector for u in elems} == expected
        assert len(elems) == 17

    def test_membership(self, seg_cfg):
        assert rep_set(seg_cfg, gp(2, 1))  # -1 + 2
        assert not rep_set(seg_cfg, gp(1, 1))
        assert not rep_set(seg_cfg, gp(2, 7))

    def test_rep_set_pinned(self, seg_cfg):
        assert sorted(rep_set(seg_cfg, gp(2, -2))) == [
            (0, 2, 0, 0, 0),
            (1, 0, 1, 0, 0),
        ]

    def test_rep_set_counts_degree(self, seg_cfg):
        # representatives of (3, 0)
        reps = rep_set(seg_cfg, gp(3, 0))
        assert all(sum(a) == 3 for a in reps)
        assert all(
            sum(c * x for c, x in zip(a, [-2, -1, 0, 2, 4])) == 0 for a in reps
        )


class TestExpr:
    def test_cancellation(self):
        f = Expr.from_terms([(gp(1, 0), 1), (gp(1, 0), -1)])
        assert f.is_zero()

    def test_product_support(self, f_running):
        sq = f_running * f_running
        assert {u.vector for u in sq.support} == {(2, -2), (2, 1), (2, 4)}

    def test_power_matches_repeated_product(self, f_running):
        assert f_running.power(3) == f_running * f_running * f_running

    def test_support_vertices(self):
        f = Expr.from_terms([(gp(1, -2), 1), (gp(1, 0), 2), (gp(1, 4), 1)])
        assert {u.vector for u in f.support_vertices()} == {(1, -2), (1, 4)}


class TestValuations:
    def test_pinned_running_values(self, seg_cfg, seg_psi, seg_plm, f_running):
        assert v_quasi(seg_plm, f_running).value == LexVec(["3/2", "1/2"])
        assert v_quasi(seg_plm, f_running, use_vertices=True).value == LexVec(
            ["3/2", "1/2"]
        )
        assert nu_quasi(seg_cfg, seg_psi, f_running).value == LexVec([0, 0])

    def test_zero_expression(self, seg_cfg, seg_psi, seg_plm):
        assert v_quasi(seg_plm, Expr.from_terms([])).value is INFINITY
        assert nu_quasi(seg_cfg, seg_psi, Expr.from_terms([])).value is INFINITY

    def test_nu_point_pinned(self, seg_cfg, seg_psi):
        val, alpha = nu_point(seg_cfg, seg_psi, gp(2, -2))
        assert val == LexVec([3, 1])
        assert alpha == (1, 0, 1, 0, 0)

    def test_nu_degree_overflow(self, seg_cfg, seg_psi):
        with pytest.raises(DegreeOverflow):
            nu_point(seg_cfg, seg_psi, gp(13, 0), degree_bound=12)

    def test_marked_point_equality(self, seg_cfg, seg_psi, seg_plm):
        # f_(1,0): the height of a marked point is both V and nu
        f = Expr.basis(gp(1, 0))
        assert v_quasi(seg_plm, f).value == seg_psi.column(2)
        assert nu_quasi(seg_cfg, seg_psi, f).value == seg_psi.column(2)

    def test_axioms_sampled(self, seg_cfg, seg_psi, seg_plm):
        fs = [
            Expr.basis(gp(1, -1)),
            Expr.basis(gp(1, 2)),
            Expr.from_terms([(gp(1, -2), 1), (gp(1, 0), "2/3")]),
            Expr.from_terms([(gp(2, -2), 1), (gp(1, 4), -3)]),
        ]
        for f in fs:
            vf = v_quasi(seg_plm, f).value
            # scalar invariance
            scaled = Expr.from_terms([(u, 5 * c) for u, c in f.terms])
            assert v_quasi(seg_plm, scaled).value == vf
            assert (
                nu_quasi(seg_cfg, seg_psi, scaled).value
                == nu_quasi(seg_cfg, seg_psi, f).value
            )
            for g in fs:
                vg = v_quasi(seg_plm, g).value
                # superadditivity of products
                assert vf + vg <= v_quasi(seg_plm, f * g).value
                nf = nu_quasi(seg_cfg, seg_psi, f).value
                ng = nu_quasi(seg_cfg, seg_psi, g).value
                assert nf + ng <= nu_quasi(seg_cfg, seg_psi, f * g).value
                # minimum property of sums
                ff = f * f
                h = Expr.from_terms(list(ff.terms) + list(g.terms))
                if not h.is_zero():
                    vh = v_quasi(seg_plm, h).value
                    assert min(v_quasi(seg_plm, ff).value, vg) <= vh

    def test_v_radical(self, seg_plm, f_running):
        v1 = v_quasi(seg_plm, f_running).value
        for ell in (2, 3, 4):
            assert v_quasi(seg_plm, f_running.power(ell)).value == v1 * ell

    def test_domination(self, seg_cfg, seg_psi, seg_plm):
        for u in semigroup_up_to(seg_cfg, 5):
            f = Expr.basis(u)
            vv = v_quasi(seg_plm, f).value
            nn = nu_quasi(seg_cfg, seg_psi, f).value
            assert nn <= vv  # nu <= V


class TestDelta:
    def test_pinned_values(self, seg_cfg, seg_psi, seg_plm):
        assert delta_point(seg_cfg, seg_psi, seg_plm, gp(1, -1)) == LexVec(
            ["-3/2", "1/2"]
        )
        assert delta_point(seg_cfg, seg_psi, seg_plm, gp(1, 2)) == LexVec(
            ["-3/2", "-1"]
        )
        assert delta_point(seg_cfg, seg_psi, seg_plm, gp(2, -2)) == LexVec([0, 0])

    def test_nonpositive_and_marked_zero(self, seg_cfg, seg_psi, seg_plm, seg_sub):
        zero = LexVec([0, 0])
        for u in semigroup_up_to(seg_cfg, 5):
            val = delta_point(seg_cfg, seg_psi, seg_plm, u)
            assert val <= zero
            assert (val == zero) == in_any_SQ1(seg_cfg, seg_sub, u)

    def test_delta_of_expression(self, seg_cfg, seg_psi, seg_plm):
        f = Expr.from_terms([(gp(1, -1), 1), (gp(2, -2), 1)])
        assert delta(seg_cfg, seg_psi, seg_plm, f) == LexVec(["-3/2", "1/2"])
        with pytest.raises(ValueError):
            delta(seg_cfg, seg_psi, seg_plm, Expr.from_terms([]))

    def test_image_pinned_and_stable(self, seg_cfg, seg_psi, seg_plm):
        img = delta_image(seg_cfg, seg_psi, seg_plm, 4)
        expected = {
            LexVec([0, 0]),
            LexVec(["-3/2", "1/2"]),
            LexVec(["-3/2", "-1"]),
            LexVec(["-9/4", "0"]),
            LexVec(["-15/4", "-1"]),
        }
        assert img.values == frozenset(expected)
        rev = delta_image(seg_cfg, seg_psi, seg_plm, 4, reverse=True)
        assert rev.values == img.values
        assert rev.per_cell == img.per_cell
        # per-cell values are sub-multisets of the global image
        assert all(pc <= img.values for pc in img.per_cell)


class TestCellMonoids:
    def test_in_cell_cone(self, seg_cfg, seg_sub):
        c1, c2 = seg_sub.cells
        assert in_cell_cone(seg_cfg, gp(1, -1), c1)
        assert not in_cell_cone(seg_cfg, gp(1, 2), c1)
        assert in_cell_cone(seg_cfg, gp(1, 2), c2)
        assert in_cell_cone(seg_cfg, gp(0, 0), c1)

    def test_in_SQ1_pinned(self, seg_cfg, seg_sub):
        c1 = seg_sub.cells[0]
        assert in_SQ1(seg_cfg, gp(2, -2), c1)
        assert not in_SQ1(seg_cfg, gp(1, -1), c1)
        assert not in_any_SQ1(seg_cfg, seg_sub, gp(1, -1))
        assert not in_any_SQ1(seg_cfg, seg_sub, gp(1, 2))
        # (2, 2) = -2 + 4 needs points from both cells, so it is in no S¹_Q
        assert not in_any_SQ1(seg_cfg, seg_sub, gp(2, 2))
        assert in_any_SQ1(seg_cfg, seg_sub, gp(2, 4))  # 0 + 4 inside [0, 4]

    def test_cell_semigroup(self, seg_cfg, seg_sub):
        right = seg_sub.cells[1]
        elems = cell_semigroup(seg_cfg, seg_sub, right, 1)
        assert {u.vector for u in elems} == {(0, 0), (1, 0), (1, 2), (1, 4)}

    def test_stretch_factors(self, seg_cfg, seg_sub, simplex_cfg, simplex_q2):
        assert stretch_factor(seg_cfg, seg_sub) == 4
        assert stretch_factor(simplex_cfg, simplex_q2) == 1

    def test_radicalization_by_stretch(self, seg_cfg, seg_psi, seg_plm):
        ell = stretch_factor(seg_cfg, seg_plm.subdivision)
        for u in semigroup_up_to(seg_cfg, 2):
            if u.d == 0:
                continue
            v_val = v_quasi(seg_plm, Expr.basis(u)).value
            nu_val, _ = nu_point(seg_cfg, seg_psi, u.scaled(ell))
            assert nu_val == v_val * ell


class TestPowerSequences:
    def test_pinned_sequence(self, seg_cfg, seg_psi, f_running):
        seq = power_seq(seg_cfg, seg_psi, f_running, window=8, degree_bound=16)
        expected = [
            (1, LexVec([0, 0])),
            (2, LexVec([0, "1/2"])),
            (3, LexVec([1, "2/3"])),
            (4, LexVec(["3/4", "3/4"])),
            (5, LexVec(["6/5", "3/5"])),
            (6, LexVec([1, "5/6"])),
            (7, LexVec(["9/7", "4/7"])),
            (8, LexVec(["9/8", "7/8"])),
        ]
        assert seq == expected

    def test_start_parameter(self, seg_cfg, seg_psi, f_running):
        seq = power_seq(
            seg_cfg, seg_psi, f_running, window=4, degree_bound=16, start=3
        )
        assert [ell for ell, _ in seq] == [3, 4]

    def test_degree_overflow(self, seg_cfg, seg_psi, f_running):
        with pytest.raises(DegreeOverflow):
            power_seq(seg_cfg, seg_psi, f_running, window=8, degree_bound=6)

    def test_accumulation_pinned(self, seg_cfg, seg_psi, f_running):
        seq = power_seq(seg_cfg, seg_psi, f_running, window=8, degree_bound=16)
        acc = windowed_accumulation([t for t in seq if t[0] >= 2])
        assert acc.candidates == frozenset(
            {LexVec(["3/2", "1"]), LexVec(["3/2", "1/2"])}
        )
        assert acc.liminf == LexVec(["3/2", "1/2"])
        assert acc.windowed

    def test_accumulation_constant_sequence(self):
        seq = [(ell, LexVec([1, 0])) for ell in range(1, 7)]
        acc = windowed_accumulation(seq)
        assert acc.candidates == frozenset({LexVec([1, 0])})
        assert acc.liminf == LexVec([1, 0])


class TestElementarity:
    def test_pinned(self, seg_psi, seg_plm, f_running):
        assert not is_elementary(seg_plm, seg_psi, f_running)
        f13 = Expr.from_terms([(gp(1, -2), 1), (gp(1, 0), 1)])
        assert is_elementary(seg_plm, seg_psi, f13)

    def test_zero_matrix_rejected(self, seg_cfg, seg_plm):
        zero = WeightMatrix(rows=((0, 0, 0, 0, 0),))
        with pytest.raises(ValueError):
            is_elementary(seg_plm, zero, Expr.basis(gp(1, 0)))


class TestFullRank:
    def test_running_matrix_injective_low_degree(self, seg_cfg, seg_plm):
        assert is_full_rank(seg_cfg, seg_plm, 6).full_rank

    def test_collision_found_for_flat_map(self, seg_cfg):
        zero = WeightMatrix(rows=((0, 0, 0, 0, 0),))
        s = subdivide(seg_cfg, zero)
        plm = linear_extension(seg_cfg, s, zero)
        res = is_full_rank(seg_cfg, plm, 2)
        assert not res.full_rank and res.collision is not None
        u, w = res.collision
        assert u != w

    def test_geometric_criterion(self, simplex_cfg, simplex_q2, simplex_q0):
        eye = WeightMatrix(
            rows=((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
        )
        assert geometric_full_rank(simplex_cfg, eye, simplex_q2)
        flat = WeightMatrix(rows=((1, 1, 1, 1),))
        assert not geometric_full_rank(simplex_cfg, flat, simplex_q2)
        with pytest.raises(ValueError):
            geometric_full_rank(simplex_cfg, eye, simplex_q0)

    def test_stack(self, seg_cfg, seg_psi, seg_sub):
        stacked = stack(seg_cfg, seg_psi)
        assert stacked.n_rows == seg_psi.n_rows + 1 + seg_cfg.dim
        assert stacked.rows[: seg_psi.n_rows] == seg_psi.rows
        assert subdivide(seg_cfg, stacked) == seg_sub
        s2 = subdivide(seg_cfg, stacked)
        plm2 = linear_extension(seg_cfg, s2, stacked)
        assert is_full_rank(seg_cfg, plm2, 5).full_rank
