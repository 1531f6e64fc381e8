"""Condition cones, induced subdivisions (with the fiber oracle),
regularity, enumeration, and the elementary row moves."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lexfan import gkzfan, lp
from lexfan.cones import PolyCone
from lexfan.config import (
    MarkedCell,
    MarkedSubdivision,
    PointConfig,
    refines,
    trivial_subdivision,
    validate_subdivision,
)
from lexfan.errors import BudgetExceeded, DimensionError, InvariantError
from lexfan.exactlex import LexVec, WeightMatrix
from lexfan.gkzfan import (
    add_row_multiple,
    closed_member,
    condition_cone,
    condition_generators,
    cone_dim,
    elementary_moves,
    enumerate_regular_subdivisions,
    enumerate_subdivisions,
    fiber_value,
    g_eval,
    is_regular,
    linear_extension,
    open_member,
    scale_row,
    shift_row,
    subdivide,
)
from lexfan.linalg import primitive, rank

from helpers import random_matrix


class TestSubdivide:
    def test_running_example_cells(self, seg_cfg, seg_psi, seg_sub):
        assert seg_sub == MarkedSubdivision(
            cells=(
                MarkedCell(vertices=(0, 2), marking=(0, 2)),
                MarkedCell(vertices=(2, 4), marking=(2, 4)),
            )
        )

    def test_zero_matrix_gives_trivial(self, seg_cfg):
        psi = WeightMatrix(rows=((0, 0, 0, 0, 0),))
        assert subdivide(seg_cfg, psi) == trivial_subdivision(seg_cfg)

    def test_simplex_rank1_both_signs(self, simplex_cfg, simplex_q1, simplex_q2):
        up = WeightMatrix(rows=((0, 0, 0, 1),))
        down = WeightMatrix(rows=((0, 0, 0, -1),))
        assert subdivide(simplex_cfg, up) == simplex_q2
        assert subdivide(simplex_cfg, down) == simplex_q1

    def test_dimension_error(self, seg_cfg):
        with pytest.raises(DimensionError):
            subdivide(seg_cfg, WeightMatrix(rows=((1, 2, 3),)))

    def test_against_fiber_oracle(self, seg_cfg, seg_psi, seg_sub):
        plm = linear_extension(seg_cfg, seg_sub, seg_psi)
        samples = [
            (1, Fraction(-1)),
            (1, Fraction(2)),
            (1, Fraction(-2)),
            (1, Fraction(4)),
            (2, Fraction(-3)),
            (2, Fraction(5)),
            (3, Fraction(0)),
            (3, Fraction(-11, 2)),
            (3, Fraction(23, 3)),
            (5, Fraction(1, 7)),
        ]
        for d, a in samples:
            assert g_eval(plm, (d, a)) == fiber_value(seg_cfg, seg_psi, (d, a))

    def test_fiber_oracle_random_matrices(self, seg_cfg):
        rng = random.Random(31)
        for _ in range(5):
            psi = random_matrix(rng, rng.randint(1, 2), seg_cfg.r)
            s = subdivide(seg_cfg, psi)
            plm = linear_extension(seg_cfg, s, psi)
            for d in (1, 2):
                for num in range(-2 * d, 4 * d + 1):
                    w = (d, Fraction(num))
                    assert g_eval(plm, w) == fiber_value(seg_cfg, psi, w)

    def test_fiber_empty_outside(self, seg_cfg, seg_psi):
        assert fiber_value(seg_cfg, seg_psi, (1, Fraction(5))) is None


class TestPiecewiseLinear:
    def test_pinned_values(self, seg_plm):
        assert g_eval(seg_plm, (1, -1)) == LexVec(["3/2", "1/2"])
        assert g_eval(seg_plm, (1, 2)) == LexVec(["3/2", "1"])
        assert g_eval(seg_plm, (0, 0)) == LexVec([0, 0])

    def test_outside_domain(self, seg_plm):
        with pytest.raises(ValueError):
            g_eval(seg_plm, (1, 5))
        with pytest.raises(ValueError):
            g_eval(seg_plm, (-1, 0))

    def test_superadditive(self, seg_plm):
        pts = [(1, Fraction(-2)), (1, Fraction(0)), (2, Fraction(3)), (1, Fraction(4))]
        for u in pts:
            for w in pts:
                s = (u[0] + w[0], u[1] + w[1])
                assert g_eval(seg_plm, u) + g_eval(seg_plm, w) <= g_eval(seg_plm, s)

    def test_extension_rejects_non_member(self, seg_cfg, seg_psi):
        # the running matrix is not affine on the fully marked trivial cell
        with pytest.raises(ValueError):
            linear_extension(seg_cfg, trivial_subdivision(seg_cfg), seg_psi)


class TestConditionCone:
    def test_reduced_equals_full(self, seg_cfg, seg_sub, simplex_cfg, simplex_q2):
        for cfg, s in ((seg_cfg, seg_sub), (simplex_cfg, simplex_q2)):
            reduced = condition_cone(cfg, s).cone
            gens = condition_generators(cfg, s, all_bases=True)
            full = PolyCone.from_generators(
                cfg.r,
                rays=[g.vector for g in gens if not g.two_sided],
                lines=[g.vector for g in gens if g.two_sided],
            )
            assert reduced == full

    def test_simplex_cones_pinned(self, simplex_cfg, simplex_q0, simplex_q1, simplex_q2):
        u = (-1, -1, -1, 3)
        c0 = condition_cone(simplex_cfg, simplex_q0).cone
        c1 = condition_cone(simplex_cfg, simplex_q1).cone
        c2 = condition_cone(simplex_cfg, simplex_q2).cone
        assert c0 == PolyCone.from_generators(4, lines=[u])
        assert c1 == PolyCone.from_generators(4, rays=[u])
        assert c2 == PolyCone.from_generators(4, rays=[tuple(-x for x in u)])

    def test_closed_membership(self, seg_cfg, seg_psi, seg_sub):
        rep = closed_member(seg_cfg, seg_psi, seg_sub)
        assert rep.member
        # strict negativity on the one-sided (unmarked-point) generators
        assert all(
            sign < 0 for g, sign in rep.signs if not g.two_sided
        )
        assert all(sign == 0 for g, sign in rep.signs if g.two_sided)

    def test_closed_non_membership_of_coarsening(self, seg_cfg, seg_psi):
        assert not closed_member(
            seg_cfg, seg_psi, trivial_subdivision(seg_cfg)
        ).member

    def test_open_membership(self, seg_cfg, seg_psi, seg_sub):
        assert open_member(seg_cfg, seg_psi, seg_sub)
        assert not open_member(seg_cfg, seg_psi, trivial_subdivision(seg_cfg))

    def test_cone_dims_pinned(self, simplex_cfg, simplex_q0, simplex_q2):
        assert cone_dim(simplex_cfg, simplex_q2, 1) == 4
        assert cone_dim(simplex_cfg, simplex_q2, 3) == 12
        assert cone_dim(simplex_cfg, simplex_q0, 2) == 6


class TestRegularity:
    def test_examples_regular(
        self, simplex_cfg, simplex_q0, simplex_q1, simplex_q2, seg_cfg, seg_sub
    ):
        for s in (simplex_q0, simplex_q1, simplex_q2):
            assert is_regular(simplex_cfg, s)
        assert is_regular(seg_cfg, seg_sub)

    def test_pinwheel_not_regular(self, pinwheel_cfg, pinwheel_tri):
        assert not is_regular(pinwheel_cfg, pinwheel_tri)
        assert condition_cone(pinwheel_cfg, pinwheel_tri).witness_height is None

    def test_witness_height_induces_subdivision(self, simplex_cfg, simplex_q2):
        h = condition_cone(simplex_cfg, simplex_q2).witness_height
        assert h is not None
        assert subdivide(simplex_cfg, WeightMatrix(rows=(h,))) == simplex_q2


class TestEnumeration:
    def test_simplex_all_three(
        self, simplex_cfg, simplex_q0, simplex_q1, simplex_q2
    ):
        subs = enumerate_subdivisions(simplex_cfg)
        assert set(subs) == {simplex_q0, simplex_q1, simplex_q2}
        regular = enumerate_regular_subdivisions(simplex_cfg)
        assert {cc.subdivision for cc in regular} == set(subs)

    def test_square_three(self, square_cfg):
        subs = enumerate_subdivisions(square_cfg)
        assert len(subs) == 3
        assert sum(1 for s in subs if len(s.cells) == 2) == 2

    def test_two_point_segment_single_entry(self):
        from lexfan.config import PointConfig

        cfg = PointConfig(dim=1, points=((0,), (1,)))
        subs = [cc.subdivision for cc in enumerate_regular_subdivisions(cfg)]
        assert subs == [trivial_subdivision(cfg)]

    def test_budget(self, simplex_cfg):
        with pytest.raises(BudgetExceeded):
            enumerate_subdivisions(simplex_cfg, budget=2)

    def test_partition_sampled(self, square_cfg):
        subs = [cc.subdivision for cc in enumerate_regular_subdivisions(square_cfg)]
        rng = random.Random(77)
        for _ in range(25):
            psi = random_matrix(rng, rng.randint(1, 3), square_cfg.r)
            s = subdivide(square_cfg, psi)
            assert sum(1 for t in subs if t == s) == 1


@pytest.fixture(scope="module")
def fans(seg_cfg, simplex_cfg, square_cfg, pinwheel_cfg):
    """Every cover the search finds, per configuration."""
    return {
        cfg: enumerate_subdivisions(cfg)
        for cfg in (seg_cfg, simplex_cfg, square_cfg, pinwheel_cfg)
    }


@pytest.fixture(scope="module")
def regular_fans(fans):
    return {cfg: [s for s in subs if is_regular(cfg, s)] for cfg, subs in fans.items()}


def _lp_regular(cfg, s) -> bool:
    """The max-slack LP oracle: maximize t subject to h.l = 0 on two-sided
    generators l, h.u + t <= 0 on one-sided generators u, and t <= 1.  The
    open cone of s is nonempty iff the optimum is positive."""
    eqs, strict = [], []
    for g in condition_generators(cfg, s):
        (eqs if g.two_sided else strict).append(list(g.vector))
    r = cfg.r
    res = lp.solve_lp(
        [0] * r + [1],
        [u + [1] for u in strict] + [[0] * r + [1]],
        [0] * len(strict) + [1],
        [l + [0] for l in eqs],
        [0] * len(eqs),
    )
    return res.status == lp.OPTIMAL and res.value > 0


@st.composite
def oracle_configs(draw, pinwheel: PointConfig):
    """Random lattice configurations (dim 1-2, r <= 6), the pinwheel, and
    the pinwheel scaled by 4 with its inner triangle moved by at most 1 per
    coordinate; most of these keep a non-regular triangulation."""
    kind = draw(st.sampled_from(["random", "pinwheel", "perturbed"]))
    if kind == "pinwheel":
        return pinwheel
    if kind == "perturbed":
        dim, step = 2, st.integers(-1, 1)
        pts = [tuple(4 * c for c in p) for p in pinwheel.points]
        pts[3:] = [tuple(c + draw(step) for c in p) for p in pts[3:]]
    else:
        dim = draw(st.integers(1, 2))
        point = st.tuples(*[st.integers(0, 4)] * dim)
        pts = draw(st.lists(point, min_size=dim + 1, max_size=6, unique=True))
    assume(len(set(pts)) == len(pts) and rank([(1,) + p for p in pts]) == dim + 1)
    return PointConfig(dim=dim, points=tuple(pts))


class TestOracles:
    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_witness_height_matches_lp(self, pinwheel_cfg, data):
        cfg = data.draw(oracle_configs(pinwheel_cfg))
        for s in enumerate_subdivisions(cfg):
            h = condition_cone(cfg, s).witness_height
            assert (h is not None) == _lp_regular(cfg, s)
            if h is not None:
                assert type(h) is tuple and all(type(x) is int for x in h)
                assert primitive(h) == h
                assert subdivide(cfg, WeightMatrix(rows=(h,))) == s

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_ledger_rule_is_open_membership(
        self, regular_fans, seg_cfg, simplex_cfg, square_cfg, data
    ):
        cfg = data.draw(st.sampled_from([seg_cfg, simplex_cfg, square_cfg]))
        entry = st.fractions(min_value=-9, max_value=9, max_denominator=3)
        row = st.lists(entry, min_size=cfg.r, max_size=cfg.r).map(tuple)
        psi = WeightMatrix(rows=tuple(data.draw(st.lists(row, min_size=1, max_size=3))))
        assert closed_member(cfg, psi, subdivide(cfg, psi)).open_member
        for t in regular_fans[cfg]:
            assert closed_member(cfg, psi, t).open_member == open_member(cfg, psi, t)

    def test_cone_inclusion_is_refinement(self, regular_fans):
        for cfg, subs in regular_fans.items():
            cones = [condition_cone(cfg, s).cone for s in subs]
            for i, j in itertools.permutations(range(len(subs)), 2):
                assert (cones[i] <= cones[j]) == refines(cfg, subs[i], subs[j])

    def test_covers_are_subdivisions(self, fans, pinwheel_cfg, pinwheel_tri):
        for cfg, subs in fans.items():
            assert all(validate_subdivision(cfg, s).ok for s in subs)
        assert pinwheel_tri in fans[pinwheel_cfg]


class TestInvariants:
    def test_relation_vector_raises(self, monkeypatch, seg_cfg, seg_sub):
        monkeypatch.setattr(gkzfan, "solve", lambda *args: None)
        with pytest.raises(InvariantError):
            condition_generators(seg_cfg, seg_sub)

    def test_linear_extension_raises(self, monkeypatch, seg_cfg, seg_sub, seg_psi):
        monkeypatch.setattr(gkzfan, "solve", lambda *args: None)
        with pytest.raises(InvariantError):
            linear_extension(seg_cfg, seg_sub, seg_psi)


class TestRowMoves:
    def test_moves_preserve_subdivision(self, seg_cfg, seg_psi, seg_sub):
        for m in elementary_moves(seg_psi):
            assert subdivide(seg_cfg, m) == seg_sub

    def test_scale_row_positive_only(self, seg_psi):
        with pytest.raises(ValueError):
            scale_row(seg_psi, 0, 0)
        with pytest.raises(ValueError):
            scale_row(seg_psi, 0, Fraction(-1, 2))

    def test_add_row_multiple_direction(self, seg_psi):
        with pytest.raises(ValueError):
            add_row_multiple(seg_psi, 1, 0, 1)
        with pytest.raises(ValueError):
            add_row_multiple(seg_psi, 0, 0, 1)
        moved = add_row_multiple(seg_psi, 0, 1, Fraction(1, 2))
        assert moved.rows[0] == seg_psi.rows[0]

    def test_shift_row(self, seg_psi):
        shifted = shift_row(seg_psi, 1, Fraction(3))
        assert shifted.rows[1] == tuple(x + 3 for x in seg_psi.rows[1])
