"""The graded semigroup, the two quasi-valuations, their gap, power
sequences, accumulation, elementarity, and full-rank checks."""

import re
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexfan import io, quasival
from lexfan.config import (
    MarkedCell,
    MarkedSubdivision,
    PointConfig,
    hull_of,
)
from lexfan.degeneration import gr_nu_reduced
from lexfan.errors import DegreeOverflow, DimensionError, InvariantError, SchemaError
from lexfan.exactlex import INFINITY, LexVec, WeightMatrix
from lexfan.gkzfan import linear_extension, subdivide
from lexfan.linalg import dot
from lexfan.quasival import (
    AccumulationReport,
    Expr,
    NuTable,
    Submonoid,
    TruncatedSemigroup,
    ValuationReport,
    cell_semigroup,
    delta,
    delta_image,
    delta_point,
    in_cell_cone,
    in_SQ1,
    least_multiple,
    nu_point,
    nu_quasi,
    power_seq,
    rep_set,
    semigroup_up_to,
    stack,
    stretch_factor,
    v_quasi,
    valuate,
    windowed_accumulation,
)

from helpers import reversed_delta_image, scaled, trivial_subdivision
from oracles import (
    bounded_combination,
    cell_maps_by_solve,
    cell_semigroup_by_contains,
    least_multiple_by_cones,
    mat_vec,
    value_by_cells,
)
from paper import geometric_full_rank, is_elementary, is_full_rank


DATA = Path(__file__).resolve().parents[1] / "scripts" / "data"


# Three points on a line with a gap: 3 is a vertex, 1 may be left unmarked.
_SHORT = PointConfig(dim=1, points=((0,), (1,), (3,)))
_CUBE = PointConfig(
    dim=3, points=tuple((a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1))
)


def _lattice_points(dim: int):
    """Graded points in a box, most off the semigroup, some of negative degree."""
    eta = st.lists(st.integers(-5, 5), min_size=dim, max_size=dim).map(tuple)
    return st.builds(lambda d, eta: (d, *eta), st.integers(-2, 4), eta)


@pytest.fixture(scope="module")
def f_running():
    return Expr.from_terms([((1, -1), 1), ((1, 2), 1)])


class TestGradedPoint:
    def test_coordinates_stay_int(self, seg_cfg, seg_sub):
        # a graded point is its vector (d, *eta), an int tuple wherever it is
        # built: parsed, enumerated, in a product of expressions and as the
        # product of two basis classes
        from lexfan.io import expr_from_json

        parsed = expr_from_json([{"d": 2, "eta": [5], "coeff": "1/2"}]).terms[0][0]
        f = Expr.from_terms([((2, -3), 1), ((1, 4), "1/2")])
        square = (f * f).support
        pres = gr_nu_reduced(TruncatedSemigroup(seg_cfg, seg_sub, 4))
        product = pres.product((1, -2), (1, 0))
        assert (parsed, square, product) == ((2, 5), ((2, 8), (3, 1), (4, -6)), (2, -2))
        for p in [parsed, *square, product, *semigroup_up_to(seg_cfg, 2)]:
            assert type(p) is tuple and all(type(c) is int for c in p)


class TestSemigroup:
    def test_degree_two_census(self, seg_cfg):
        elems = semigroup_up_to(seg_cfg, 2)
        expected = {(0, 0)}
        chars = [-2, -1, 0, 2, 4]
        expected |= {(1, c) for c in chars}
        expected |= {(2, a + b) for a in chars for b in chars}
        assert set(elems) == expected
        assert len(elems) == 17

    def test_membership(self, seg_cfg):
        assert rep_set(seg_cfg, (2, 1))  # -1 + 2
        assert not rep_set(seg_cfg, (1, 1))
        assert not rep_set(seg_cfg, (2, 7))

    def test_rep_set_pinned(self, seg_cfg):
        assert sorted(rep_set(seg_cfg, (2, -2))) == [
            (0, 2, 0, 0, 0),
            (1, 0, 1, 0, 0),
        ]

    def test_rep_set_counts_degree(self, seg_cfg):
        # representatives of (3, 0)
        reps = rep_set(seg_cfg, (3, 0))
        assert all(sum(a) == 3 for a in reps)
        assert all(
            sum(c * x for c, x in zip(a, [-2, -1, 0, 2, 4])) == 0 for a in reps
        )


class TestExpr:
    def test_cancellation(self):
        f = Expr.from_terms([((1, 0), 1), ((1, 0), -1)])
        assert f.is_zero()

    def test_product_support(self, f_running):
        sq = f_running * f_running
        assert set(sq.support) == {(2, -2), (2, 1), (2, 4)}

    def test_power_matches_repeated_product(self, f_running):
        assert f_running.power(3) == f_running * f_running * f_running

    def test_power_below_one_raises(self, f_running):
        assert f_running.power(1) == f_running
        for k in (0, -2):
            with pytest.raises(ValueError):
                f_running.power(k)

class TestValuations:
    def test_pinned_running_values(self, seg_cfg, seg_psi, seg_plm, f_running):
        assert v_quasi(seg_plm, f_running).value == LexVec(["3/2", "1/2"])
        assert nu_quasi(NuTable(seg_cfg, seg_psi, 12), f_running).value == LexVec([0, 0])

    def test_zero_expression(self, seg_cfg, seg_psi, seg_plm):
        assert v_quasi(seg_plm, Expr.from_terms([])).value is INFINITY
        assert nu_quasi(NuTable(seg_cfg, seg_psi, 12), Expr.from_terms([])).value is INFINITY

    def test_nu_point_pinned(self, seg_cfg, seg_psi):
        val, alpha = nu_point(NuTable(seg_cfg, seg_psi, 12), (2, -2))
        assert val == LexVec([3, 1])
        assert alpha == (1, 0, 1, 0, 0)

    def test_nu_degree_overflow(self, seg_cfg, seg_psi):
        with pytest.raises(DegreeOverflow):
            nu_point(NuTable(seg_cfg, seg_psi, 12), (13, 0))

    def test_marked_point_equality(self, seg_cfg, seg_psi, seg_plm):
        # f_(1,0): the height of a marked point is both V and nu
        f = Expr.basis((1, 0))
        assert v_quasi(seg_plm, f).value == seg_psi.column(2)
        assert nu_quasi(NuTable(seg_cfg, seg_psi, 12), f).value == seg_psi.column(2)

    def test_axioms_sampled(self, seg_cfg, seg_psi, seg_plm):
        nu = NuTable(seg_cfg, seg_psi, 12)
        fs = [
            Expr.basis((1, -1)),
            Expr.basis((1, 2)),
            Expr.from_terms([((1, -2), 1), ((1, 0), "2/3")]),
            Expr.from_terms([((2, -2), 1), ((1, 4), -3)]),
        ]
        for f in fs:
            vf = v_quasi(seg_plm, f).value
            # scalar invariance
            scaled = Expr.from_terms([(u, 5 * c) for u, c in f.terms])
            assert v_quasi(seg_plm, scaled).value == vf
            assert (
                nu_quasi(nu, scaled).value
                == nu_quasi(nu, f).value
            )
            for g in fs:
                vg = v_quasi(seg_plm, g).value
                # superadditivity of products
                assert vf + vg <= v_quasi(seg_plm, f * g).value
                nf = nu_quasi(nu, f).value
                ng = nu_quasi(nu, g).value
                assert nf + ng <= nu_quasi(nu, f * g).value
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
        nu = NuTable(seg_cfg, seg_psi, 12)
        for u in semigroup_up_to(seg_cfg, 5):
            f = Expr.basis(u)
            vv = v_quasi(seg_plm, f).value
            nn = nu_quasi(nu, f).value
            assert nn <= vv  # nu <= V


class TestDelta:
    def test_pinned_values(self, seg_cfg, seg_psi, seg_plm):
        assert delta_point(NuTable(seg_cfg, seg_psi, 12), seg_plm, (1, -1)) == LexVec(
            ["-3/2", "1/2"]
        )
        assert delta_point(NuTable(seg_cfg, seg_psi, 12), seg_plm, (1, 2)) == LexVec(
            ["-3/2", "-1"]
        )
        assert delta_point(NuTable(seg_cfg, seg_psi, 12), seg_plm, (2, -2)) == LexVec([0, 0])

    def test_nonpositive_and_marked_zero(self, seg_cfg, seg_psi, seg_plm, seg_marked):
        zero = LexVec([0, 0])
        nu = NuTable(seg_cfg, seg_psi, 12)
        for u in semigroup_up_to(seg_cfg, 5):
            val = delta_point(nu, seg_plm, u)
            assert val <= zero
            assert (val == zero) == any(in_SQ1(q, u) for q in seg_marked)

    def test_delta_of_expression(self, seg_cfg, seg_psi, seg_plm):
        f = Expr.from_terms([((1, -1), 1), ((2, -2), 1)])
        assert delta(NuTable(seg_cfg, seg_psi, 12), seg_plm, f) == LexVec(["-3/2", "1/2"])
        with pytest.raises(ValueError):
            delta(NuTable(seg_cfg, seg_psi, 12), seg_plm, Expr.from_terms([]))

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
        assert reversed_delta_image(seg_cfg, seg_psi, seg_plm, 4) == (img.values, img.per_cell)
        # per-cell values are sub-multisets of the global image
        assert all(pc <= img.values for pc in img.per_cell)


class TestCellMonoids:
    def test_in_cell_cone(self, seg_cfg, seg_sub):
        c1, c2 = seg_sub.cells
        assert in_cell_cone(seg_cfg, (1, -1), c1)
        assert not in_cell_cone(seg_cfg, (1, 2), c1)
        assert in_cell_cone(seg_cfg, (1, 2), c2)
        assert in_cell_cone(seg_cfg, (0, 0), c1)
        assert not in_cell_cone(seg_cfg, (0, 1), c1)
        # a negative degree is outside every cell cone, even where eta / d
        # would lie in the cell
        assert not in_cell_cone(seg_cfg, (-1, 1), c1)

    def test_in_SQ1_pinned(self, seg_cfg, seg_sub, seg_marked):
        c1 = Submonoid(seg_cfg, seg_sub.cells[0].marking)
        assert in_SQ1(c1, (2, -2))
        assert not in_SQ1(c1, (1, -1))
        assert not any(in_SQ1(q, (1, -1)) for q in seg_marked)
        assert not any(in_SQ1(q, (1, 2)) for q in seg_marked)
        # (2, 2) = -2 + 4 needs points from both cells, so it is in no S¹_Q
        assert not any(in_SQ1(q, (2, 2)) for q in seg_marked)
        assert any(in_SQ1(q, (2, 4)) for q in seg_marked)  # 0 + 4 inside [0, 4]

    def test_cell_semigroup(self, seg_cfg, seg_sub):
        right = seg_sub.cells[1]
        elems = semigroup_up_to(seg_cfg, 1)
        kept = cell_semigroup(seg_cfg, right, elems)
        assert {elems[i] for i in kept} == {(0, 0), (1, 0), (1, 2), (1, 4)}
        basis = semigroup_up_to(seg_cfg, 4)
        for cell in seg_sub.cells:  # one hull per cell, as in_cell_cone per element
            assert [basis[i] for i in cell_semigroup(seg_cfg, cell, basis)] == [
                u for u in basis if in_cell_cone(seg_cfg, u, cell)
            ]

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_cell_semigroup_matches_per_point_filter(
        self, seg_cfg, simplex_cfg, square_cfg, data
    ):
        cfg = data.draw(st.sampled_from([seg_cfg, simplex_cfg, square_cfg, _CUBE]))
        row = st.lists(st.integers(-4, 4), min_size=cfg.r, max_size=cfg.r).map(tuple)
        psi = WeightMatrix(rows=tuple(data.draw(st.lists(row, min_size=1, max_size=2))))
        elems = semigroup_up_to(cfg, data.draw(st.integers(0, 3)))
        elems += data.draw(st.lists(_lattice_points(cfg.dim), max_size=10))
        elems += data.draw(st.lists(_graded_points(cfg, 4), max_size=10))
        for cell in subdivide(cfg, psi).cells:
            kept = cell_semigroup(cfg, cell, elems)
            assert [elems[i] for i in kept] == cell_semigroup_by_contains(cfg, cell, elems)

    @pytest.mark.parametrize(
        "name, vertices",
        [("square", (0, 3)), ("square", (1,)), ("cube", (0, 1, 2, 3)), ("cube", (0, 7))],
    )
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_cell_semigroup_on_flat_cells(self, square_cfg, name, vertices, data):
        # hulls that are not full-dimensional: their cones have equations
        cfg = square_cfg if name == "square" else _CUBE
        cell = MarkedCell(vertices=vertices, marking=vertices)
        assert hull_of(tuple(cfg.points[i] for i in vertices)).cone.eq_normals
        elems = semigroup_up_to(cfg, 3) + data.draw(st.lists(_lattice_points(cfg.dim)))
        elems += data.draw(st.lists(_graded_points(cfg, 4), max_size=10))
        kept = [elems[i] for i in cell_semigroup(cfg, cell, elems)]
        assert kept == cell_semigroup_by_contains(cfg, cell, elems)
        assert any(u[0] == 3 for u in kept)
        with pytest.raises(DimensionError):
            cell_semigroup(cfg, cell, [(1,) + (0,) * (cfg.dim + 1)])

    def test_least_multiple_reads_cells_off_masks(self):
        # every nilpotent of the interior-unmarked simplex
        cfg = io.config_from_json(io.load_json(DATA / "simplex.json"))
        psi = io.matrix_from_json(io.load_json(DATA / "simplex_psi_unmarked.json"))
        t = TruncatedSemigroup(cfg, subdivide(cfg, psi), 12)
        oracle = TruncatedSemigroup(cfg, t.s, 12)
        nilpotents = gr_nu_reduced(t).nilpotents
        assert len(nilpotents) == 650
        for i, witness in nilpotents:
            u = t.basis[i]
            assert t.cell_masks[i] == sum(
                1 << ci for ci, cell in enumerate(t.s.cells) if in_cell_cone(cfg, u, cell)
            )
            assert witness == least_multiple(t, i) == least_multiple_by_cones(oracle, u)

    def test_stretch_factors(self, seg_cfg, seg_sub, simplex_cfg, simplex_q2):
        assert stretch_factor(TruncatedSemigroup(seg_cfg, seg_sub, 12)) == 4
        assert stretch_factor(TruncatedSemigroup(simplex_cfg, simplex_q2, 12)) == 1

    def test_radicalization_by_stretch(self, seg_cfg, seg_psi, seg_plm):
        ell = stretch_factor(TruncatedSemigroup(seg_cfg, seg_plm.subdivision, 12))
        nu = NuTable(seg_cfg, seg_psi, 12)
        for u in semigroup_up_to(seg_cfg, 2):
            if u[0] == 0:
                continue
            v_val = v_quasi(seg_plm, Expr.basis(u)).value
            nu_val, _ = nu_point(nu, scaled(u, ell))
            assert nu_val == v_val * ell

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_least_multiple_matches_knapsack(self, seg_cfg, simplex_cfg, square_cfg, data):
        cfg = data.draw(st.sampled_from([seg_cfg, _SHORT, simplex_cfg, square_cfg]))
        # small integer heights leave interior points unmarked often enough
        row = st.lists(st.integers(-4, 4), min_size=cfg.r, max_size=cfg.r).map(tuple)
        psi = WeightMatrix(rows=tuple(data.draw(st.lists(row, min_size=1, max_size=2))))
        s = subdivide(cfg, psi)
        t = TruncatedSemigroup(cfg, s, data.draw(st.integers(1, 6)))

        def lands(u):  # u is a combination of some cell's marking
            return any(bounded_combination(cfg, u, c.marking) is not None for c in s.cells)

        stretch = stretch_factor(t)
        for i, u in enumerate(t.basis):
            k = least_multiple(t, i)
            assert lands(scaled(u, k))
            assert not any(lands(scaled(u, j)) for j in range(1, k))
            assert lands(scaled(u, stretch))
        for i, witness in gr_nu_reduced(t).nilpotents:
            assert witness == least_multiple(t, i) > 1
            assert stretch % witness == 0

    def test_least_multiple_searches_only_cells_holding_u(self, square_cfg):
        # Psi = (1, 0, 0, 1) cuts the square along its 0-3 diagonal, and each
        # of the points 1 and 2 lies in one cell, the second cell for one of
        # them: no other cell's submonoid grows a layer
        s = subdivide(square_cfg, WeightMatrix(rows=((1, 0, 0, 1),)))
        assert len(s.cells) == 2
        for u in ((1, 1, 0), (1, 0, 1)):
            t = TruncatedSemigroup(square_cfg, s, 4)
            assert least_multiple(t, t.index[u]) == 1
            grown = [len(q._layers) > 1 for q in t.marked]
            assert grown == [in_cell_cone(square_cfg, u, cell) for cell in s.cells]
            assert grown.count(True) == 1

    @pytest.mark.parametrize("build", [stretch_factor, gr_nu_reduced])
    def test_unmarked_vertex_raises(self, seg_cfg, build):
        # the marking -1, 0, 2 leaves the vertices -2 and 4 unmarked, so no
        # multiple of (1, -2) is a combination of it
        s = MarkedSubdivision(cells=(MarkedCell(vertices=(0, 4), marking=(1, 2, 3)),))
        with pytest.raises(ValueError, match=re.escape("point (1, -2)")):
            build(TruncatedSemigroup(seg_cfg, s, 6))


class TestPowerSequences:
    def test_pinned_sequence(self, seg_cfg, seg_psi, f_running):
        seq = power_seq(NuTable(seg_cfg, seg_psi, 16), f_running, window=8)
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

    def test_degree_overflow(self, seg_cfg, seg_psi, f_running):
        with pytest.raises(DegreeOverflow):
            power_seq(NuTable(seg_cfg, seg_psi, 6), f_running, window=8)

    def test_accumulation_pinned(self, seg_cfg, seg_psi, f_running):
        seq = power_seq(NuTable(seg_cfg, seg_psi, 16), f_running, window=8)
        acc = windowed_accumulation([t for t in seq if t[0] >= 2])
        assert acc.candidates == frozenset(
            {LexVec(["3/2", "1"]), LexVec(["3/2", "1/2"])}
        )
        assert acc.liminf == LexVec(["3/2", "1/2"])

    def test_accumulation_constant_sequence(self):
        seq = [(ell, LexVec([1, 0])) for ell in range(1, 7)]
        acc = windowed_accumulation(seq)
        assert acc.candidates == frozenset({LexVec([1, 0])})
        assert acc.liminf == LexVec([1, 0])
        # two terms make no progression of three: no candidate, no liminf
        assert windowed_accumulation(seq[:2]).liminf is None


class TestElementarity:
    def test_pinned(self, seg_psi, seg_plm, f_running):
        assert not is_elementary(seg_plm, seg_psi, f_running)
        f13 = Expr.from_terms([((1, -2), 1), ((1, 0), 1)])
        assert is_elementary(seg_plm, seg_psi, f13)

    def test_zero_matrix_rejected(self, seg_cfg, seg_plm):
        zero = WeightMatrix(rows=((0, 0, 0, 0, 0),))
        with pytest.raises(ValueError):
            is_elementary(seg_plm, zero, Expr.basis((1, 0)))


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

    def test_stack_raises_when_subdivision_changes(
        self, seg_cfg, seg_psi, seg_sub, monkeypatch
    ):
        induced = iter([trivial_subdivision(seg_cfg), seg_sub])
        monkeypatch.setattr(quasival, "subdivide", lambda cfg, psi: next(induced))
        with pytest.raises(InvariantError):
            stack(seg_cfg, seg_psi)


def _fibre_max(cfg, psi, u):
    """nu by brute force: the first maximizer of Psi.alpha over the fibre,
    in rep_set order, or None off the semigroup."""
    best = None
    for alpha in rep_set(cfg, u):
        val = mat_vec(psi, alpha)
        if best is None or val > best[0]:
            best = (val, alpha)
    return best


def _lookup(table, u):
    """(nu(f_u), witness alpha) through the table's key, or None off the
    semigroup."""
    key = table.key(u)
    return None if key is None else table.decode(key)


@st.composite
def _graded_points(draw, cfg, max_degree):
    """A sum of d configuration points, sometimes moved off the semigroup by
    a unit step in each coordinate."""
    d = draw(st.integers(0, max_degree))
    picks = draw(st.lists(st.sampled_from(cfg.points), min_size=d, max_size=d))
    eta = [sum(p[k] for p in picks) for k in range(cfg.dim)]
    if draw(st.booleans()):
        eta = [e + draw(st.integers(-1, 1)) for e in eta]
    return (d, *eta)


class TestOracles:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_nu_table_matches_fibre_enumeration(
        self, seg_cfg, simplex_cfg, square_cfg, data
    ):
        cfg = data.draw(st.sampled_from([seg_cfg, simplex_cfg, square_cfg]))
        entry = st.fractions(min_value=-9, max_value=9, max_denominator=3)

        def affine(c):
            return tuple(c[0] + sum(a * x for a, x in zip(c[1:], p)) for p in cfg.points)

        # a row affine in the points is constant on every fibre; when all rows
        # are, every representative ties and the witness must be the
        # lex-smallest one
        row = st.one_of(
            st.lists(entry, min_size=cfg.r, max_size=cfg.r).map(tuple),
            st.lists(entry, min_size=cfg.dim + 1, max_size=cfg.dim + 1).map(affine),
        )
        psi = WeightMatrix(rows=tuple(data.draw(st.lists(row, min_size=1, max_size=3))))
        table = NuTable(cfg, psi, 8)
        # several points through one table, so later ones read the memo
        for u in data.draw(st.lists(_graded_points(cfg, 8), min_size=1, max_size=4)):
            expected = _fibre_max(cfg, psi, u)
            if expected is None:
                with pytest.raises(ValueError):
                    nu_point(table, u)
            else:
                assert nu_point(table, u) == expected

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_submonoid_matches_knapsack(self, seg_cfg, simplex_cfg, square_cfg, data):
        cfg = data.draw(st.sampled_from([seg_cfg, simplex_cfg, square_cfg]))
        indices = data.draw(
            st.lists(st.integers(0, cfg.r - 1), min_size=1, max_size=cfg.r, unique=True)
        )
        q = Submonoid(cfg, indices)
        for u in data.draw(st.lists(_graded_points(cfg, 8), min_size=1, max_size=4)):
            assert in_SQ1(q, u) == (bounded_combination(cfg, u, indices) is not None)


# A configuration in 3-space with negative coordinates on every axis, and a
# line of points in the plane at height 3: PointConfig rejects the line (its
# points do not span the plane), but NuTable and rep_set read only dim, r
# and points, so it exercises an axis of span 0, where the radix is 1.  Its
# facets do not cut out the line, but a point off it has a code that no
# split reaches.
_SPACE = PointConfig(
    dim=3, points=((0, 0, 0), (-1, 2, 0), (1, -1, -2), (0, 1, 3), (-2, -1, 1))
)
_LINE = SimpleNamespace(dim=2, r=4, points=((-1, 3), (0, 3), (2, 3), (5, 3)))


@st.composite
def _matrices(draw, cfg):
    """A weight matrix of 1-3 rows; an affine row ties every representative
    of a fibre, so the witness rule decides."""
    entry = st.fractions(min_value=-9, max_value=9, max_denominator=3)

    def affine(c):
        return tuple(c[0] + sum(a * x for a, x in zip(c[1:], p)) for p in cfg.points)

    row = st.one_of(
        st.lists(entry, min_size=cfg.r, max_size=cfg.r).map(tuple),
        st.lists(entry, min_size=cfg.dim + 1, max_size=cfg.dim + 1).map(affine),
    )
    return WeightMatrix(rows=tuple(draw(st.lists(row, min_size=1, max_size=3))))


def _check_box(cfg, table):
    """Every point the table holds in a face layer is in d times the
    bounding box: its code, read in the radix bound*span_k + 1, has digits
    <= d*span_k and nothing beyond the last digit."""
    lo = [min(c) for c in zip(*cfg.points)]
    spans = [max(c) - m for c, m in zip(zip(*cfg.points), lo)]
    held = [(d, code) for layers in table._layers.values()
            for d, layer in enumerate(layers) for code in layer]
    for d, code in held:
        for span in spans:
            code, digit = divmod(code, table.bound * span + 1)
            assert 0 <= digit <= d * span
        assert code == 0


@st.composite
def _box_neighbours(draw, cfg, d):
    """A point of degree d on a face of d times the bounding box, and its
    neighbour one unit past that face, outside the box."""
    lo = [min(c) for c in zip(*cfg.points)]
    hi = [max(c) for c in zip(*cfg.points)]
    eta = [draw(st.integers(d * a, d * b)) for a, b in zip(lo, hi)]
    k = draw(st.integers(0, cfg.dim - 1))
    step = draw(st.sampled_from([-1, 1]))
    eta[k] = d * (lo[k] if step < 0 else hi[k])
    inside = (d, *eta)
    eta[k] += step
    return inside, (d, *eta)


@st.composite
def _face_points(draw, cfg, d):
    """A sum of d points of one face of the hull: a vertex in a third of
    the draws, else the face cut out by a drawn set of facets (the whole
    hull when the set is empty or cuts out no point)."""
    hull = hull_of(tuple(cfg.points))
    if draw(st.integers(0, 2)) == 0:
        on = [hull.points[draw(st.sampled_from(hull.vertices))]]
    else:
        cut = draw(st.sets(st.sampled_from(hull.facets)))
        on = [p for p in cfg.points if all(dot(a, (1, *p)) == 0 for a in cut)]
    picks = draw(st.lists(st.sampled_from(on or cfg.points), min_size=d, max_size=d))
    return (d, *(sum(p[k] for p in picks) for k in range(cfg.dim)))


class TestPackedTable:
    """NuTable against the fibre oracle where its int packing is tight."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_oracle_in_space_and_on_a_line(self, data):
        cfg = data.draw(st.sampled_from([_SPACE, _LINE]))
        psi = data.draw(_matrices(cfg))
        table = NuTable(cfg, psi, data.draw(st.integers(1, 6)))
        points = _graded_points(cfg, table.bound)
        for u in data.draw(st.lists(points, min_size=1, max_size=4)):
            assert _lookup(table, u) == _fibre_max(cfg, psi, u)
        _check_box(cfg, table)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_degree_exactly_bound(self, seg_cfg, square_cfg, data):
        # sums of exactly `bound` points, often of one extreme point, where a
        # digit reaches bound*span_k, the largest the radix holds
        cfg = data.draw(st.sampled_from([seg_cfg, square_cfg, _SPACE, _LINE]))
        psi = data.draw(_matrices(cfg))
        bound = data.draw(st.integers(1, 5))
        table = NuTable(cfg, psi, bound)
        extreme = st.sampled_from(cfg.points).map(lambda p: [p] * bound)
        mixed = st.lists(st.sampled_from(cfg.points), min_size=bound, max_size=bound)
        sums = st.lists(st.one_of(extreme, mixed), min_size=1, max_size=4)
        for picks in data.draw(sums):
            u = (bound, *map(sum, zip(*picks)))
            assert _lookup(table, u) == _fibre_max(cfg, psi, u)
        _check_box(cfg, table)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_just_outside_the_box(self, seg_cfg, square_cfg, data):
        # one coordinate a unit past d times the box, the others anywhere in
        # it; at d = bound the packed code of such a character is the code of
        # a point inside (a carry or borrow between digits), so the table
        # must test the box rather than look the code up
        cfg = data.draw(st.sampled_from([seg_cfg, square_cfg, _SPACE, _LINE]))
        psi = data.draw(_matrices(cfg))
        table = NuTable(cfg, psi, data.draw(st.integers(1, 5)))
        for _ in range(data.draw(st.integers(1, 4))):
            d = data.draw(st.one_of(st.just(table.bound), st.integers(1, table.bound)))
            inside, u = data.draw(_box_neighbours(cfg, d))
            expected = _fibre_max(cfg, psi, inside)
            assert _lookup(table, inside) == expected
            assert _fibre_max(cfg, psi, u) is None
            assert _lookup(table, u) is None
            with pytest.raises(SchemaError):
                nu_point(table, u)
            assert _lookup(table, inside) == expected
        _check_box(cfg, table)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_splits_match_oracle_in_any_order(
        self, seg_cfg, simplex_cfg, square_cfg, data
    ):
        # points on vertices, faces and inside, and box neighbours off the
        # semigroup, asked in ascending and descending degree and in a drawn
        # order, each order on a fresh table, so that most lookups split
        cfg = data.draw(st.sampled_from([seg_cfg, simplex_cfg, square_cfg, _SPACE, _LINE]))
        psi = data.draw(_matrices(cfg))
        bound = data.draw(st.integers(1, 7))
        on_faces = st.integers(0, bound).flatmap(lambda d: _face_points(cfg, d))
        outside = st.integers(1, bound).flatmap(lambda d: _box_neighbours(cfg, d))
        point = st.one_of(on_faces, on_faces, outside.map(lambda pair: pair[1]))
        points = data.draw(st.lists(point, min_size=1, max_size=5))
        expected = {u: _fibre_max(cfg, psi, u) for u in points}
        ascending = sorted(points, key=lambda u: u[0])
        drawn = data.draw(st.permutations(points))
        for order in (ascending, ascending[::-1], drawn):
            table = NuTable(cfg, psi, bound)
            for u in order:
                assert _lookup(table, u) == expected[u]
            _check_box(cfg, table)

    @pytest.mark.parametrize("name", ["seg_cfg", "simplex_cfg", "square_cfg"])
    def test_facets_reject_negative_degrees_and_steps_past_a_facet(self, name, request):
        # the facets alone decide membership: the negative of a semigroup
        # point, and a unit step out of d*P from every point of d*P on a
        # facet, at every degree up to the bound
        cfg = request.getfixturevalue(name)
        bound = 4
        table = NuTable(cfg, WeightMatrix(rows=(tuple(range(cfg.r)),)), bound)
        inside = semigroup_up_to(cfg, bound)
        off = [scaled(u, -1) for u in inside if u[0]]
        units = [
            tuple(s * (i == k) for i in range(cfg.dim))
            for k in range(cfg.dim)
            for s in (1, -1)
        ]
        for a in hull_of(cfg.points).facets:
            off += [
                (u[0], *map(sum, zip(u[1:], e)))
                for u in inside
                if u[0] and dot(a, u) == 0
                for e in units
                if dot(a[1:], e) > 0
            ]
        assert any(u[0] < 0 for u in off) and any(u[0] == bound for u in off)
        for u in off:
            assert table.key(u) is None, u
            with pytest.raises(SchemaError):
                nu_point(table, u)

    def test_degree_overflow_above_bound(self, seg_cfg, seg_psi, f_running):
        table = NuTable(seg_cfg, seg_psi, 4)
        assert nu_point(table, (4, 16))[1] == (0, 0, 0, 0, 4)
        with pytest.raises(DegreeOverflow, match="degree 5 exceeds bound 4"):
            nu_point(table, (5, 0))
        with pytest.raises(DegreeOverflow, match="degree 5 exceeds bound 4"):
            nu_quasi(table, Expr.from_terms([((1, 0), 1), ((5, 0), 1)]))
        with pytest.raises(DegreeOverflow, match="power 5 needs degree 5 > bound 4"):
            power_seq(table, f_running, window=5)


def _nu_quasi_per_point(table, f):
    """nu(f) by decoding every support point and keeping the first least
    value: the witness is the first minimal point in support order."""
    if f.is_zero():
        return ValuationReport(INFINITY, None, None, None)
    best = best_u = best_alpha = None
    for u in f.support:
        val, alpha = nu_point(table, u)
        if best is None or val < best:
            best, best_u, best_alpha = val, u, alpha
    return ValuationReport(best, best_u, best_alpha, None)


def _power_seq_by_algebra(table, f, window):
    """nu(f^l)/l through the expression algebra, f^l as Expr.power."""
    return [
        (ell, nu_quasi(table, f.power(ell)).value * Fraction(1, ell))
        for ell in range(1, window + 1)
    ]


def _fit_accumulation(seq):
    """Accumulation candidates by fitting v_l = c + b/l to the last two terms
    of every index progression (step <= 4) and keeping c when the last
    three terms agree with the fit."""
    candidates = set()
    by_index = dict(seq)
    indices = sorted(by_index)
    for step in range(1, 5):
        for offset in range(step):
            sub = [l for l in indices if l % step == offset]
            if len(sub) < 3:
                continue
            l1, l2 = sub[-2], sub[-1]
            v1, v2 = by_index[l1], by_index[l2]
            b = (v1 - v2) * Fraction(l1 * l2, l2 - l1)
            c = v1 - b * Fraction(1, l1)
            if all(by_index[l] == c + b * Fraction(1, l) for l in sub[-3:]):
                candidates.add(c)
    return AccumulationReport(candidates=frozenset(candidates))


def _outcome(fn, *args):
    """What a call returns, or the class and message of the SchemaError or
    DimensionError it raises."""
    try:
        return fn(*args)
    except (SchemaError, DimensionError) as exc:
        return (type(exc).__name__, str(exc))


_COEFFS = st.sampled_from([Fraction(c) for c in ("1", "-1", "1/2", "-1/2", "2/3", "-3/2")])


@st.composite
def _exprs(draw, cfg, max_degree):
    """An expression of 1-4 terms, some of them maybe off the semigroup and
    some cancelling."""
    points = st.lists(_graded_points(cfg, max_degree), min_size=1, max_size=4)
    return Expr.from_terms([(u, draw(_COEFFS)) for u in draw(points)])


@st.composite
def _power_exprs(draw, cfg, max_degree):
    """An expression of 1-4 terms for power_seq: vertex multiples, points
    inside d*P, sums of points a unit step off the semigroup or not,
    characters one entry too long or too short, and at times a cancelling
    triple u1 = 2p + s, u2 = 2q + s, u3 = p + q + s with coefficients x,
    -x/2 and x, whose 2*u3 has coefficient 0 in f^2 unless another product
    meets it."""
    facets = hull_of(cfg.points).facets
    vertices = [cfg.points[i] for i in hull_of(cfg.points).vertices]
    inside = [
        u for u in semigroup_up_to(cfg, max_degree)
        if u[0] and all(dot(a, u) < 0 for a in facets)
    ]
    degrees = st.integers(0, max_degree)
    point = st.one_of(
        st.builds(lambda d, v: (d, *(d * c for c in v)), degrees, st.sampled_from(vertices)),
        st.sampled_from(inside),
        _graded_points(cfg, max_degree),
        st.builds(lambda u, longer: u + (0,) if longer else u[:-1],
                  _graded_points(cfg, max_degree), st.booleans()),
    )
    terms = [(u, draw(_COEFFS)) for u in draw(st.lists(point, min_size=1, max_size=4))]
    if draw(st.booleans()):
        p, q = draw(st.sampled_from(cfg.points)), draw(st.sampled_from(cfg.points))
        s = draw(_graded_points(cfg, max_degree - 2))
        x = draw(_COEFFS)
        terms += [
            ((s[0] + 2, *(e + a + b for e, a, b in zip(s[1:], p, q))), x),
            ((s[0] + 2, *(e + 2 * a for e, a in zip(s[1:], p))), x),
            ((s[0] + 2, *(e + 2 * b for e, b in zip(s[1:], q))), -x / 2),
        ]
    return Expr.from_terms(terms)


@st.composite
def _tie_matrices(draw, cfg):
    """A weight matrix with a zero row among 0-2 others: with no other row,
    every point of every support ties."""
    rows = list(draw(_matrices(cfg)).rows)[: draw(st.integers(0, 2))]
    rows.insert(draw(st.integers(0, len(rows))), (0,) * cfg.r)
    return WeightMatrix(rows=tuple(rows))


class TestKeyedValuations:
    """nu_quasi and power_seq, which compare the table's int keys and decode
    one winner, against the per-point and expression-algebra oracles."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_nu_quasi_matches_per_point_minimum(
        self, seg_cfg, simplex_cfg, square_cfg, data
    ):
        cfg = data.draw(st.sampled_from([seg_cfg, simplex_cfg, square_cfg]))
        psi = data.draw(st.one_of(_matrices(cfg), _tie_matrices(cfg)))
        table = NuTable(cfg, psi, 6)
        for f in data.draw(st.lists(_exprs(cfg, 6), min_size=1, max_size=3)):
            assert _outcome(nu_quasi, table, f) == _outcome(_nu_quasi_per_point, table, f)

    def test_tie_keeps_the_first_support_point(self, seg_cfg):
        # under a zero matrix every value is 0; the whole key -w(alpha) of
        # (2,-4) is below that of (1,4), which comes first in the support
        table = NuTable(seg_cfg, WeightMatrix(rows=((0,) * 5,)), 4)
        f = Expr.from_terms([((2, -4), 1), ((1, 4), 1)])
        rep = nu_quasi(table, f)
        assert rep == _nu_quasi_per_point(table, f)
        assert (rep.value, rep.witness_point, rep.witness_alpha) == (
            LexVec([0]),
            (1, 4),
            (0, 0, 0, 0, 1),
        )

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_power_seq_matches_expression_algebra(
        self, seg_cfg, simplex_cfg, square_cfg, data
    ):
        cfg = data.draw(st.sampled_from([seg_cfg, simplex_cfg, square_cfg]))
        psi = data.draw(st.one_of(_matrices(cfg), _tie_matrices(cfg)))
        table = NuTable(cfg, psi, 16)
        f = data.draw(_power_exprs(cfg, 2))
        window = data.draw(st.integers(1, 8))
        if f.is_zero():
            with pytest.raises(SchemaError, match="zero expression"):
                power_seq(table, f, window)
        else:
            assert _outcome(power_seq, table, f, window) == _outcome(
                _power_seq_by_algebra, table, f, window
            )

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_power_seq_on_unit_rows(self, seg_cfg, simplex_cfg, square_cfg, data):
        # one row of -1, 0 and 1 puts the values of f^l's points one apart,
        # where a bound one too high or a stop one point early shows
        cfg = data.draw(st.sampled_from([seg_cfg, simplex_cfg, square_cfg]))
        row = data.draw(st.lists(st.integers(-1, 1), min_size=cfg.r, max_size=cfg.r))
        table = NuTable(cfg, WeightMatrix(rows=(tuple(row),)), 16)
        points = st.sampled_from(semigroup_up_to(cfg, 2)[1:])
        f = Expr.from_terms(data.draw(st.lists(st.tuples(points, _COEFFS), min_size=1, max_size=4)))
        if not f.is_zero():
            assert power_seq(table, f, 8) == _power_seq_by_algebra(table, f, 8)

    def test_power_seq_cancelling_term(self, seg_cfg):
        # u1 + u2 = 2*u3: the 2*u3 term of f^2 is 1 - 2*(1/2) = 0, and it
        # would be the least point of the support if it stayed
        u1, u2, u3 = (1, -2), (1, 2), (1, 0)
        f = Expr.from_terms([(u1, 1), (u2, "-1/2"), (u3, 1)])
        table = NuTable(seg_cfg, WeightMatrix(rows=((2, 9, -9, 0, 30),)), 8)
        assert scaled(u3, 2) not in f.power(2).support
        assert nu_point(table, scaled(u3, 2))[0] == LexVec([2])
        seq = power_seq(table, f, window=3)
        assert seq == _power_seq_by_algebra(table, f, 3)
        assert seq[1] == (2, LexVec([2]))

    def test_power_seq_error_messages(self, seg_cfg, seg_psi):
        table = NuTable(seg_cfg, seg_psi, 4)
        off = Expr.from_terms([((1, 3), "1/2"), ((1, 1), 1)])
        with pytest.raises(SchemaError, match=re.escape("point (1, 1) is not in the semigroup")):
            power_seq(table, off, window=2)
        # f's terms are keyed at l = 1 in sorted order: the message names
        # the least one off the semigroup, as nu_quasi(table, far) does
        far = Expr.from_terms([((1, 1), 1), ((1, 5), "1/2"), ((1, 10), 1)])
        for call in (lambda: power_seq(table, far, window=2), lambda: nu_quasi(table, far)):
            with pytest.raises(SchemaError, match=re.escape("point (1, 1) is not in the semigroup")):
                call()
        with pytest.raises(DegreeOverflow, match="power 3 needs degree 6 > bound 4"):
            power_seq(table, Expr.from_terms([((2, 0), "2/3")]), window=3)

    @pytest.mark.parametrize(
        "config, matrix, expr, window, bound",
        [
            ("segment", "segment_psi", "segment_expr", 8, 16),
            ("segment", "segment_psi", "segment_expr", 20, 20),
            ("segment", "segment_psi", "segment_expr", 40, 40),
            ("simplex", "simplex_psi", "simplex_expr", 12, 12),
            ("simplex", "simplex_psi_frac", "simplex_expr", 12, 12),
            ("simplex", "simplex_psi_frac_unmarked", "simplex_expr_frac", 8, 24),
        ],
    )
    def test_power_seq_reads_few_keys(self, monkeypatch, config, matrix, expr, window, bound):
        # the README's liminf examples: the bounds leave at most half the
        # support points of f, f^2, ..., f^window to be keyed
        cfg, psi, f = (
            read(io.load_json(str(DATA / f"{name}.json")))
            for read, name in (
                (io.config_from_json, config),
                (io.matrix_from_json, matrix),
                (io.expr_from_json, expr),
            )
        )
        expected = _power_seq_by_algebra(NuTable(cfg, psi, bound), f, window)
        points = sum(len(f.power(ell).support) for ell in range(1, window + 1))
        keyed, key = [], NuTable.key
        monkeypatch.setattr(NuTable, "key", lambda table, u: keyed.append(u) or key(table, u))
        assert power_seq(NuTable(cfg, psi, bound), f, window) == expected
        assert 2 * len(keyed) <= points

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_accumulation_matches_fit(self, data):
        n = data.draw(st.integers(1, 3))
        entry = st.fractions(min_value=-5, max_value=5, max_denominator=4)
        vec = st.lists(entry, min_size=n, max_size=n).map(LexVec)
        c, b = data.draw(vec), data.draw(vec)
        indices = data.draw(st.lists(st.integers(1, 24), min_size=1, max_size=12, unique=True))
        # each term on the curve c + b/l or anywhere, so progressions fit
        # fully, partly or not at all
        seq = [
            (ell, data.draw(st.one_of(st.just(c + b * Fraction(1, ell)), vec)))
            for ell in sorted(indices)
        ]
        assert windowed_accumulation(seq) == _fit_accumulation(seq)


def _valuate_by_fractions(cfg, s, psi, table, f):
    """The reports of ``valuate`` on Fractions: V and its cell by
    ``value_by_cells`` over ``cell_maps_by_solve``, nu by decoding every
    point, delta as ``nu_point`` minus that V; each witness the first least
    support point, and every point's V before any nu, as in ``valuate``."""
    if f.is_zero():
        none = ValuationReport(INFINITY, None, None, None)
        return none, none, None
    maps = cell_maps_by_solve(cfg, s, psi)
    vs = [value_by_cells(cfg, maps, u) for u in f.support]
    nu_rep = _nu_quasi_per_point(table, f)
    gaps = [nu_point(table, u)[0] - v for u, (v, _) in zip(f.support, vs)]
    i = [v for v, _ in vs].index(min(v for v, _ in vs))
    k = gaps.index(min(gaps))
    return (
        ValuationReport(vs[i][0], f.support[i], None, vs[i][1]),
        nu_rep,
        ValuationReport(gaps[k], f.support[k], None, None),
    )


class TestIntegerValues:
    """valuate, power_seq and windowed_accumulation, which compare int rows
    and build a LexVec only for an answer, against their Fraction oracles
    on Psi of rank 1-3 with denominators up to 3."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_valuate_matches_fraction_oracle(self, seg_cfg, simplex_cfg, square_cfg, data):
        cfg = data.draw(st.sampled_from([seg_cfg, simplex_cfg, square_cfg]))
        psi = data.draw(_matrices(cfg))
        s = subdivide(cfg, psi)
        plm = linear_extension(cfg, s, psi)
        table = NuTable(cfg, psi, 6)
        for f in data.draw(st.lists(_exprs(cfg, 6), min_size=1, max_size=3)):
            expected = _outcome(_valuate_by_fractions, cfg, s, psi, table, f)
            assert _outcome(valuate, table, plm, f) == expected
            if expected[0] != "SchemaError":
                assert v_quasi(plm, f) == expected[0]
                assert nu_quasi(table, f) == expected[1]
                if not f.is_zero():
                    assert delta(table, plm, f) == expected[2].value

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_liminf_matches_fraction_formula(self, seg_cfg, simplex_cfg, square_cfg, data):
        cfg = data.draw(st.sampled_from([seg_cfg, simplex_cfg, square_cfg]))
        psi = data.draw(_matrices(cfg))
        table = NuTable(cfg, psi, 10)
        f = data.draw(_exprs(cfg, 2).filter(lambda f: not f.is_zero()))
        window = data.draw(st.integers(3, 5))
        seq = _outcome(power_seq, table, f, window)
        assert seq == _outcome(_power_seq_by_algebra, table, f, window)
        if seq[0] != "SchemaError":
            assert windowed_accumulation(seq) == _fit_accumulation(seq)
