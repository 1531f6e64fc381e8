"""Condition cones, induced subdivisions (with the fiber oracle),
regularity, enumeration, and the elementary row moves."""

import itertools
import json
import math
import random
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lexfan import config, cones, gkzfan, io, lp
from lexfan.cli import main
from lexfan.cones import PolyCone
from lexfan.config import (
    MarkedCell,
    MarkedSubdivision,
    PointConfig,
    cell_pair_violations,
    hull_of,
    refinement_poset,
    refines,
    validate_subdivision,
)
from lexfan.errors import BudgetExceeded, DimensionError, InvariantError
from lexfan.exactlex import LexVec, WeightMatrix
from lexfan.gkzfan import (
    _candidate_cells,
    _cell_relations,
    _clashes,
    _table_relations,
    add_row_multiple,
    circuits,
    closed_member,
    condition_cone,
    condition_generators,
    cone_dim,
    elementary_moves,
    enumerate_regular_subdivisions,
    enumerate_subdivisions,
    g_eval,
    is_regular,
    linear_extension,
    open_member,
    scale_row,
    shift_row,
    subdivide,
)
from lexfan.linalg import (
    canonical_subspace_basis,
    det,
    dot,
    echelon,
    nullspace,
    primitive,
    rank,
    solve,
)

from helpers import random_matrix, sides, trivial_subdivision
from oracles import (
    cell_maps_by_solve,
    fan_invariant_violations,
    fiber_value,
    flattened,
    hull_candidate_cells,
    lex_sign,
    mat_vec,
    pairwise_cover_search,
    pairwise_refinement_poset,
)

DATA = Path(__file__).resolve().parents[1] / "scripts" / "data"


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

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_cell_maps_match_solve_oracle(self, data):
        # one elimination per cell against one solve per row on a basis; on
        # a subdivision Psi does not induce, both refuse non-affine heights
        cfg = data.draw(collinear_configs())
        psi = data.draw(weight_matrices(cfg))
        s = subdivide(cfg, psi)
        assert _fraction_maps(linear_extension(cfg, s, psi)) == cell_maps_by_solve(cfg, s, psi)
        for s in (subdivide(cfg, data.draw(weight_matrices(cfg))), trivial_subdivision(cfg)):
            try:
                expected = cell_maps_by_solve(cfg, s, psi)
            except ValueError:
                with pytest.raises(ValueError):
                    linear_extension(cfg, s, psi)
            else:
                assert _fraction_maps(linear_extension(cfg, s, psi)) == expected


def _fraction_maps(plm) -> tuple:
    """The int cell maps of ``plm`` as Fraction rows, row k over D times the
    scale of row k of Psi; every stored entry must be an int."""
    for m in plm.cell_maps:
        assert all(type(x) is int for row in m for x in row)
    return tuple(
        tuple(
            tuple(Fraction(x, plm.denominator * s) for x in row)
            for row, s in zip(m, plm.scales)
        )
        for m in plm.cell_maps
    )


class TestConditionCone:
    def test_reduced_equals_full(self, seg_cfg, seg_sub, simplex_cfg, simplex_q2):
        for cfg, s in ((seg_cfg, seg_sub), (simplex_cfg, simplex_q2)):
            reduced = condition_cone(cfg, s).cone
            # the full set: every affine basis inside every marking, each
            # relation vector from its own Fraction solve
            rays, lines = [], []
            for cell in s.cells:
                for basis in itertools.combinations(cell.marking, cfg.n):
                    mat = [[cfg.homogenized(w)[k] for w in basis] for k in range(cfg.n)]
                    if rank(mat) < cfg.n:
                        continue
                    for v in set(range(cfg.r)) - set(basis):
                        coeffs = solve(mat, cfg.homogenized(v))
                        u = [Fraction(int(i == v)) for i in range(cfg.r)]
                        for a, w in zip(coeffs, basis):
                            u[w] -= a
                        (lines if v in cell.marking else rays).append(primitive(u))
            full = PolyCone.from_generators(cfg.r, rays=rays, lines=lines)
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


class TestCoverSearch:
    """The clash-mask search against the pairwise node loop of
    ``oracles.pairwise_cover_search``: the same covers in the same order,
    and the same least budget that completes, one node short of which both
    stop with the same message."""

    @staticmethod
    def _check(cfg):
        expected, nodes = pairwise_cover_search(cfg)
        assert enumerate_subdivisions(cfg, budget=nodes) == expected
        with pytest.raises(BudgetExceeded) as ours:
            enumerate_subdivisions(cfg, budget=nodes - 1)
        with pytest.raises(BudgetExceeded) as oracle:
            pairwise_cover_search(cfg, budget=nodes - 1)
        assert str(ours.value) == str(oracle.value)

    def test_examples(self, seg_cfg, simplex_cfg, square_cfg, pinwheel_cfg):
        for cfg in (seg_cfg, simplex_cfg, square_cfg, pinwheel_cfg, _config_file("cube")):
            self._check(cfg)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_drawn_configurations(self, pinwheel_cfg, data):
        self._check(data.draw(st.one_of(oracle_configs(pinwheel_cfg), collinear_configs())))

    def test_grid_3x3_budget_pinned(self):
        cfg = _config_file("grid_3x3")
        assert len(enumerate_subdivisions(cfg, budget=51776)) == 4079
        with pytest.raises(BudgetExceeded, match=(
            "^enumeration stopped after visiting 51775 search nodes:"
            " 4079 subdivisions found among 458 candidate cells$"
        )):
            enumerate_subdivisions(cfg, budget=51775)


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


@st.composite
def collinear_configs(draw):
    """Configurations on the {0, 1, 2} grid in dimension 1-3 (r <= 6), so
    collinear and coplanar points are common."""
    dim = draw(st.integers(1, 3))
    point = st.tuples(*[st.integers(0, 2)] * dim)
    pts = draw(st.lists(point, min_size=dim + 1, max_size=6, unique=True))
    assume(rank([(1,) + p for p in pts]) == dim + 1)
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

    def test_refinement_raises_lineality(self, regular_fans):
        # a cone inside another of the fan has strictly smaller lineality: the
        # coarser closed height cone is a proper face of the finer one
        for cfg, subs in regular_fans.items():
            cones = [condition_cone(cfg, s).cone for s in subs]
            for ci, cj in itertools.permutations(cones, 2):
                if ci <= cj:
                    assert len(ci.lines) < len(cj.lines)

    @staticmethod
    def _check_poset(cfg, subs):
        """The marking rule against geometric refinement on every cover, and
        against cone inclusion on the regular ones."""
        pairs = lambda k: itertools.permutations(range(k), 2)  # i-major, i != j
        assert refinement_poset(subs) == [
            (i, j) for i, j in pairs(len(subs)) if refines(cfg, subs[i], subs[j])
        ]
        regular = [s for s in subs if is_regular(cfg, s)]
        cones = [condition_cone(cfg, s).cone for s in regular]
        assert refinement_poset(regular) == [
            (i, j) for i, j in pairs(len(regular)) if cones[i] <= cones[j]
        ]

    def test_refinement_poset_on_examples(self, fans):
        for cfg, subs in fans.items():  # the pinwheel's non-regular covers too
            self._check_poset(cfg, subs)

    @settings(max_examples=30, deadline=None)
    @given(collinear_configs())
    def test_refinement_poset(self, cfg):
        self._check_poset(cfg, enumerate_subdivisions(cfg))

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_refinement_poset_matches_pairwise_rule(self, pinwheel_cfg, data):
        # every cover, the non-regular ones included, in a drawn order
        cfg = data.draw(st.one_of(oracle_configs(pinwheel_cfg), collinear_configs()))
        subs = data.draw(st.permutations(enumerate_subdivisions(cfg)))
        assert refinement_poset(subs) == pairwise_refinement_poset(subs)

    def test_refinement_poset_keeps_cell_count(self, simplex_q0, simplex_q1, simplex_q2):
        # unmarking the interior point refines the trivial subdivision and
        # keeps its one cell
        assert len(simplex_q0.cells) == len(simplex_q1.cells) == 1
        assert refinement_poset([simplex_q0, simplex_q1, simplex_q2]) == [(1, 0), (2, 0)]

    def test_covers_are_subdivisions(self, fans, pinwheel_cfg, pinwheel_tri):
        for cfg, subs in fans.items():
            assert all(validate_subdivision(cfg, s).ok for s in subs)
        assert pinwheel_tri in fans[pinwheel_cfg]


class TestFlattening:
    """The paper's rank-k subdivision is the lexicographic refinement, whose
    rank-1 case is the GKZ fan, so it is the rank-1 subdivision of
    sum_i eps^(i-1) Psi_i for every small enough eps; ``flattened`` takes an
    exact one from the circuits."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_rank_k_is_rank_1_at_small_eps(self, data):
        cfg = data.draw(
            st.one_of(
                st.sampled_from(["segment", "simplex", "cube", "grid_3x3"]).map(_config_file),
                collinear_configs(),
            )
        )
        entries = st.lists(st.integers(-2, 2), min_size=cfg.r, max_size=cfg.r).map(tuple)
        psi = WeightMatrix(rows=tuple(data.draw(st.lists(entries, min_size=2, max_size=3))))
        assert subdivide(cfg, psi) == subdivide(cfg, flattened(cfg, psi))


def _config_file(name: str) -> PointConfig:
    return io.config_from_json(io.load_json(str(DATA / f"{name}.json")))


def _fan_payload(cfg: PointConfig) -> dict:
    """The JSON output of the ``fan`` command on cfg."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path, out = Path(tmp) / "config.json", Path(tmp) / "fan.json"
        cfg_path.write_text(json.dumps(io.config_to_json(cfg)))
        assert main(["--out", str(out), "fan", str(cfg_path)]) == 0
        return json.loads(out.read_text())


PRISM = PointConfig(
    dim=3, points=((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1), (0, 1, 1))
)


class TestWholeFan:
    @pytest.mark.parametrize("name", ["pinwheel", "prism", "cube"])
    def test_cones_equal_fresh_cones(self, name, pinwheel_cfg):
        # the cones built from relations shared across covers are the cones
        # built cover by cover
        cfg = {"pinwheel": pinwheel_cfg, "prism": PRISM}.get(name) or _config_file(name)
        for cc in enumerate_regular_subdivisions(cfg):
            fresh = condition_cone(cfg, cc.subdivision)
            assert cc.cone == fresh.cone
            assert cc.one_sided == fresh.one_sided
            for cell in cc.subdivision.cells:
                assert _table_relations(cfg, cell) == _cell_relations(cfg, cell), cell

    @pytest.mark.parametrize("name", ["segment", "simplex", "cube"])
    def test_fan_invariants_on_examples(self, name):
        cfg = _config_file(name)
        assert fan_invariant_violations(cfg.r, cfg.dim, _fan_payload(cfg)) == []

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_fan_invariants(self, pinwheel_cfg, data):
        cfg = data.draw(st.one_of(oracle_configs(pinwheel_cfg), collinear_configs()))
        assert fan_invariant_violations(cfg.r, cfg.dim, _fan_payload(cfg)) == []


OCTAHEDRON = PointConfig(
    dim=3, points=((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))
)


class TestKernelPass:
    """Condition cones are built by one DD pass in the coordinates of the
    dependence space D (``PointConfig.kernel_coordinates``); the plain pass
    in Q^r is the oracle."""

    @staticmethod
    def _check(cfg: PointConfig):
        for s in enumerate_subdivisions(cfg):  # the non-regular covers too
            cc = condition_cone(cfg, s)
            gens = condition_generators(cfg, s)
            plain = PolyCone.from_generators(
                cfg.r,
                rays=dict.fromkeys(g.vector for g in gens if not g.two_sided),
                lines=dict.fromkeys(g.vector for g in gens if g.two_sided),
            )
            assert sides(cc.cone) == sides(plain)
            assert [sides(f) for f in cc.cone.faces()] == [sides(f) for f in plain.faces()]

    @pytest.mark.parametrize("name", ["cube", "octahedron"])
    def test_matches_plain_pass_on_examples(self, name):
        cfg = OCTAHEDRON if name == "octahedron" else _config_file(name)
        assert echelon(cfg.matrix)[2] < 0  # a negative echelon d: the lift needs its sign factor
        self._check(cfg)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_plain_pass(self, pinwheel_cfg, data):
        self._check(data.draw(st.one_of(oracle_configs(pinwheel_cfg), collinear_configs())))

    def test_one_pass_and_no_projection(self, monkeypatch):
        cfg = _config_file("cube")
        s = enumerate_subdivisions(cfg)[0]
        cfg.kernel_coordinates  # once per configuration, before counting
        calls = []
        for name in ("_dd", "canonical_subspace_basis", "project_off"):
            f = getattr(cones, name)
            monkeypatch.setattr(cones, name, lambda *a, f=f, name=name: calls.append(name) or f(*a))
        cone = condition_cone(cfg, s).cone
        assert cone.eq_normals == canonical_subspace_basis(cfg.matrix)
        assert cone.ineq_normals
        assert calls == ["_dd"]

    def test_no_cells_raise(self):
        # no relation spans D, so the pass ends with D's lines left over
        with pytest.raises(InvariantError):
            condition_cone(_config_file("cube"), MarkedSubdivision(cells=()))


@st.composite
def lattice_configs(draw):
    """Lattice configurations in dimension 1-3 with r <= 7, coordinates in
    -2..3, so interior, collinear and coplanar points all occur."""
    dim = draw(st.integers(1, 3))
    point = st.tuples(*[st.integers(-2, 3)] * dim)
    pts = draw(st.lists(point, min_size=dim + 1, max_size=7, unique=True))
    assume(rank([(1,) + p for p in pts]) == dim + 1)
    return PointConfig(dim=dim, points=tuple(pts))


def _rank_circuits(cfg) -> list:
    """Oracle: the dependent subsets whose every one-point-smaller subset is
    independent (by rank), signed by their kernel vector."""
    def cols(idxs):
        return [[cfg.homogenized(i)[c] for i in idxs] for c in range(cfg.n)]

    out = []
    for k in range(2, cfg.n + 2):
        for combo in itertools.combinations(range(cfg.r), k):
            if rank(cols(combo)) == k or any(
                rank(cols(sub)) < k - 1 for sub in itertools.combinations(combo, k - 1)
            ):
                continue
            (z,) = nullspace(cols(combo))
            pos = sum(1 << i for i, x in zip(combo, z) if x > 0)
            neg = sum(1 << i for i, x in zip(combo, z) if x < 0)
            out.append((pos, neg))
    return out


def _unoriented(circs) -> list:
    return sorted(tuple(sorted(z)) for z in circs)


class TestCircuits:
    def test_unit_square(self, square_cfg):
        # (0,0) + (1,1) = (1,0) + (0,1)
        assert _unoriented(circuits(square_cfg)) == [(0b0110, 0b1001)]

    def test_pentagon(self):
        cfg = PointConfig(dim=2, points=((0, 0), (2, 0), (3, 1), (1, 3), (-1, 1)))
        circs = circuits(cfg)
        assert len(circs) == 5
        assert all(bin(pos | neg).count("1") == 4 for pos, neg in circs)

    def test_line5(self, seg_cfg):
        circs = circuits(seg_cfg)
        assert len(circs) == 10
        assert all(bin(pos | neg).count("1") == 3 for pos, neg in circs)
        assert all(pos & neg == 0 and pos and neg for pos, neg in circs)

    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(
            collinear_configs(),
            lattice_configs(),
            st.sampled_from(["cube", "grid_3x3", "grid_2x5"]).map(_config_file),
        )
    )
    def test_matches_rank_oracle(self, cfg):
        assert _unoriented(circuits(cfg)) == _unoriented(_rank_circuits(cfg))
        # every stored Cramer vector is an affine dependence of its
        # (n + 1)-subset, nonzero iff the subset has rank n
        _, cramer = cfg.det_table
        assert len(cramer) == math.comb(cfg.r, cfg.n + 1)
        for mask, u in cramer.items():
            assert all(dot(row, u) == 0 for row in cfg.matrix)
            assert not any(x for i, x in enumerate(u) if not mask >> i & 1)
            idxs = [i for i in range(cfg.r) if mask >> i & 1]
            assert any(u) == (rank([cfg.homogenized(i) for i in idxs]) == cfg.n)

    def test_circuits_oriented_once(self, pinwheel_cfg):
        # each circuit once, its lowest point on the positive side
        circs = circuits(pinwheel_cfg)
        assert len(set(circs)) == len(circs)
        assert len(_unoriented(circs)) == len(set(_unoriented(circs)))
        assert all(pos & -pos < neg & -neg for pos, neg in circs)

    @staticmethod
    def _check_every_pair(cfg):
        # bit j of clashes[i] is set iff cells i and j fail the pair
        # validation, asked in both orders; no cell clashes with itself
        circs = circuits(cfg)
        cells = _candidate_cells(cfg, circs)
        clashes = _clashes(circs, [sum(1 << i for i in c.marking) for c in cells])
        for i, j in itertools.combinations(range(len(cells)), 2):
            ca, cb = cells[i], cells[j]
            clash = bool(clashes[i] >> j & 1)
            assert bool(clashes[j] >> i & 1) == clash, (ca, cb)  # symmetric
            assert bool(cell_pair_violations(cfg, ca, cb)) == clash, (ca, cb)
            assert bool(cell_pair_violations(cfg, cb, ca)) == clash, (cb, ca)
        assert not any(c >> i & 1 for i, c in enumerate(clashes))

    def test_rule_is_pair_validation_on_examples(self, seg_cfg, square_cfg, pinwheel_cfg):
        grid = PointConfig(dim=2, points=((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)))
        # a diamond whose inner diagonal holds three points: two cells that
        # share it, both marking its midpoint, meet properly
        diamond = PointConfig(dim=2, points=((1, 0), (1, 1), (1, 2), (0, 1), (2, 1)))
        for cfg in (seg_cfg, square_cfg, pinwheel_cfg, grid, diamond):
            self._check_every_pair(cfg)

    @settings(max_examples=40, deadline=None)
    @given(collinear_configs())
    def test_rule_is_pair_validation(self, cfg):
        self._check_every_pair(cfg)


GRID_2X4 = PointConfig(dim=2, points=tuple((x, y) for y in range(2) for x in range(4)))


class TestCandidateCells:
    """Candidate cells read off the ``circuits`` and the determinants of
    ``PointConfig.det_table``, against the hull-built candidates of
    ``oracles.hull_candidate_cells``: the same list, in the same order."""

    @staticmethod
    def _check(cfg):
        assert _candidate_cells(cfg, circuits(cfg)) == hull_candidate_cells(cfg)

    def test_candidates_on_examples(self, seg_cfg, simplex_cfg, square_cfg, pinwheel_cfg):
        for cfg in (seg_cfg, simplex_cfg, square_cfg, pinwheel_cfg, PRISM, OCTAHEDRON, GRID_2X4):
            self._check(cfg)
        for name in ("cube", "grid_3x3", "grid_2x5"):
            self._check(_config_file(name))

    @settings(max_examples=60, deadline=None)
    @given(lattice_configs())
    def test_candidates_on_drawn_configurations(self, cfg):
        self._check(cfg)

    def test_candidates_of_a_point(self):
        cfg = PointConfig(dim=0, points=((),))
        assert cfg.det_table == ({1: 1}, {})
        assert circuits(cfg) == []
        assert _candidate_cells(cfg, circuits(cfg)) == [MarkedCell((0,), (0,))]

    def test_determinants_are_the_bases(self, pinwheel_cfg):
        # every n-subset once, keyed by its bitmask, nonzero iff independent
        dets, _ = pinwheel_cfg.det_table
        combos = list(itertools.combinations(range(pinwheel_cfg.r), pinwheel_cfg.n))
        assert sorted(dets) == sorted(sum(1 << i for i in c) for c in combos)
        for c in combos:
            d = dets[sum(1 << i for i in c)]
            assert d == det([pinwheel_cfg.homogenized(i) for i in c])

    def test_candidate_search_builds_no_hull(self, monkeypatch, pinwheel_cfg):
        hull_of.cache_clear()  # cold: a hull would be built, not looked up
        calls = []
        monkeypatch.setattr(cones, "_dd", lambda *a, f=cones._dd: calls.append(a) or f(*a))
        for cfg in (pinwheel_cfg, PRISM, _config_file("cube")):
            assert enumerate_subdivisions(cfg)
        info = hull_of.cache_info()
        assert (info.hits, info.misses, calls) == (0, 0, [])


def _rank1_cells_by_cone(cfg, idxs, heights) -> list:
    """Oracle: the upper facets of the cone over the lifted points, built on
    the unscaled heights even where they are affine."""
    lifted = [(1, *cfg.points[i], heights[i]) for i in idxs]
    cone = PolyCone.from_generators(cfg.n + 1, rays=lifted)
    if cone.eq_normals:
        return [tuple(idxs)]
    return sorted({
        tuple(i for i, v in zip(idxs, lifted) if dot(a, v) == 0)
        for a in cone.ineq_normals
        if a[-1] > 0
    })


def weight_matrices(cfg: PointConfig):
    """Rank 1-3 matrices over cfg whose rows are random Fraction rows, zero
    rows, or heights affine on all the points."""
    entry = st.fractions(min_value=-9, max_value=9, max_denominator=3)
    row = st.one_of(
        st.lists(entry, min_size=cfg.r, max_size=cfg.r).map(tuple),
        st.just((0,) * cfg.r),
        st.lists(entry, min_size=cfg.n, max_size=cfg.n).map(
            lambda c: tuple(dot(c, cfg.homogenized(j)) for j in range(cfg.r))
        ),
    )
    return st.lists(row, min_size=1, max_size=3).map(lambda rows: WeightMatrix(rows=tuple(rows)))


class TestIntegerRows:
    """subdivide and closed_member run on the rows of Psi scaled to coprime
    ints; the oracles run on the unscaled Fraction rows."""

    def test_affine_exit_on_the_square(self, square_cfg):
        affine = tuple(x + 2 * y - Fraction(1, 3) for x, y in square_cfg.points)
        idxs = [0, 1, 2, 3]
        assert gkzfan._rank1_cells(square_cfg, idxs, primitive(affine)) == [(0, 1, 2, 3)]
        assert _rank1_cells_by_cone(square_cfg, idxs, affine) == [(0, 1, 2, 3)]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_rank1_cells_match_cone_oracle(self, data):
        cfg = data.draw(collinear_configs())
        psi = data.draw(weight_matrices(cfg))
        parts = [tuple(range(cfg.r))]
        for row in psi.rows:
            refined = []
            for p in parts:
                cells = _rank1_cells_by_cone(cfg, p, row)
                assert gkzfan._rank1_cells(cfg, p, primitive(row)) == cells
                refined += cells
            parts = refined
        assert sorted(c.marking for c in subdivide(cfg, psi).cells) == sorted(set(parts))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_cell_vertices_match_hull(self, data):
        # subdivide reads a simplex cell's vertices off its size, not its hull
        cfg = data.draw(collinear_configs())
        for c in subdivide(cfg, data.draw(weight_matrices(cfg))).cells:
            h = hull_of(tuple(cfg.points[i] for i in c.marking))
            assert c.vertices == tuple(c.marking[i] for i in h.vertices)

    def test_ledger_signs_on_the_square(self, square_cfg):
        affine = tuple(x + 2 * y - Fraction(1, 3) for x, y in square_cfg.points)
        up = (0, 0, 0, Fraction(1, 2))
        subs = [
            trivial_subdivision(square_cfg),
            subdivide(square_cfg, WeightMatrix(rows=(up,))),
            subdivide(square_cfg, WeightMatrix(rows=(tuple(-x for x in up),))),
        ]
        seen = set()
        for psi in (WeightMatrix(rows=(affine,)), WeightMatrix(rows=(affine, up))):
            for s in subs:
                for g, sign in closed_member(square_cfg, psi, s).signs:
                    assert sign == lex_sign(mat_vec(psi, g.vector))
                    seen.add(sign)
        assert seen == {-1, 0, 1}

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_ledger_signs_match_fraction_oracle(self, data):
        cfg = data.draw(collinear_configs())
        psi = data.draw(weight_matrices(cfg))
        other = data.draw(weight_matrices(cfg))
        # the subdivision of psi and two that psi need not induce
        for s in (subdivide(cfg, psi), subdivide(cfg, other), trivial_subdivision(cfg)):
            for g, sign in closed_member(cfg, psi, s).signs:
                assert sign == lex_sign(mat_vec(psi, g.vector))


class TestInvariants:
    def test_relation_vector_raises(self, simplex_cfg):
        # two marked points span no triangle: the cell has no affine basis
        flat = MarkedSubdivision(cells=(MarkedCell(vertices=(0, 3), marking=(0, 3)),))
        with pytest.raises(InvariantError):
            condition_generators(simplex_cfg, flat)

    def test_linear_extension_raises(self, simplex_cfg):
        # two marked points span no triangle: no affine interpolation
        flat = MarkedSubdivision(cells=(MarkedCell(vertices=(0, 3), marking=(0, 3)),))
        with pytest.raises(InvariantError):
            linear_extension(simplex_cfg, flat, WeightMatrix(rows=((1, 0, 2, 5),)))


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


class TestTableRelations:
    """The cell relations ``enumerate_regular_subdivisions`` reads off the
    determinant table (``_table_relations``), against the echelon pass of
    ``_cell_relations``: the same basis, points, vectors and marked count
    for every distinct cell of every cover."""

    @staticmethod
    def _check(cfg):
        for cell in {c for s in enumerate_subdivisions(cfg) for c in s.cells}:
            assert _table_relations(cfg, cell) == _cell_relations(cfg, cell), cell

    def test_relations_on_examples(self, seg_cfg, simplex_cfg, square_cfg, pinwheel_cfg):
        for cfg in (seg_cfg, simplex_cfg, square_cfg, pinwheel_cfg, PRISM, OCTAHEDRON, GRID_2X4):
            self._check(cfg)
        for name in ("cube", "grid_3x3", "grid_2x5"):
            self._check(_config_file(name))

    @settings(max_examples=60, deadline=None)
    @given(lattice_configs())
    def test_relations_on_drawn_configurations(self, cfg):
        self._check(cfg)

    def test_relations_of_a_marking_without_basis_raise(self, simplex_cfg):
        # two points, and four collinear ones, span no triangle
        for cfg, marking in ((simplex_cfg, (0, 3)), (GRID_2X4, (0, 1, 2, 3))):
            cell = MarkedCell(vertices=(marking[0], marking[-1]), marking=marking)
            for relate in (_table_relations, _cell_relations):
                with pytest.raises(InvariantError):
                    relate(cfg, cell)

    def test_relations_run_no_elimination(self, monkeypatch):
        # one echelon pass per n-subset, for the table, and none per cell
        cfg = PointConfig(dim=2, points=GRID_2X4.points)
        cfg.kernel_coordinates  # once per configuration, before counting
        calls = []
        for mod in (config, gkzfan):
            f = mod.echelon
            monkeypatch.setattr(mod, "echelon", lambda m, f=f, mod=mod: calls.append(mod) or f(m))
        assert enumerate_regular_subdivisions(cfg)
        assert calls == [config] * math.comb(cfg.r, cfg.n)
