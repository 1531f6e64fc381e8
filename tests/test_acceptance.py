"""Acceptance suite: one test per criterion, each printing a single
pass line and enforcing its runtime budget."""

import random
import time
from fractions import Fraction

from lexfan.cones import PolyCone
from lexfan.config import MarkedCell, MarkedSubdivision, is_triangulation
from lexfan.exactlex import LexVec, WeightMatrix
from lexfan.gkzfan import (
    condition_cone,
    cone_dim,
    elementary_moves,
    enumerate_regular_subdivisions,
    g_eval,
    linear_extension,
    subdivide,
)
from lexfan.quasival import (
    Expr,
    NuTable,
    TruncatedSemigroup,
    delta_image,
    in_SQ1,
    nu_quasi,
    power_seq,
    semigroup_up_to,
    stack,
    v_quasi,
    windowed_accumulation,
)
from lexfan.degeneration import gr_nu_reduced, gr_v_present, stanley_reisner

from helpers import criterion3_cones, polar, random_matrix, reversed_delta_image
from oracles import euclidean_closure
from paper import MuCone, cofaces, cone_intersection, cone_sum, is_full_rank, mu_dim


def _report(capsys, n, message):
    with capsys.disabled():
        print(f"\nACCEPTANCE {n}: PASS — {message}")


def test_criterion_1_condition_cones(simplex_cfg, simplex_q0, simplex_q1, simplex_q2, capsys):
    t0 = time.monotonic()
    u = (-1, -1, -1, 3)  # primitive form of e4 - (e1 + e2 + e3)/3
    assert condition_cone(simplex_cfg, simplex_q1).cone == PolyCone.from_generators(
        4, rays=[u]
    )
    assert condition_cone(simplex_cfg, simplex_q2).cone == PolyCone.from_generators(
        4, rays=[tuple(-x for x in u)]
    )
    assert condition_cone(simplex_cfg, simplex_q0).cone == PolyCone.from_generators(
        4, lines=[u]
    )
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _report(capsys, 1, f"simplex condition cones exact in {elapsed:.3f}s")


def test_criterion_2_running_example(seg_cfg, seg_psi, capsys):
    t0 = time.monotonic()
    # (a) the induced subdivision
    s = subdivide(seg_cfg, seg_psi)
    assert s == MarkedSubdivision(
        cells=(
            MarkedCell(vertices=(0, 2), marking=(0, 2)),
            MarkedCell(vertices=(2, 4), marking=(2, 4)),
        )
    )
    # (b) the two affine formulas at 20 rational sample points
    plm = linear_extension(seg_cfg, s, seg_psi)
    left_samples = [
        (Fraction(1), Fraction(-2)),
        (Fraction(1), Fraction(-1)),
        (Fraction(1), Fraction(0)),
        (Fraction(2), Fraction(-3)),
        (Fraction(2), Fraction(-1, 2)),
        (Fraction(3), Fraction(-11, 2)),
        (Fraction(3), Fraction(-1, 3)),
        (Fraction(5), Fraction(-7)),
        (Fraction(7, 2), Fraction(-2)),
        (Fraction(9, 4), Fraction(-17, 8)),
    ]
    right_samples = [
        (Fraction(1), Fraction(1)),
        (Fraction(1), Fraction(2)),
        (Fraction(1), Fraction(4)),
        (Fraction(2), Fraction(5)),
        (Fraction(2), Fraction(1, 2)),
        (Fraction(3), Fraction(10)),
        (Fraction(3), Fraction(1, 3)),
        (Fraction(5), Fraction(19)),
        (Fraction(7, 2), Fraction(11)),
        (Fraction(9, 4), Fraction(35, 4)),
    ]
    for c, a in left_samples:  # a in [-2c, 0]
        assert g_eval(plm, (c, a)) == LexVec([2 * c + a / 2, c + a / 2])
    for c, a in right_samples:  # a in [0, 4c]
        assert g_eval(plm, (c, a)) == LexVec([2 * c - a / 4, c])
    # (c) power sequence against the closed formulas for l = 2..8
    f = Expr.from_terms([((1, -1), 1), ((1, 2), 1)])
    seq = power_seq(NuTable(seg_cfg, seg_psi, 16), f, window=8)
    tail = [(ell, v) for ell, v in seq if ell >= 2]
    even_c, even_b = LexVec(["3/2", "1"]), LexVec([3, 1])
    odd_c, odd_b = LexVec(["3/2", "1/2"]), LexVec(["-3/2", "1/2"])
    for ell, v in tail:
        if ell % 2 == 0:
            assert v == even_c - even_b * Fraction(1, ell)
        else:
            assert v == odd_c + odd_b * Fraction(1, ell)
    # (d) the windowed accumulation set
    acc = windowed_accumulation(tail)
    assert acc.candidates == frozenset({even_c, odd_c})
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _report(capsys, 2, f"running example reproduced in {elapsed:.2f}s")


def test_criterion_3_polar_duality_suite(capsys):
    t0 = time.monotonic()
    population = criterion3_cones(200)
    for a, b, _n in population:
        dim = a.dim
        pa, pb = polar(a), polar(b)
        # roundtrip identity
        assert polar(pa) == a
        # inclusion reversal
        if a <= b:
            assert pb <= pa
        inter = cone_intersection(a, b)
        assert polar(cone_sum(a, b)) == cone_intersection(pa, pb)
        assert inter <= a and inter <= b
        # face <-> co-face duality through the polar
        for _f, u, cf in cofaces(a).entries:
            dual_face = PolyCone.from_normals(
                dim, ineqs=pa.ineq_normals, eqs=list(pa.eq_normals) + [u]
            )
            assert polar(cf) == dual_face
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report(capsys, 3, f"200 random cones, all dualities exact in {elapsed:.1f}s")


def test_criterion_4_partition_property(seg_cfg, simplex_cfg, square_cfg, capsys):
    t0 = time.monotonic()
    rng = random.Random(404)
    configs = [seg_cfg, simplex_cfg, square_cfg]
    fans = [[cc.subdivision for cc in enumerate_regular_subdivisions(cfg)] for cfg in configs]
    for i in range(500):
        cfg = configs[i % 3]
        fan = fans[i % 3]
        psi = random_matrix(rng, rng.randint(1, 3), cfg.r)
        s = subdivide(cfg, psi)
        # exactly one regular subdivision carries psi in its open cone
        assert sum(1 for t in fan if t == s) == 1
        for moved in elementary_moves(psi):
            assert subdivide(cfg, moved) == s
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    _report(capsys, 4, f"500 random matrices partitioned uniquely in {elapsed:.1f}s")


def test_criterion_5_dimension_formulas(simplex_cfg, capsys):
    # mu_dim against the explicit closure-cone rank oracle
    for a, _b, n in criterion3_cones(200):
        mu = MuCone(n_rank=n, copolar_cone=a)
        assert mu_dim(mu) == euclidean_closure(mu).cone_dim()
    # every regular triangulation of the simplex example has full cone dim
    tris = [
        cc.subdivision
        for cc in enumerate_regular_subdivisions(simplex_cfg)
        if is_triangulation(simplex_cfg, cc.subdivision)
    ]
    assert tris
    for s in tris:
        for n in (1, 2, 3):
            assert cone_dim(simplex_cfg, s, n) == n * 4
    _report(capsys, 5, "mu_dim matches closure rank on 200 cones; triangulation cones full-dimensional")


def test_criterion_6_valuation_comparison(seg_cfg, seg_psi, seg_marked, seg_plm, capsys):
    zero = LexVec([0, 0])
    nu = NuTable(seg_cfg, seg_psi, 10)
    for u in semigroup_up_to(seg_cfg, 10):
        f = Expr.basis(u)
        vv = v_quasi(seg_plm, f).value
        nn = nu_quasi(nu, f).value
        assert nn <= vv  # V >= nu throughout
        # equality exactly on the union of the marked submonoids
        assert (vv == nn) == any(in_SQ1(q, u) for q in seg_marked)
    img = delta_image(seg_cfg, seg_psi, seg_plm, 12)
    assert reversed_delta_image(seg_cfg, seg_psi, seg_plm, 12) == (img.values, img.per_cell)
    assert len(img.values) < 10**6  # finite by construction, cardinality reported
    _report(
        capsys,
        6,
        f"V >= nu up to degree 10, equality on the marked monoids; "
        f"|delta image at 12| = {len(img.values)} (stable across orders)",
    )


def test_criterion_7_degeneration(seg_cfg, seg_psi, seg_sub, simplex_cfg, simplex_q2, capsys):
    pres = gr_v_present(TruncatedSemigroup(seg_cfg, seg_sub, 6))
    assert pres.nilpotents == ()
    assert len(pres.components) == len(seg_sub.cells)
    assert all(c.ok for c in pres.certificates)
    ideal = stanley_reisner(seg_cfg, seg_sub)
    assert ideal.nonfaces == ((0, 4),)
    assert ideal.nilpotent == (1, 3)
    ideal2 = stanley_reisner(simplex_cfg, simplex_q2)
    assert ideal2.nonfaces == ((0, 1, 2),)
    assert ideal2.nilpotent == ()
    # two distinct matrices in the same open cone give identical tables
    other = WeightMatrix(rows=((2, 0, 4, 0, 2), (1, 3, 4, 1, "7/2")))
    s_other = subdivide(seg_cfg, other)
    assert s_other == seg_sub and other != seg_psi
    for build in (gr_v_present, gr_nu_reduced):
        a = build(TruncatedSemigroup(seg_cfg, seg_sub, 5))
        b = build(TruncatedSemigroup(seg_cfg, s_other, 5))
        assert a.basis == b.basis and a.table == b.table
        pos = [u for u in a.basis if u[0] > 0]
        assert all(
            a.product(u, w) == b.product(u, w)
            for u in pos
            for w in pos
            if u[0] + w[0] <= a.bound
        )
        assert a.components == b.components
        assert a.nilpotents == b.nilpotents
    _report(capsys, 7, "presentations reduced/certified; SR ideals exact; tables depend only on the cell structure")


def test_criterion_8_full_rank(seg_cfg, seg_psi, seg_sub, capsys):
    stacked = stack(seg_cfg, seg_psi)
    s = subdivide(seg_cfg, stacked)
    assert s == seg_sub
    plm = linear_extension(seg_cfg, s, stacked)
    res = is_full_rank(seg_cfg, plm, 8)
    assert res.full_rank and res.collision is None
    _report(capsys, 8, "stacked matrix injective up to degree 8 with unchanged subdivision")
