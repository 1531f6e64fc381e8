"""Polyhedral cones: dual descriptions, canonical forms, faces/co-faces,
polar duality, and lexicographic matrix-space cones."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexfan import cones
from lexfan.cones import (
    MuCone,
    PolyCone,
    coface,
    cofaces,
    cone_intersection,
    cone_sum,
    mu_dim,
    mu_face,
    mu_member,
)
from lexfan.config import hull_of, refinement_poset
from lexfan.errors import DimensionError
from lexfan.exactlex import WeightMatrix
from lexfan.linalg import canonical_subspace_basis, primitive
from lexfan.gkzfan import condition_cone, enumerate_regular_subdivisions

from helpers import criterion3_cones, polar, random_cone, sides
from oracles import euclidean_closure


class TestPolyCone:
    def test_orthant(self):
        c = PolyCone.from_generators(3, rays=[(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert c.lines == ()
        assert set(c.rays) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
        assert c.cone_dim() == 3 and not c.lines
        assert c.contains((2, 3, 1)) and not c.contains((-1, 0, 0))
        assert len(c.faces()) == 8

    def test_from_normals_halfplane(self):
        c = PolyCone.from_normals(2, ineqs=[(0, 1)])
        assert c.lines == ((1, 0),)
        assert c.rays == ((0, -1),)
        assert c.cone_dim() == 2 and len(c.lines) == 1

    def test_zero_and_full(self):
        z, f = PolyCone.from_generators(3), PolyCone.from_normals(3)
        assert z.cone_dim() == 0 and not z.rays and not z.lines
        assert f.cone_dim() == 3 and len(f.lines) == 3
        assert z <= f and not (f <= z)
        assert polar(z) == f and polar(f) == z

    def test_canonical_equality_is_representation_independent(self):
        a = PolyCone.from_generators(2, rays=[(1, 0), (1, 1)])
        b = PolyCone.from_generators(2, rays=[(2, 0), (3, 3), (2, 1)])
        assert a == b and hash(a) == hash(b)

    def test_dual_descriptions_agree(self):
        for a, b, _n in criterion3_cones(200):
            for c in (a, b):
                g = PolyCone.from_generators(c.dim, rays=c.rays, lines=c.lines)
                h = PolyCone.from_normals(c.dim, ineqs=c.ineq_normals, eqs=c.eq_normals)
                assert sides(g) == sides(h) == sides(c)

    def test_one_dd_pass_per_cone(self, monkeypatch):
        calls = []
        dd = cones._dd

        def counted(*args):
            calls.append(args)
            return dd(*args)

        monkeypatch.setattr(cones, "_dd", counted)
        g = PolyCone.from_generators(3, rays=[(1, 0, 0), (0, 1, 0), (1, 1, 0)], lines=[(0, 0, 1)])
        h = PolyCone.from_normals(3, ineqs=[(-1, 0, 0), (0, -1, 0), (-1, -1, 0)], eqs=[(0, 0, 1)])
        assert len(calls) == 2  # one pass per constructor
        calls.clear()
        for c in (g, h):
            c.lines, c.rays, c.eq_normals, c.ineq_normals, c.generators, c.normals
            for f in c.faces():
                f.lines, f.rays, f.eq_normals, f.ineq_normals
        assert not calls  # the other side and the faces are read off, not recomputed

    def test_line_handling(self):
        c = PolyCone.from_generators(3, rays=[(0, 0, 1)], lines=[(1, 1, 0)])
        assert len(c.lines) == 1
        assert c.contains((5, 5, 2)) and c.contains((-4, -4, 0))
        assert not c.contains((1, 0, 0))
        # normal span is the orthogonal complement of the lineality space
        ns = canonical_subspace_basis(list(c.normals))
        assert all(
            sum(Fraction(x) * Fraction(y) for x, y in zip(n, l)) == 0
            for n in ns
            for l in c.lines
        )

    def test_relative_interior_point(self):
        c = PolyCone.from_generators(2, rays=[(1, 0), (0, 1)])
        p = c.relative_interior_point()
        assert c.contains(p)
        # interior: no inequality tight
        assert len(coface(c, p).lines) == 2

    def test_dimension_errors(self):
        with pytest.raises(DimensionError):
            PolyCone.from_generators(2, rays=[(1, 0, 0)])
        c = PolyCone.from_normals(2)
        with pytest.raises(DimensionError):
            c.contains((1, 2, 3))

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_vectors_are_primitive_int_tuples(self, data):
        """Rational generators and normals (the criterion-3 entries p/q with
        |p| <= 4, q <= 3) give cones whose four vector lists, and hulls whose
        facets and equations, hold only primitive int tuples."""
        dim = data.draw(st.integers(2, 5))
        entry = st.fractions(min_value=-4, max_value=4, max_denominator=3)
        vectors = st.lists(st.tuples(*[entry] * dim), min_size=1, max_size=6)
        given_rays, given_ineqs, given_eqs = (data.draw(vectors) for _ in range(3))

        def primitive_ints(vs):
            return all(
                all(type(x) is int for x in v) and gcd(*v) == 1 for v in vs
            )

        for c in (
            PolyCone.from_generators(dim, rays=given_rays),
            PolyCone.from_normals(dim, ineqs=given_ineqs, eqs=given_eqs[:1]),
        ):
            assert primitive_ints(c.lines) and primitive_ints(c.rays)
            assert primitive_ints(c.eq_normals) and primitive_ints(c.ineq_normals)
        points = data.draw(
            st.lists(st.tuples(*[st.integers(-3, 3)] * (dim - 1)), min_size=1, max_size=6)
        )
        for pts in (tuple(points), tuple(tuple(map(Fraction, p)) for p in points)):
            h = hull_of.__wrapped__(pts)  # uncached: int and Fraction keys are equal
            assert primitive_ints(h.facets) and primitive_ints(h.affine_eqs)


@st.composite
def degenerate_sides(draw):
    """A dimension and a (subspace, one-sided) pair of vector lists, as fed
    to either constructor: Fraction entries, linearly dependent subspace
    vectors, and one-sided vectors that are zero, repeated, positive
    multiples of others or inside the subspace."""
    dim = draw(st.integers(1, 4))
    entry = st.one_of(
        st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=3)
    )
    vec = st.tuples(*[entry] * dim)
    base = draw(st.lists(vec, max_size=2))
    if len(base) == 2 and draw(st.booleans()):
        base.append(tuple(x + y for x, y in zip(*base)))  # linearly dependent
    cands = draw(st.lists(vec, min_size=1, max_size=6))
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["zero", "repeat", "multiple", "subspace"]))
        if kind == "zero":
            cands.append((0,) * dim)
        elif kind == "repeat":
            cands.append(draw(st.sampled_from(cands)))
        elif kind == "multiple":
            k = draw(st.fractions(min_value=Fraction(1, 3), max_value=3))
            cands.append(tuple(k * x for x in draw(st.sampled_from(cands))))
        elif base:
            k = draw(st.integers(-2, 2))
            cands.append(tuple(k * x for x in draw(st.sampled_from(base))))
    return dim, base, draw(st.permutations(cands))


def faces_by_dd(cone: PolyCone) -> list[PolyCone]:
    """Oracle for ``PolyCone.faces``: the same breadth-first search, each face
    built by a DD pass from its parent's normals plus one facet as an
    equation."""
    seen = {cone._vkey(): cone}
    frontier = [cone]
    while frontier:
        nxt = []
        for f in frontier:
            for n in f.ineq_normals:
                sub = PolyCone.from_normals(
                    cone.dim, ineqs=f.ineq_normals, eqs=list(f.eq_normals) + [n]
                )
                if sub._vkey() not in seen:
                    seen[sub._vkey()] = sub
                    nxt.append(sub)
        frontier = nxt
    return list(seen.values())


class TestZeroSets:
    """The DD pass keeps each ray's zero set instead of recomputing it; the
    oracle recomputes it with dot products."""

    @settings(max_examples=300, deadline=None)
    @given(degenerate_sides())
    def test_zero_sets_match_incidences(self, drawn):
        dim, base, cands = drawn
        cands = [(0,) * dim, *cands, cands[0]]  # a zero and a repeated one
        _, rays = cones._dd(dim, base, cands)
        zsets = list(rays.values())
        assert zsets == cones._incidences(rays, [primitive(a) for a in cands])
        assert all(any(r) for r in rays)  # no ray is tight on every inequality
        # both constructors keep exactly these sets for the side they read off
        for c in (
            PolyCone.from_normals(dim, ineqs=cands, eqs=base),
            PolyCone.from_generators(dim, rays=cands, lines=base),
        ):
            assert c._given[2] == tuple(zsets)


class TestReadOff:
    """The side a constructor did not compute is read off the given vectors;
    the oracle is a second DD pass from the computed side."""

    @settings(max_examples=300, deadline=None)
    @given(degenerate_sides())
    def test_generators_read_off_matches_dd(self, drawn):
        dim, lines, rays = drawn
        c = PolyCone.from_generators(dim, rays=rays, lines=lines)
        assert c._v == cones._canonical(*cones._dd(dim, c.eq_normals, c.ineq_normals))

    @settings(max_examples=300, deadline=None)
    @given(degenerate_sides())
    def test_normals_read_off_matches_dd(self, drawn):
        dim, eqs, ineqs = drawn
        c = PolyCone.from_normals(dim, ineqs=ineqs, eqs=eqs)
        assert c._h == cones._canonical(*cones._dd(dim, c.lines, c.rays))

    @settings(max_examples=100, deadline=None)
    @given(degenerate_sides(), st.booleans())
    def test_faces_match_dd(self, drawn, by_normals):
        dim, base, cands = drawn
        if by_normals:
            c = PolyCone.from_normals(dim, ineqs=cands, eqs=base)
        else:
            c = PolyCone.from_generators(dim, rays=cands, lines=base)
        assert [sides(f) for f in c.faces()] == [sides(f) for f in faces_by_dd(c)]

    def test_faces_of_random_cones_match_dd(self):
        rng = random.Random(11)
        for _ in range(40):
            c = random_cone(rng, rng.randint(2, 5), max_gens=8)
            assert [sides(f) for f in c.faces()] == [sides(f) for f in faces_by_dd(c)]


class TestFacesAndCofaces:
    def test_quadrant_cofaces_worked_example(self):
        c = PolyCone.from_generators(2, rays=[(1, 0), (0, 1)])
        lat = cofaces(c)
        assert len(lat) == 4  # cone, two rays, origin
        by_face_dim = {}
        for f, u, cf in lat.entries:
            by_face_dim.setdefault(f.cone_dim(), []).append((f, u, cf))
        # interior point -> whole plane
        (f2, _, cf2) = by_face_dim[2][0]
        assert cf2 == PolyCone.from_normals(2)
        # ray -> half-plane containing the cone
        for f1, _, cf1 in by_face_dim[1]:
            assert len(cf1.lines) == 1 and c <= cf1
        # origin -> the cone itself
        (f0, u0, cf0) = by_face_dim[0][0]
        assert f0 == PolyCone.from_generators(2) and cf0 == c

    def test_coface_requires_membership(self):
        c = PolyCone.from_generators(2, rays=[(1, 0), (0, 1)])
        with pytest.raises(ValueError):
            coface(c, (-1, -1))

    def test_faces_are_nested_and_contained(self):
        c = PolyCone.from_generators(3, rays=[(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)])
        fs = c.faces()
        assert all(f <= c for f in fs)
        dims = sorted(f.cone_dim() for f in fs)
        assert dims == [0, 1, 1, 1, 1, 2, 2, 2, 2, 3]

    def test_incidence_relation(self):
        c = PolyCone.from_generators(2, rays=[(1, 0), (0, 1)])
        lat = cofaces(c)
        fs = lat.faces
        for i, j in lat.incidence:
            assert fs[i] <= fs[j]


class TestPolarDuality:
    def test_roundtrip_and_reversal_random(self):
        rng = random.Random(7)
        for _ in range(25):
            dim = rng.randint(2, 4)
            a = random_cone(rng, dim)
            b = random_cone(rng, dim)
            pa, pb = polar(a), polar(b)
            assert polar(pa) == a
            sum_ab = cone_sum(a, b)
            assert polar(sum_ab) == cone_intersection(pa, pb)
            if a <= b:
                assert pb <= pa

    def test_face_coface_duality_random(self):
        rng = random.Random(8)
        for _ in range(10):
            dim = rng.randint(2, 4)
            a = random_cone(rng, dim)
            pa = polar(a)
            for f, u, cf in cofaces(a).entries:
                dual = PolyCone.from_normals(
                    dim, ineqs=pa.ineq_normals, eqs=list(pa.eq_normals) + [u]
                )
                assert polar(cf) == dual

class TestMuCone:
    def test_membership_signs_on_condition_cone(self, seg_cfg, seg_psi, seg_sub):
        cc = condition_cone(seg_cfg, seg_sub)
        mu = MuCone(n_rank=2, copolar_cone=cc.cone)
        rep = mu_member(mu, seg_psi)
        assert rep.member
        # lines pair to zero, pointed generators strictly negative here
        nline = 2 * len(cc.cone.lines)
        assert sum(1 for s in rep.signs if s == 0) >= nline
        assert all(s <= 0 for s in rep.signs)
        assert rep.face is not None

    def test_membership_on_a_proper_face(self, seg_cfg):
        # the witness height of a coarser subdivision s' lies on the face of
        # a refining chamber's mu-cone that is the mu-cone of s'
        ccs = enumerate_regular_subdivisions(seg_cfg)
        pairs = [
            (ccs[i], ccs[j])
            for i, j in refinement_poset([cc.subdivision for cc in ccs])
            if len(ccs[i].cone.lines) == 0 and any(ccs[j].witness_height)
        ]
        assert len(pairs) == 48
        for fine, coarse in pairs:
            rep = mu_member(
                MuCone(n_rank=1, copolar_cone=fine.cone),
                WeightMatrix(rows=(coarse.witness_height,)),
            )
            assert rep.member
            assert 0 in rep.signs and any(s < 0 for s in rep.signs)
            assert rep.face == MuCone(n_rank=1, copolar_cone=coarse.cone)

    def test_non_membership(self, seg_cfg, seg_sub):
        cc = condition_cone(seg_cfg, seg_sub)
        mu = MuCone(n_rank=2, copolar_cone=cc.cone)
        # a matrix violating convexity on the unmarked point -1
        bad = WeightMatrix(rows=((0, 5, 0, 0, 0), (0, 0, 0, 0, 0)))
        rep = mu_member(mu, bad)
        assert not rep.member and rep.face is None
        assert any(s > 0 for s in rep.signs)

    def test_membership_dimension_error(self):
        mu = MuCone(n_rank=1, copolar_cone=PolyCone.from_generators(2, rays=[(1, 0)]))
        with pytest.raises(DimensionError):
            mu_member(mu, WeightMatrix(rows=((1, 2, 3),)))

    def test_mu_face_is_coface_of_copolar(self):
        c = PolyCone.from_generators(2, rays=[(1, 0), (0, 1)])
        mu = MuCone(n_rank=2, copolar_cone=c)
        f = mu_face(mu, (1, 0))
        assert f.copolar_cone == coface(c, (1, 0))

    def test_mu_dim_formula_vs_closure(self):
        rng = random.Random(10)
        for _ in range(12):
            dim = rng.randint(2, 4)
            c = random_cone(rng, dim)
            for n in (1, 2, 3):
                mu = MuCone(n_rank=n, copolar_cone=c)
                assert mu_dim(mu) == euclidean_closure(mu).cone_dim()

    def test_mu_dim_halfplane(self):
        # co-polar with lineality dim 1 in Q^2: mu_dim = N * (2 - 1)
        c = PolyCone.from_normals(2, ineqs=[(0, 1)])
        assert mu_dim(MuCone(n_rank=3, copolar_cone=c)) == 3
