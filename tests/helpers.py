"""Deterministic random generators and reference constructions shared by
the module tests and the acceptance suite."""

from __future__ import annotations

import random
from fractions import Fraction

from lexfan.cones import PolyCone
from lexfan.config import MarkedCell, MarkedSubdivision, PointConfig, hull_of
from lexfan.exactlex import WeightMatrix, rat_str
from lexfan.quasival import Expr


def random_cone(rng: random.Random, dim: int, max_gens: int = 6) -> PolyCone:
    rays = [
        tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(dim))
        for _ in range(rng.randint(1, max_gens))
    ]
    return PolyCone.from_generators(dim, rays=rays)


def sides(c: PolyCone) -> tuple:
    """Every field of both descriptions: ``__eq__`` compares only the V-side."""
    return (c.dim, c.lines, c.rays, c.eq_normals, c.ineq_normals)


def polar(c: PolyCone) -> PolyCone:
    """The ordinary polar {y : y.x <= 0 for all x in C}."""
    gens = c.generators
    if not gens:
        return PolyCone.from_normals(c.dim)
    return PolyCone.from_normals(c.dim, ineqs=gens)


def trivial_subdivision(cfg: PointConfig) -> MarkedSubdivision:
    """One cell, the hull of the configuration, marking every point."""
    h = hull_of(cfg.points)
    return MarkedSubdivision(cells=(MarkedCell(vertices=h.vertices, marking=tuple(range(cfg.r))),))


def matrix_to_json(psi: WeightMatrix) -> dict:
    return {"Psi": [[rat_str(x) for x in row] for row in psi.rows]}


def expr_to_json(f: Expr) -> list:
    return [{"d": u[0], "eta": list(u[1:]), "coeff": rat_str(c)} for u, c in f.terms]


def random_matrix(rng: random.Random, n: int, r: int) -> WeightMatrix:
    return WeightMatrix(
        rows=tuple(
            tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(r))
            for _ in range(n)
        )
    )


def criterion3_cones(count: int = 200, seed: int = 202):
    """The fixed pseudo-random cone population shared by the polar-duality
    and dimension-formula acceptance tests."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        dim = rng.randint(2, 5)
        a = random_cone(rng, dim)
        b = random_cone(rng, dim)
        n = rng.randint(1, 3)
        out.append((a, b, n))
    return out


def scaled(u: tuple, k: int) -> tuple:
    """k times the point u = (d, *eta)."""
    return tuple(k * c for c in u)
