"""Shared fixtures: the two worked examples, a unit square, and a
non-regular pinwheel triangulation used as a negative witness."""

from __future__ import annotations

import pytest

from lexfan.config import MarkedCell, MarkedSubdivision, PointConfig
from lexfan.exactlex import WeightMatrix
from lexfan.gkzfan import linear_extension, subdivide
from lexfan.quasival import Submonoid


@pytest.fixture(scope="session")
def seg_cfg() -> PointConfig:
    """Five collinear points -2, -1, 0, 2, 4 on the line."""
    return PointConfig(dim=1, points=((-2,), (-1,), (0,), (2,), (4,)))


@pytest.fixture(scope="session")
def seg_psi() -> WeightMatrix:
    """Rank-2 weight matrix splitting the segment at 0 with unmarked
    interior points -1 and 2."""
    return WeightMatrix(rows=((1, 0, 2, 0, 1), (0, 1, 1, 0, 1)))


@pytest.fixture(scope="session")
def seg_sub(seg_cfg, seg_psi) -> MarkedSubdivision:
    return subdivide(seg_cfg, seg_psi)


@pytest.fixture(scope="session")
def seg_marked(seg_cfg, seg_sub) -> tuple:
    """The marked submonoids S¹_Q of the segment example's two cells."""
    return tuple(Submonoid(seg_cfg, c.marking) for c in seg_sub.cells)


@pytest.fixture(scope="session")
def seg_plm(seg_cfg, seg_sub, seg_psi):
    return linear_extension(seg_cfg, seg_sub, seg_psi)


@pytest.fixture(scope="session")
def simplex_cfg() -> PointConfig:
    """The dilated triangle with one interior point: r = 4, dim = 2."""
    return PointConfig(dim=2, points=((0, 0), (3, 0), (0, 3), (1, 1)))


@pytest.fixture(scope="session")
def simplex_q0(simplex_cfg) -> MarkedSubdivision:
    """Trivial cell, everything marked."""
    return MarkedSubdivision(
        cells=(MarkedCell(vertices=(0, 1, 2), marking=(0, 1, 2, 3)),)
    )


@pytest.fixture(scope="session")
def simplex_q1() -> MarkedSubdivision:
    """Trivial cell, interior point unmarked."""
    return MarkedSubdivision(
        cells=(MarkedCell(vertices=(0, 1, 2), marking=(0, 1, 2)),)
    )


@pytest.fixture(scope="session")
def simplex_q2() -> MarkedSubdivision:
    """Stellar triangulation at the interior point: three triangles."""
    return MarkedSubdivision(
        cells=(
            MarkedCell(vertices=(0, 1, 3), marking=(0, 1, 3)),
            MarkedCell(vertices=(0, 2, 3), marking=(0, 2, 3)),
            MarkedCell(vertices=(1, 2, 3), marking=(1, 2, 3)),
        )
    )


@pytest.fixture(scope="session")
def square_cfg() -> PointConfig:
    return PointConfig(dim=2, points=((0, 0), (1, 0), (0, 1), (1, 1)))


@pytest.fixture(scope="session")
def pinwheel_cfg() -> PointConfig:
    """Outer triangle with a twisted inner triangle; carries a classical
    non-regular triangulation."""
    return PointConfig(
        dim=2, points=((0, 0), (4, 0), (0, 4), (1, 1), (2, 1), (1, 2))
    )


@pytest.fixture(scope="session")
def pinwheel_tri() -> MarkedSubdivision:
    cells = [(3, 4, 5), (0, 1, 3), (1, 3, 4), (1, 2, 4), (2, 4, 5), (0, 2, 5), (0, 3, 5)]
    return MarkedSubdivision(
        cells=tuple(MarkedCell(vertices=c, marking=c) for c in cells)
    )
