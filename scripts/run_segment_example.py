#!/usr/bin/env python3
"""End-to-end walkthrough of the five-point segment example: induced
subdivision, piecewise-linear map, the two quasi-valuations and their gap,
the power sequence with its accumulation points, and the degenerations.

Run from the repository root:

    python3 scripts/run_segment_example.py
"""

from fractions import Fraction

from lexfan.config import PointConfig, validate_subdivision
from lexfan.degeneration import gr_nu_reduced, gr_v_present, stanley_reisner
from lexfan.exactlex import WeightMatrix
from lexfan.gkzfan import (
    closed_member,
    condition_cone,
    g_eval,
    is_regular,
    linear_extension,
    open_member,
    subdivide,
)
from lexfan.quasival import (
    Expr,
    NuTable,
    TruncatedSemigroup,
    delta_image,
    nu_quasi,
    power_seq,
    stack,
    stretch_factor,
    v_quasi,
    windowed_accumulation,
)


def main() -> None:
    cfg = PointConfig(dim=1, points=((-2,), (-1,), (0,), (2,), (4,)))
    psi = WeightMatrix(rows=((1, 0, 2, 0, 1), (0, 1, 1, 0, 1)))

    s = subdivide(cfg, psi)
    print("induced subdivision:")
    for cell in s.cells:
        print(f"  vertices {cell.vertices}  marking {cell.marking}")
    print("valid:", validate_subdivision(cfg, s).ok)
    print("regular:", is_regular(cfg, s))
    print("open member:", open_member(cfg, psi, s))
    print("closed member:", closed_member(cfg, psi, s).member)
    cc = condition_cone(cfg, s)
    print("condition cone rays:", cc.cone.rays)

    plm = linear_extension(cfg, s, psi)
    for w in [(1, -1), (1, 2), (2, -3), (3, Fraction(5, 2))]:
        print(f"g{w} =", g_eval(plm, w))

    f = Expr.from_terms([((1, -1), 1), ((1, 2), 1)])
    print("V(f)  =", v_quasi(plm, f).value)
    table = NuTable(cfg, psi, 16)
    print("nu(f) =", nu_quasi(table, f).value)

    seq = power_seq(table, f, window=8)
    print("nu(f^l)/l for l = 1..8:")
    for ell, val in seq:
        print(f"  l={ell}: {val}")
    acc = windowed_accumulation([t for t in seq if t[0] >= 2])
    print("accumulation candidates:", sorted(acc.candidates))
    print("liminf over the window:", acc.liminf)

    img = delta_image(cfg, psi, plm, 8)
    print("delta image up to degree 8:", sorted(img.values))
    print("stretch factor:", stretch_factor(TruncatedSemigroup(cfg, s, 12)))

    truncated = TruncatedSemigroup(cfg, s, 6)
    pres_v = gr_v_present(truncated)
    print("gr_V components:", len(pres_v.components), "nilpotents:", len(pres_v.nilpotents))
    pres_nu = gr_nu_reduced(truncated)
    print(
        "reduced gr_nu nilpotent classes:",
        [(pres_nu.basis[i], w) for i, w in pres_nu.nilpotents[:4]],
        "...",
    )
    print("Stanley-Reisner ideal:", stanley_reisner(cfg, s))

    stacked = stack(cfg, psi)
    print("stacked matrix rows:", stacked.n_rows, "(subdivision unchanged)")


if __name__ == "__main__":
    main()
