#!/usr/bin/env python3
"""Enumerate all regular subdivisions of a few desk-scale configurations,
print their condition cones and pairwise refinement relations, and verify
the partition property on a pseudo-random sample of weight matrices.

Run from the repository root:

    python3 scripts/enumerate_fans.py [--samples N] [--seed S]
"""

import argparse
import random
import sys
from fractions import Fraction

from lexfan.config import PointConfig, is_triangulation, refinement_poset
from lexfan.exactlex import WeightMatrix
from lexfan.gkzfan import enumerate_regular_subdivisions, subdivide

CONFIGS = {
    "segment {-2,-1,0,2,4}": PointConfig(
        dim=1, points=((-2,), (-1,), (0,), (2,), (4,))
    ),
    "simplex with interior point": PointConfig(
        dim=2, points=((0, 0), (3, 0), (0, 3), (1, 1))
    ),
    "unit square": PointConfig(
        dim=2, points=((0, 0), (1, 0), (0, 1), (1, 1))
    ),
}


def random_matrix(rng: random.Random, n: int, r: int) -> WeightMatrix:
    return WeightMatrix(
        rows=tuple(
            tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(r))
            for _ in range(n)
        )
    )


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--samples", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    rng = random.Random(args.seed)

    for name, cfg in CONFIGS.items():
        ccs = enumerate_regular_subdivisions(cfg)
        subs = [cc.subdivision for cc in ccs]
        cones = [cc.cone for cc in ccs]
        print(f"\n{name}: {len(subs)} regular subdivisions")
        for i, (s, cone) in enumerate(zip(subs, cones)):
            tag = "triangulation" if is_triangulation(cfg, s) else "subdivision"
            print(
                f"  [{i}] {tag}, {len(s.cells)} cells, "
                f"cone dim (N=1) = {cfg.r - len(cone.lines)}, "
                f"rays {len(cone.rays)}, lines {len(cone.lines)}"
            )
        print(f"  refinement relations: {refinement_poset(subs)}")

        hits = [0] * len(subs)
        for _ in range(args.samples):
            psi = random_matrix(rng, rng.randint(1, 3), cfg.r)
            s = subdivide(cfg, psi)
            matches = [k for k, t in enumerate(subs) if t == s]
            if len(matches) != 1:
                print(
                    f"partition property violated: {psi} induces a subdivision "
                    f"listed {len(matches)} times",
                    file=sys.stderr,
                )
                return 1
            hits[matches[0]] += 1
        print(f"  open-cone hits over {args.samples} random matrices: {hits}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
