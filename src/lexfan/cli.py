"""Command-line surface.

Subcommands: subdivide, fan, valuate, liminf, degenerate.
Exit codes: 0 ok, 2 schema violation, 3 dimension mismatch, 4 enumeration
budget exceeded, 5 degree-bound overflow.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from lexfan import degeneration, gkzfan, io, quasival
from lexfan.config import PointConfig, is_triangulation
from lexfan.errors import (
    BudgetExceeded,
    DegreeOverflow,
    DimensionError,
    SchemaError,
)
from lexfan.exactlex import INFINITY, rat_str


def _emit(args, payload, text_fn=None, svg_fn=None) -> None:
    if args.format == "json":
        rendered = json.dumps(payload, indent=2)
    elif args.format == "text":
        rendered = text_fn(payload) if text_fn else json.dumps(payload, indent=2)
    elif args.format == "svg":
        if svg_fn is None:
            raise SchemaError("svg output is not available for this command")
        rendered = svg_fn(payload)
    else:
        raise SchemaError(f"unknown format {args.format!r}")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(rendered + "\n")
    else:
        print(rendered)


def _lexvec_json(v):
    if v is INFINITY:
        return "infinity"
    return [rat_str(x) for x in v]


# ---------------------------------------------------------------------------
# subdivision rendering
# ---------------------------------------------------------------------------

def render_svg(payload: dict) -> str:
    """Deterministic SVG of a subdivision JSON over a dim <= 2 configuration."""
    dim = payload["dim"]
    if dim > 2:
        raise SchemaError("svg output is limited to ambient dimension <= 2")
    pts = [tuple(Fraction(c) for c in p) for p in payload["points"]]
    coords = [(p[0], p[1] if dim == 2 else Fraction(0)) for p in pts]
    xs = [c[0] for c in coords]
    ys = [c[1] for c in coords]
    span_x = max(xs) - min(xs) or Fraction(1)
    span_y = max(ys) - min(ys) or Fraction(1)
    size, margin = 400, 40

    def sx(x):
        return float(margin + (x - min(xs)) * (size - 2 * margin) / span_x)

    def sy(y):
        return float(size - margin - (y - min(ys)) * (size - 2 * margin) / span_y)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">'
    ]
    marked = set()
    for cell in payload["cells"]:
        marked.update(cell["marking"])
        vs = [coords[i] for i in cell["vertices"]]
        cx = sum(v[0] for v in vs) / len(vs)
        cy = sum(v[1] for v in vs) / len(vs)
        ordered = sorted(
            vs, key=lambda v: _angle_key(v[0] - cx, v[1] - cy)
        )
        path = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in ordered)
        parts.append(
            f'<polygon points="{path}" fill="#eef4ff" stroke="#333" stroke-width="1.5"/>'
        )
    for i, (x, y) in enumerate(coords):
        fill = "#1f4e9c" if i in marked else "#ffffff"
        parts.append(
            f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="5" fill="{fill}" '
            f'stroke="#1f4e9c" stroke-width="1.5"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def _angle_key(dx: Fraction, dy: Fraction):
    """Exact counter-clockwise order of nonzero directions, starting at the
    positive x-axis (no trigonometry): the half-turn [0, pi) or [pi, 2*pi),
    then the direction on the x-axis that opens it, then -cot, which
    increases with the angle inside a half-turn."""
    upper = dy > 0 or (dy == 0 and dx > 0)
    return (not upper, dy != 0, -dx / dy if dy else 0)


def _subdivision_payload(cfg: PointConfig, psi, s) -> dict:
    ledger = gkzfan.closed_member(cfg, psi, s)
    return {
        "dim": cfg.dim,
        "points": [list(p) for p in cfg.points],
        "cells": io.subdivision_to_json(s)["cells"],
        "open_member": ledger.open_member,
        "closed_member": ledger.member,
        "condition_signs": [
            {
                "vector": [rat_str(x) for x in g.vector],
                "cell": g.cell,
                "point": g.point,
                "two_sided": g.two_sided,
                "sign": sign,
            }
            for g, sign in ledger.signs
        ],
    }


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_subdivide(args) -> int:
    cfg = io.config_from_json(io.load_json(args.config))
    psi = io.matrix_from_json(io.load_json(args.matrix))
    s = gkzfan.subdivide(cfg, psi)
    payload = _subdivision_payload(cfg, psi, s)
    _emit(args, payload, text_fn=_subdivision_text, svg_fn=render_svg)
    return 0


def _subdivision_text(payload) -> str:
    lines = [f"subdivision of {len(payload['points'])} points in dim {payload['dim']}"]
    for cell in payload["cells"]:
        lines.append(f"  cell {cell['vertices']} marked {cell['marking']}")
    lines.append(f"open member: {payload['open_member']}")
    return "\n".join(lines)


def cmd_fan(args) -> int:
    cfg = io.config_from_json(io.load_json(args.config))
    ccs = gkzfan.enumerate_regular_subdivisions(cfg, budget=args.budget)
    cones = [cc.cone for cc in ccs]
    entries = [
        {
            "cells": io.subdivision_to_json(cc.subdivision)["cells"],
            "condition_cone": io.cone_to_json(cc.cone),
            "dim_closed_cone_rank1": cfg.r - cc.cone.lineality_dim(),
            "is_triangulation": is_triangulation(cfg, cc.subdivision),
        }
        for cc in ccs
    ]
    # s_i refines s_j iff the condition cone of s_i lies in that of s_j
    poset = [
        [i, j]
        for i, ci in enumerate(cones)
        for j, cj in enumerate(cones)
        if i != j and ci <= cj
    ]
    payload = {"regular_subdivisions": entries, "refinement_poset": poset}
    _emit(args, payload)
    return 0


def cmd_valuate(args) -> int:
    cfg = io.config_from_json(io.load_json(args.config))
    psi = io.matrix_from_json(io.load_json(args.matrix))
    f = io.expr_from_json(io.load_json(args.expr))
    s = gkzfan.subdivide(cfg, psi)
    plm = gkzfan.linear_extension(cfg, s, psi)
    v_rep = quasival.v_quasi(plm, f)
    table = quasival.NuTable(cfg, psi)
    nu_rep = quasival.nu_quasi(table, f, degree_bound=args.degree_bound)
    payload = {
        "V": _lexvec_json(v_rep.value),
        "V_witness_point": None
        if v_rep.witness_point is None
        else list(v_rep.witness_point.vector),
        "V_witness_cell": v_rep.witness_cell,
        "nu": _lexvec_json(nu_rep.value),
        "nu_witness_point": None
        if nu_rep.witness_point is None
        else list(nu_rep.witness_point.vector),
        "nu_witness_alpha": None
        if nu_rep.witness_alpha is None
        else list(nu_rep.witness_alpha),
    }
    if not f.is_zero():
        payload["delta"] = _lexvec_json(
            quasival.delta(table, plm, f, degree_bound=args.degree_bound)
        )
    _emit(args, payload)
    return 0


def cmd_liminf(args) -> int:
    cfg = io.config_from_json(io.load_json(args.config))
    psi = io.matrix_from_json(io.load_json(args.matrix))
    f = io.expr_from_json(io.load_json(args.expr))
    seq = quasival.power_seq(
        quasival.NuTable(cfg, psi), f, window=args.window, degree_bound=args.degree_bound
    )
    acc = quasival.windowed_accumulation(seq)
    payload = {
        "sequence": [{"l": ell, "value": _lexvec_json(v)} for ell, v in seq],
        "accumulation_candidates": sorted(
            [_lexvec_json(v) for v in acc.candidates]
        ),
        "liminf": None if acc.liminf is None else _lexvec_json(acc.liminf),
        "windowed": acc.windowed,
    }
    _emit(args, payload)
    return 0


def cmd_degenerate(args) -> int:
    cfg = io.config_from_json(io.load_json(args.config))
    psi = io.matrix_from_json(io.load_json(args.matrix))
    s = gkzfan.subdivide(cfg, psi)
    bound = args.degree_bound
    t = quasival.TruncatedSemigroup(cfg, s, bound)
    gr_v = degeneration.gr_v_present(t)
    gr_nu = degeneration.gr_nu_reduced(t)
    payload = {
        "cells": io.subdivision_to_json(s)["cells"],
        "degree_bound": bound,
        "gr_V": _presentation_payload(gr_v),
        "gr_nu_reduced": _presentation_payload(gr_nu),
    }
    if is_triangulation(cfg, s):
        payload["stanley_reisner"] = io.sr_to_json(
            degeneration.stanley_reisner(cfg, s)
        )
    _emit(args, payload)
    return 0


def _presentation_payload(pres) -> dict:
    return {
        "basis_size": len(pres.basis),
        "components": [
            [list(u.vector) for u in comp] for comp in pres.components
        ],
        "zero_products": [
            [list(u.vector), list(w.vector)]
            for (u, w), prod in sorted(
                pres.table.items(), key=lambda kv: (kv[0][0].vector, kv[0][1].vector)
            )
            if prod is None
        ],
        "nilpotents": [
            {"point": list(u.vector), "witness": ell} for u, ell in pres.nilpotents
        ],
        "equidimensional": pres.equidimensional,
        "certificates_ok": all(c.ok for c in pres.certificates)
        if pres.certificates
        else None,
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lexfan",
        description="Exact-rational secondary fans, subdivisions, valuations "
        "and degenerations of point configurations.",
    )
    parser.add_argument("--degree-bound", type=int, default=12)
    parser.add_argument("--window", type=int, default=8)
    parser.add_argument("--format", choices=["json", "text", "svg"], default="json")
    parser.add_argument("--out", default=None)
    parser.add_argument("--budget", type=int, default=200_000)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("subdivide", help="subdivision induced by a weight matrix")
    p.add_argument("config")
    p.add_argument("matrix")
    p.set_defaults(fn=cmd_subdivide)

    p = sub.add_parser("fan", help="all regular subdivisions with their cones")
    p.add_argument("config")
    p.set_defaults(fn=cmd_fan)

    p = sub.add_parser("valuate", help="quasi-valuation reports for an expression")
    p.add_argument("config")
    p.add_argument("matrix")
    p.add_argument("expr")
    p.set_defaults(fn=cmd_valuate)

    p = sub.add_parser("liminf", help="power sequence and windowed accumulation")
    p.add_argument("config")
    p.add_argument("matrix")
    p.add_argument("expr")
    p.set_defaults(fn=cmd_liminf)

    p = sub.add_parser("degenerate", help="graded-algebra presentations")
    p.add_argument("config")
    p.add_argument("matrix")
    p.set_defaults(fn=cmd_degenerate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.degree_bound <= 0 or args.window <= 0:
        print("error: bounds must be positive", file=sys.stderr)
        return 2
    try:
        return args.fn(args)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return 2
    except DimensionError as exc:
        print(f"dimension error: {exc}", file=sys.stderr)
        return 3
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 4
    except DegreeOverflow as exc:
        print(f"degree bound overflow: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
