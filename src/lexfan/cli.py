"""Command-line surface.

Subcommands: subdivide, fan, valuate, liminf, degenerate.
Exit codes: 0 ok; an error of a class in ``errors.EXIT_CODES`` prints one
stderr line and exits with that class's code.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import os
import sys
from fractions import Fraction

from lexfan import degeneration, gkzfan, io, quasival
from lexfan.config import PointConfig, is_triangulation, refinement_poset
from lexfan.errors import EXIT_CODES, SchemaError
from lexfan.exactlex import INFINITY, rat_str


_BLOCK = 1 << 16  # the least write, so that a small output is one write


def _emit(args, payload, text_fn=None, svg_fn=None) -> None:
    if args.format == "json":
        pieces = io.chunks(payload)
    else:
        render = text_fn if args.format == "text" else svg_fn
        if render is None:
            raise SchemaError(f"{args.format} output is not available for this command")
        pieces = [render(payload)]
    try:
        with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as fh:
            if fh is None:  # stdout closed at start (`>&-`)
                raise OSError(errno.EBADF, os.strerror(errno.EBADF))
            block, size, wrote = [], 0, False
            for piece in pieces:
                block.append(piece)
                size += len(piece)
                if size >= _BLOCK:
                    fh.write("".join(block))
                    block, size, wrote = [], 0, True
            # unbuffered, a write cut short by a closed pipe drops its rest
            # unseen and only the next write fails: after a block, the
            # newline goes alone
            fh.write("".join(block) if wrote else "".join(block) + "\n")
            if wrote:
                fh.write("\n")
            fh.flush()
    except OSError as exc:
        if not args.out and sys.stdout is not None:
            # the unwritten output stays buffered: point fd 1 at the null
            # device, or the interpreter's final flush fails again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, 1)
            os.close(devnull)
        raise SchemaError(f"cannot write {args.out or 'stdout'}: {exc.strerror}") from exc


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
    # each point as (x, y), a coordinate the dimension lacks read as 0
    coords = [(*p, Fraction(0), Fraction(0))[:2] for p in pts]
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
        **io.config_to_json(cfg, s),
        "open_member": ledger.open_member,
        "closed_member": ledger.member,
        "condition_signs": [
            {
                "vector": list(map(str, g.vector)),
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
    poset = refinement_poset([cc.subdivision for cc in ccs])
    entries = (
        {
            "cells": io.subdivision_to_json(cc.subdivision)["cells"],
            "condition_cone": io.cone_to_json(cc.cone),
            "dim_closed_cone_rank1": cfg.r - len(cc.cone.lines),
            "is_triangulation": is_triangulation(cfg, cc.subdivision),
        }
        for cc in ccs
    )
    payload = {"regular_subdivisions": entries, "refinement_poset": poset}
    _emit(args, payload)
    return 0


def cmd_valuate(args) -> int:
    cfg = io.config_from_json(io.load_json(args.config))
    psi = io.matrix_from_json(io.load_json(args.matrix))
    f = io.expr_from_json(io.load_json(args.expr))
    s = gkzfan.subdivide(cfg, psi)
    plm = gkzfan.linear_extension(cfg, s, psi)
    table = quasival.NuTable(cfg, psi, args.degree_bound)
    v_rep, nu_rep, delta_rep = quasival.valuate(table, plm, f)
    payload = {
        "V": _lexvec_json(v_rep.value),
        "V_witness_point": v_rep.witness_point,
        "V_witness_cell": v_rep.witness_cell,
        "nu": _lexvec_json(nu_rep.value),
        "nu_witness_point": nu_rep.witness_point,
        "nu_witness_alpha": nu_rep.witness_alpha,
    }
    if delta_rep is not None:
        payload["delta"] = _lexvec_json(delta_rep.value)
    _emit(args, payload)
    return 0


def cmd_liminf(args) -> int:
    cfg = io.config_from_json(io.load_json(args.config))
    psi = io.matrix_from_json(io.load_json(args.matrix))
    f = io.expr_from_json(io.load_json(args.expr))
    seq = quasival.power_seq(quasival.NuTable(cfg, psi, args.degree_bound), f, window=args.window)
    acc = quasival.windowed_accumulation(seq)
    payload = {
        "sequence": [{"l": ell, "value": _lexvec_json(v)} for ell, v in seq],
        "accumulation_candidates": sorted(map(_lexvec_json, acc.candidates)),
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
    payload = {
        "cells": io.subdivision_to_json(s)["cells"],
        "degree_bound": bound,
        "gr_V": _presentation_payload(degeneration.gr_v_present(t)),
        "gr_nu_reduced": _presentation_payload(degeneration.gr_nu_reduced(t)),
    }
    if is_triangulation(cfg, s):
        payload["stanley_reisner"] = io.sr_to_json(degeneration.stanley_reisner(cfg, s))
    _emit(args, payload)
    return 0


def _presentation_payload(pres) -> dict:
    """Classes by index: ``io.chunks`` renders each class's one tuple once."""
    return {
        "basis_size": len(pres.basis),
        "components": io.Rows(pres.basis, pres.components),
        "zero_products": io.Rows(pres.basis, pres.table),
        "nilpotents": [{"point": pres.basis[i], "witness": ell} for i, ell in pres.nilpotents],
        "equidimensional": pres.equidimensional,
        "certificates_ok": all(c.ok for c in pres.certificates) if pres.certificates else None,
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged, so
    every ``main`` call reuses it."""
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
    args = build_parser().parse_args(argv)
    try:
        if args.degree_bound <= 0 or args.window <= 0 or args.budget <= 0:
            raise SchemaError("bounds must be positive")
        return args.fn(args)
    except tuple(EXIT_CODES) as exc:
        code, label = EXIT_CODES[type(exc)]
        print(f"{label}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
