"""JSON (de)serialization; every number travels as an exact rational string
"p/q" (or "p"), so round-trips are exact.  ``dumps`` writes the CLI's
output, byte for byte as ``json.dumps(obj, indent=2)``."""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from typing import Any

from lexfan.cones import MuCone, PolyCone
from lexfan.config import MarkedCell, MarkedSubdivision, PointConfig
from lexfan.degeneration import SRIdeal
from lexfan.errors import SchemaError
from lexfan.exactlex import WeightMatrix, rat, rat_str
from lexfan.quasival import Expr, GradedPoint


def _require(obj: Any, key: str, typ) -> Any:
    if not isinstance(obj, dict) or key not in obj:
        raise SchemaError(f"missing key {key!r}")
    val = obj[key]
    if typ is not None and not isinstance(val, typ):
        raise SchemaError(f"key {key!r}: expected {typ.__name__}")
    return val


def _int(x) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise SchemaError(f"expected integer, got {x!r}")
    return x


def _rat_list(xs) -> list:
    if not isinstance(xs, list):
        raise SchemaError("expected a list of rationals")
    return [rat(x) for x in xs]


# -- configurations ---------------------------------------------------------

def config_to_json(cfg: PointConfig, s: MarkedSubdivision | None = None) -> dict:
    out = {"dim": cfg.dim, "points": [list(p) for p in cfg.points]}
    if s is not None:
        out.update(subdivision_to_json(s))
    return out


def config_from_json(obj: dict) -> PointConfig:
    dim = _int(_require(obj, "dim", None))
    points = _require(obj, "points", list)
    try:
        return PointConfig(dim=dim, points=tuple(tuple(_int(c) for c in p) for p in points))
    except (TypeError, ValueError) as exc:
        raise SchemaError(str(exc)) from exc


def subdivision_from_json(obj: dict) -> MarkedSubdivision:
    cells = _require(obj, "cells", list)
    out = []
    for c in cells:
        out.append(
            MarkedCell(
                vertices=tuple(_int(i) for i in _require(c, "vertices", list)),
                marking=tuple(_int(i) for i in _require(c, "marking", list)),
            )
        )
    return MarkedSubdivision(cells=tuple(out))


def subdivision_to_json(s: MarkedSubdivision) -> dict:
    return {
        "cells": [
            {"vertices": list(c.vertices), "marking": list(c.marking)}
            for c in s.cells
        ]
    }


# -- matrices and expressions ----------------------------------------------

def matrix_to_json(psi: WeightMatrix) -> dict:
    return {"Psi": [[rat_str(x) for x in row] for row in psi.rows]}


def matrix_from_json(obj: dict) -> WeightMatrix:
    rows = _require(obj, "Psi", list)
    return WeightMatrix(rows=tuple(tuple(_rat_list(row)) for row in rows))


def expr_to_json(f: Expr) -> list:
    return [
        {"d": u.d, "eta": list(u.eta), "coeff": rat_str(c)} for u, c in f.terms
    ]


def expr_from_json(obj) -> Expr:
    if not isinstance(obj, list):
        raise SchemaError("expression must be a list of terms")
    pairs = []
    for term in obj:
        d = _int(_require(term, "d", None))
        eta = tuple(_int(c) for c in _require(term, "eta", list))
        coeff = rat(_require(term, "coeff", None))
        pairs.append((GradedPoint(d, eta), coeff))
    return Expr.from_terms(pairs)


# -- cones ------------------------------------------------------------------

def cone_to_json(cone: PolyCone) -> dict:
    return {
        "generators": [[rat_str(x) for x in g] for g in cone.generators],
        "normals": [[rat_str(x) for x in n] for n in cone.normals],
    }


def cone_from_json(obj: dict, dim: int) -> PolyCone:
    gens = _require(obj, "generators", list)
    return PolyCone.from_generators(dim, rays=[_rat_list(g) for g in gens])


def mucone_to_json(mu: MuCone) -> dict:
    return {
        "N": mu.n_rank,
        "copolar_generators": [
            [rat_str(x) for x in v] for v in mu.copolar_generators
        ],
    }


def sr_to_json(ideal: SRIdeal) -> dict:
    return {
        "variables": list(ideal.variables),
        "nonfaces": [list(nf) for nf in ideal.nonfaces],
        "nilpotent": list(ideal.nilpotent),
    }


def load_json(path: str) -> Any:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise SchemaError(f"no such file: {path}") from exc
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc.strerror}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SchemaError(f"invalid JSON in {path}: {exc}") from exc


_FLAT = frozenset((int, str))


def dumps(obj: Any) -> str:
    """``json.dumps(obj, indent=2)``, byte for byte, for dicts with str keys,
    lists, tuples, str, int, bool, None and float.  A list or tuple of plain
    ints and strs is rendered with one join; such a tuple, such as a basis
    vector, is rendered once per depth and reused for every equal tuple at
    that depth within the call.  Only exact int and str items qualify:
    ``(1,) == (True,)``, yet they render differently."""
    parts: list = []
    put = parts.append
    # at index k: newline and k indents, the same after a comma, and the
    # rendered flat tuples met at depth k
    nl, sep, memo = ["\n"], [",\n"], [{}]

    def enc(o: Any, depth: int) -> None:
        if isinstance(o, (list, tuple, dict)):
            if not o:
                put("{}" if isinstance(o, dict) else "[]")
                return
            if len(nl) == depth + 1:
                nl.append(nl[depth] + "  ")
                sep.append(sep[depth] + "  ")
                memo.append({})
            inner = nl[depth + 1]
            kind = type(o)
            if (kind is tuple or kind is list) and {*map(type, o)} <= _FLAT:
                text = memo[depth].get(o) if kind is tuple else None
                if text is None:
                    items = sep[depth + 1].join(
                        int.__repr__(x) if type(x) is int else encode_basestring_ascii(x)
                        for x in o
                    )
                    text = "[" + inner + items + nl[depth] + "]"
                    if kind is tuple:
                        memo[depth][o] = text
                put(text)
            elif isinstance(o, dict):
                put("{")
                for i, (k, v) in enumerate(o.items()):
                    if not isinstance(k, str):
                        raise TypeError(f"keys must be str, not {type(k).__name__}")
                    put(sep[depth + 1] if i else inner)
                    put(encode_basestring_ascii(k))
                    put(": ")
                    enc(v, depth + 1)
                put(nl[depth])
                put("}")
            else:
                put("[")
                for i, x in enumerate(o):
                    put(sep[depth + 1] if i else inner)
                    enc(x, depth + 1)
                put(nl[depth])
                put("]")
        elif isinstance(o, str):
            put(encode_basestring_ascii(o))
        elif o is None:
            put("null")
        elif o is True:
            put("true")
        elif o is False:
            put("false")
        elif isinstance(o, int):
            put(int.__repr__(o))
        else:
            put(json.dumps(o))  # float; TypeError for anything else

    enc(obj, 0)
    return "".join(parts)
