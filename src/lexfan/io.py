"""JSON (de)serialization; every number travels as an exact rational string
"p/q" (or "p"), so round-trips are exact.  ``chunks`` streams the CLI's
output, byte for byte as ``json.dumps(obj, indent=2)``."""

from __future__ import annotations

import json
from collections.abc import Iterator
from functools import partial
from itertools import chain, islice
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
    if not all(isinstance(p, list) for p in points):  # PointConfig would take "" as a point
        raise SchemaError("expected a list of integers")
    return PointConfig(dim=dim, points=points)  # PointConfig checks each coordinate


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
    return {"cells": [{"vertices": list(c.vertices), "marking": list(c.marking)} for c in s.cells]}


# -- matrices and expressions ----------------------------------------------

def matrix_to_json(psi: WeightMatrix) -> dict:
    return {"Psi": [[rat_str(x) for x in row] for row in psi.rows]}


def matrix_from_json(obj: dict) -> WeightMatrix:
    rows = _require(obj, "Psi", list)
    if not rows:
        raise SchemaError("a weight matrix needs at least one row")
    if not all(isinstance(row, list) for row in rows):  # WeightMatrix would take "12" as a row
        raise SchemaError("expected a list of rationals")
    return WeightMatrix(rows=tuple(rows))  # WeightMatrix decodes each entry


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
        with open(path, "rb") as fh:
            return json.loads(fh.read().decode())
    except FileNotFoundError as exc:
        raise SchemaError(f"no such file: {path}") from exc
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc.strerror}") from exc
    except ValueError as exc:  # not UTF-8, not JSON, or an int past the digit limit
        raise SchemaError(f"invalid JSON in {path}: {exc}") from exc


_FLAT, _INT, _STR = frozenset((int, str)), frozenset((int,)), frozenset((str,))
# the item types of a tuple of tuples; as itself (``is``), checked flat ones
_TUPLES = frozenset((tuple,))
_ROWS = frozenset((list, tuple))
_BIG = 1024  # a list this long is written item by item
_HOLE = "\0"  # marks a node written item by item; rendered text escapes NUL


def dumps(obj: Any) -> str:
    """``json.dumps(obj, indent=2)``, as ``chunks`` renders it."""
    return "".join(chunks(obj))


def chunks(obj: Any) -> Iterator[str]:
    """Pieces whose concatenation is ``json.dumps(obj, indent=2)``, byte for
    byte, for dicts with str keys, lists, tuples, str, int, bool, None and
    float; any other iterator is written as a list.

    A subtree renders as one string in one recursive pass.  Only iterators,
    lists of ``_BIG`` items or more, and the containers holding them are
    yielded item by item.  Within a call each dict key is escaped once, and
    a flat tuple, of exact ints and strs, or a tuple of such tuples, is
    rendered once per depth, but not kept for the items of a list written
    item by item.  Only exact leaves qualify: ``(1,) == (True,)``, yet they
    render differently, and a tuple holding a list is not even hashable.

    A list or tuple whose items are all rows, non-empty lists or tuples
    shorter than ``_BIG`` of exact ints, of exact strs or of non-empty flat
    tuples, is rendered with one join, and so is each run of a list written
    item by item: no Python frame runs per row, and each distinct flat
    tuple in the rows is rendered once through the memo.  Any other node
    (bools, floats, subclasses, empty or mixed rows) is rendered item by
    item."""
    nl, sep, memo = ["\n"], [",\n"], [{}]  # per depth: indents, rendered tuples
    keys: dict = {}  # key -> its escaped form and ": "
    held: list = []  # (node, depth) behind each hole, in document order

    def deeper(depth: int) -> None:
        nl.append(nl[depth] + "  ")
        sep.append(sep[depth] + "  ")
        memo.append({})

    def key(k) -> str:
        if not isinstance(k, str):
            raise TypeError(f"keys must be str, not {type(k).__name__}")
        keys[k] = rendered = encode_basestring_ascii(k) + ": "
        return rendered

    def rows(o, depth: int):
        """The items of a list or tuple at depth, all lists or tuples, joined
        by ``sep`` when each is a row; None when one is not."""
        if not all(o) or max(map(len, o)) >= _BIG:
            return None
        inner, low = depth + 1, depth + 2
        if len(nl) == low:
            deeper(inner)
        leaves = {*map(type, chain.from_iterable(o))}
        if leaves == _INT:
            render = int.__repr__
        elif leaves == _STR:
            render = encode_basestring_ascii
        elif (
            leaves == _TUPLES
            and all(chain.from_iterable(o))
            and {*map(type, chain.from_iterable(chain.from_iterable(o)))} <= _FLAT
        ):
            below = memo[low]
            for x in {*chain.from_iterable(o)}.difference(below):
                text(x, low)
            render = below.__getitem__
        else:
            return None
        # one separator closes a row and opens the next
        between = nl[inner] + "]" + sep[inner] + "[" + nl[low]
        items = between.join(map(sep[low].join, map(partial(map, render), o)))
        return "[" + nl[low] + items + nl[inner] + "]"

    def array(o, depth: int, types) -> str:
        """A non-empty list or tuple at depth whose items have these types."""
        inner = depth + 1
        if len(nl) == inner:
            deeper(depth)
        if types == _INT:
            items = sep[inner].join(map(int.__repr__, o))
        elif types == _STR:
            items = sep[inner].join(map(encode_basestring_ascii, o))
        elif types <= _FLAT:
            items = sep[inner].join(
                [int.__repr__(x) if type(x) is int else encode_basestring_ascii(x) for x in o]
            )
        elif types is _TUPLES:
            below = memo[inner]
            items = sep[inner].join([below.get(x) or text(x, inner) for x in o])
        elif not types <= _ROWS or (items := rows(o, depth)) is None:
            items = sep[inner].join([text(x, inner) for x in o])
        return f"[{nl[inner]}{items}{nl[depth]}]"

    def text(o: Any, depth: int, keep: bool = True) -> str:
        kind = type(o)
        if kind is str:
            return encode_basestring_ascii(o)
        if kind is int:
            return int.__repr__(o)
        if kind is dict:
            if not o:
                return "{}"
            inner = depth + 1
            if len(nl) == inner:
                deeper(depth)
            items = [(keys.get(k) or key(k)) + text(v, inner) for k, v in o.items()]
            return f"{{{nl[inner]}{sep[inner].join(items)}{nl[depth]}}}"
        if kind is list:
            if len(o) < _BIG:
                return array(o, depth, {*map(type, o)}) if o else "[]"
            held.append((o, depth))
            return _HOLE
        if kind is tuple:
            if not o:
                return "[]"
            types = {*map(type, o)}
            if types == _TUPLES and {*map(type, chain.from_iterable(o))} <= _FLAT:
                types = _TUPLES
            elif not types <= _FLAT:
                keep = False
            if not keep:
                return array(o, depth, types)
            rendered = memo[depth].get(o)
            if rendered is None:
                rendered = memo[depth][o] = array(o, depth, types)
            return rendered
        if kind is bool:
            return "true" if o else "false"
        if o is None:
            return "null"
        if isinstance(o, (dict, list, tuple)):  # a subclass
            return text(dict(o) if isinstance(o, dict) else list(o), depth)
        if isinstance(o, Iterator):
            held.append((o, depth))
            return _HOLE
        return json.dumps(o)  # float or a str or int subclass; TypeError for others

    def pieces(rendered: str, start: int) -> Iterator[str]:
        """rendered, with the nodes held since start streamed into its holes."""
        nodes = held[start:]
        del held[start:]
        parts = rendered.split(_HOLE)
        yield parts[0]
        for (node, at), part in zip(nodes, parts[1:]):
            yield from stream(node, at)
            yield part

    def stream(o, depth: int) -> Iterator[str]:
        """A held list in runs of ``_BIG`` items, or an iterator item by item."""
        inner, start = depth + 1, len(held)
        if len(nl) == inner:
            deeper(depth)
        items, run, lead = iter(o), _BIG if type(o) is list else 1, "[" + nl[inner]
        while batch := list(islice(items, run)):
            if not {*map(type, batch)} <= _ROWS or (part := rows(batch, depth)) is None:
                part = sep[inner].join([text(x, inner, False) for x in batch])
            yield from pieces(lead + part, start)
            lead = sep[inner]
        yield nl[depth] + "]" if lead is sep[inner] else "[]"

    return pieces(text(obj, 0), 0)
