"""The CLI's JSON: its inputs read, with schema checks, into exact objects,
and its outputs written with every number as an exact rational string
"p/q" (or "p"), which ``exactlex.rat`` reads back exactly.  ``chunks``
streams an output, byte for byte as ``json.dumps(obj, indent=2)``."""

from __future__ import annotations

import json
from collections.abc import Iterator, Sequence
from functools import partial
from itertools import chain, islice
from json.encoder import encode_basestring_ascii
from typing import Any

from lexfan.cones import PolyCone
from lexfan.config import MarkedSubdivision, PointConfig
from lexfan.degeneration import SRIdeal
from lexfan.errors import SchemaError
from lexfan.exactlex import WeightMatrix, rat, rat_str
from lexfan.quasival import Expr


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


def subdivision_to_json(s: MarkedSubdivision) -> dict:
    return {"cells": [{"vertices": list(c.vertices), "marking": list(c.marking)} for c in s.cells]}


# -- matrices and expressions ----------------------------------------------

def matrix_from_json(obj: dict) -> WeightMatrix:
    rows = _require(obj, "Psi", list)
    if not rows:
        raise SchemaError("a weight matrix needs at least one row")
    if not all(isinstance(row, list) for row in rows):  # WeightMatrix would take "12" as a row
        raise SchemaError("expected a list of rationals")
    return WeightMatrix(rows=tuple(rows))  # WeightMatrix decodes each entry


def expr_from_json(obj) -> Expr:
    if not isinstance(obj, list):
        raise SchemaError("expression must be a list of terms")
    pairs = []
    for term in obj:
        d = _int(_require(term, "d", None))
        point = (d, *(_int(c) for c in _require(term, "eta", list)))
        pairs.append((point, rat(_require(term, "coeff", None))))
    return Expr.from_terms(pairs)


# -- cones ------------------------------------------------------------------

def cone_to_json(cone: PolyCone) -> dict:
    return {
        "generators": [[rat_str(x) for x in g] for g in cone.generators],
        "normals": [[rat_str(x) for x in n] for n in cone.normals],
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


_INT, _STR, _ROWS = frozenset((int,)), frozenset((str,)), frozenset((list, tuple))
_BIG = 1024  # a list, or rows of a Rows, this many are written in runs
_HOLE = "\0"  # marks a node written item by item; rendered text escapes NUL


class Rows:
    """Rows by index, which ``chunks`` writes as ``[[items[i] for i in row]
    for row in rows]``; no item holds an iterator or a list of ``_BIG``.
    A plain class: a dataclass would cost every import about 0.5 ms."""

    def __init__(self, items: Sequence, rows: Sequence):
        self.items, self.rows = items, rows


def chunks(obj: Any) -> Iterator[str]:
    """Pieces whose concatenation is ``json.dumps(obj, indent=2)``, byte for
    byte, for dicts with str keys, lists, tuples, str, int, bool, None and
    float; any other iterator is written as a list, a ``Rows`` as its rows.

    A subtree renders as one string in one recursive pass; only iterators,
    lists and ``Rows`` of ``_BIG`` items or more and their containers are
    yielded in runs.  Each dict key is escaped once per call, and the items
    of a ``Rows`` once per depth.  Rows are joined at once, with no Python
    frame per row: those of a list or tuple whose items are all non-empty
    lists or tuples shorter than ``_BIG`` of exact ints or of exact strs
    (exact, since ``(1,) == (True,)`` renders otherwise), and each run of a
    ``Rows`` with no empty row.  Any other node is rendered item by item."""
    nl, sep = ["\n"], [",\n"]  # per depth: indents
    keys: dict = {}  # key -> its escaped form and ": "
    held: list = []  # (node, depth) behind each hole, in document order
    texts: dict = {}  # (id of a Rows' items, depth) -> (the items, their texts)

    def deeper(depth: int) -> None:
        nl.append(nl[depth] + "  ")
        sep.append(sep[depth] + "  ")

    def key(k) -> str:
        if not isinstance(k, str):
            raise TypeError(f"keys must be str, not {type(k).__name__}")
        keys[k] = rendered = encode_basestring_ascii(k) + ": "
        return rendered

    def joined(o, depth: int, render) -> str:
        """Non-empty rows at depth + 1 in one join, each item by render."""
        inner, low = depth + 1, depth + 2
        if len(nl) == low:
            deeper(inner)
        between = nl[inner] + "]" + sep[inner] + "[" + nl[low]
        items = between.join(map(sep[low].join, map(partial(map, render), o)))
        return "[" + nl[low] + items + nl[inner] + "]"

    def rows(o, depth: int):
        """The items of a list or tuple at depth, all lists or tuples, joined
        by ``sep`` when each is a row; None when one is not."""
        if not all(o) or max(map(len, o)) >= _BIG:
            return None
        leaves = {*map(type, chain.from_iterable(o))}
        if leaves == _INT:
            return joined(o, depth, int.__repr__)
        if leaves == _STR:
            return joined(o, depth, encode_basestring_ascii)
        return None

    def indexed(o: Rows, batch, depth: int) -> str:
        """A run of o's rows, o at depth, each index as its item's text.  Items
        that are all rows are rendered as one list, cut where a row starts."""
        low = depth + 2
        while len(nl) <= low:
            deeper(len(nl) - 1)
        if (id(o.items), low) not in texts:
            whole = rows(o.items, low - 1) if {*map(type, o.items)} <= _ROWS else None
            cut = ["[" + t for t in whole[1:].split(sep[low] + "[")] if whole else None
            texts[id(o.items), low] = o.items, cut or [text(x, low) for x in o.items]
        render = texts[id(o.items), low][1].__getitem__
        if all(batch):
            return joined(batch, depth, render)
        return sep[depth + 1].join([joined([r], depth, render) if r else "[]" for r in batch])

    def array(o, depth: int, types) -> str:
        """A non-empty list or tuple at depth whose items have these types."""
        inner = depth + 1
        if len(nl) == inner:
            deeper(depth)
        if types == _INT:
            items = sep[inner].join(map(int.__repr__, o))
        elif types == _STR:
            items = sep[inner].join(map(encode_basestring_ascii, o))
        elif not types <= _ROWS or (items := rows(o, depth)) is None:
            items = sep[inner].join([text(x, inner) for x in o])
        return f"[{nl[inner]}{items}{nl[depth]}]"

    def text(o: Any, depth: int) -> str:
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
        if kind is list and len(o) >= _BIG:
            held.append((o, depth))
            return _HOLE
        if kind is list or kind is tuple:
            return array(o, depth, {*map(type, o)}) if o else "[]"
        if kind is bool:
            return "true" if o else "false"
        if o is None:
            return "null"
        if isinstance(o, (dict, list, tuple)):  # a subclass
            return text(dict(o) if isinstance(o, dict) else list(o), depth)
        if kind is Rows and 0 < len(o.rows) < _BIG:
            rendered = indexed(o, o.rows, depth)
            return f"[{nl[depth + 1]}{rendered}{nl[depth]}]"
        if kind is Rows or isinstance(o, Iterator):
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
        """A held list or ``Rows`` in runs of ``_BIG``, or an iterator item by item."""
        inner, start = depth + 1, len(held)
        if len(nl) == inner:
            deeper(depth)
        by_index, lead = type(o) is Rows, "[" + nl[inner]
        items, run = iter(o.rows if by_index else o), _BIG if type(o) in (list, Rows) else 1
        while batch := list(islice(items, run)):
            if by_index:
                part = indexed(o, batch, depth)
            elif not {*map(type, batch)} <= _ROWS or (part := rows(batch, depth)) is None:
                part = sep[inner].join([text(x, inner) for x in batch])
            yield from pieces(lead + part, start)
            lead = sep[inner]
        yield nl[depth] + "]" if lead is sep[inner] else "[]"

    return pieces(text(obj, 0), 0)
