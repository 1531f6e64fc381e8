"""JSON schemas (exact rational round-trips) and the command-line
surface with its exit-code contract."""

import ast
import codecs
import contextlib
import hashlib
import importlib.util
import io as stdio
import json
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexfan import config, exactlex, gkzfan, io, lp, quasival
from lexfan.cli import main, render_svg
from lexfan.cones import PolyCone
from lexfan.config import MarkedCell, MarkedSubdivision, PointConfig
from lexfan.errors import (
    EXIT_CODES,
    BudgetExceeded,
    DegreeOverflow,
    DimensionError,
    SchemaError,
)
from lexfan.exactlex import WeightMatrix, rat
from lexfan.gkzfan import condition_cone
from lexfan.quasival import Expr

from helpers import expr_to_json, matrix_to_json
from paper import MuCone


class TestJson:
    def test_config_roundtrip(self, seg_cfg, seg_sub):
        obj = {**io.config_to_json(seg_cfg), **io.subdivision_to_json(seg_sub)}
        assert io.config_from_json(obj) == seg_cfg
        cells = [MarkedCell(tuple(c["vertices"]), tuple(c["marking"])) for c in obj["cells"]]
        assert MarkedSubdivision(cells=tuple(cells)) == seg_sub

    def test_matrix_roundtrip_exact_rationals(self):
        psi = WeightMatrix(rows=(("1/3", "-7/2", 0), (2, "5", "-1/9")))
        obj = matrix_to_json(psi)
        assert obj["Psi"][0][0] == "1/3"
        assert io.matrix_from_json(json.loads(json.dumps(obj))) == psi

    def test_expr_roundtrip(self):
        f = Expr.from_terms([((1, -1), "2/3"), ((2, 4), -1)])
        assert io.expr_from_json(expr_to_json(f)) == f

    def test_cone_json(self, seg_cfg, seg_sub):
        cone = condition_cone(seg_cfg, seg_sub).cone
        obj = io.cone_to_json(cone)
        assert set(obj) == {"generators", "normals"}
        rays = [[rat(x) for x in g] for g in obj["generators"]]
        assert PolyCone.from_generators(seg_cfg.r, rays=rays) == cone

    def test_mucone_json(self):
        cone = PolyCone.from_generators(2, rays=[(1, 0), (1, 2)])
        # the co-polar generators, written as rationals, rebuild the cone
        gens = MuCone(n_rank=3, copolar_cone=cone).copolar_generators
        obj = json.loads(json.dumps([list(map(str, v)) for v in gens]))
        assert len(obj) == 2
        assert PolyCone.from_generators(2, rays=[[rat(x) for x in v] for v in obj]) == cone

    def test_schema_errors(self):
        with pytest.raises(SchemaError):
            io.config_from_json({"points": [[0], [1]]})  # missing dim
        with pytest.raises(SchemaError):
            io.matrix_from_json({"Psi": [[0.5]]})  # float rejected
        with pytest.raises(SchemaError):
            io.matrix_from_json({"Psi": [[True, 1]]})  # bool is no rational
        with pytest.raises(SchemaError):
            io.expr_from_json({"not": "a list"})
        with pytest.raises(SchemaError):
            io.config_from_json({"dim": 1, "points": [[0], [0]]})  # duplicate

    def test_matrix_entries_decoded_once(self, monkeypatch):
        calls = []
        rat = exactlex.rat
        monkeypatch.setattr(exactlex, "rat", lambda x: calls.append(x) or rat(x))
        psi = io.matrix_from_json({"Psi": [["1/2", "3", 0], ["-4/6", 1, "2"]]})
        assert psi.rows == ((Fraction(1, 2), 3, 0), (Fraction(-2, 3), 1, 2))
        assert calls == ["1/2", "3", 0, "-4/6", 1, "2"]

    def test_load_json_missing_file(self, tmp_path):
        with pytest.raises(SchemaError):
            io.load_json(str(tmp_path / "nope.json"))

    def test_load_json_unreadable(self, tmp_path):
        with pytest.raises(SchemaError):
            io.load_json(str(tmp_path))  # a directory
        binary = tmp_path / "binary.json"
        binary.write_bytes(b"\xff\xfe{}")  # not UTF-8
        with pytest.raises(SchemaError):
            io.load_json(str(binary))


_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(max_value=-(10**30)),
    st.floats(),
    st.text(max_size=6),
    st.sampled_from(['"', "\\", "\n\t\x00", "\u00e9t\u00e9", "\U0001f600", "/", ""]),
)
_FLAT_TUPLES = st.lists(
    st.one_of(st.integers(-3, 3), st.booleans(), st.text(max_size=2)), min_size=1, max_size=3
).map(tuple)
_EXACT_FLAT_TUPLES = st.lists(
    st.one_of(st.integers(-3, 3), st.text(max_size=2)), min_size=1, max_size=3
).map(tuple)


def _rows(leaves):
    """Non-empty lists and tuples of the given leaves."""
    row = st.lists(leaves, min_size=1, max_size=4)
    return st.one_of(row, row.map(tuple))


# uniform row lists, the row path's input, with now and then a row it must
# refuse: empty, of bools or floats, or mixed
_ROW_LISTS = st.one_of(
    *(
        st.lists(_rows(leaves), min_size=1, max_size=6)
        for leaves in (st.integers(), st.text(max_size=3), _EXACT_FLAT_TUPLES)
    )
).flatmap(
    lambda rows: st.one_of(
        st.just(rows),
        st.just(tuple(rows)),
        st.sampled_from([[], (True,), [0.5], [1, "a"], [(1,), 2]]).map(lambda bad: rows + [bad]),
    )
)
_JSON = st.recursive(
    st.one_of(_SCALARS, _FLAT_TUPLES),
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), kids, max_size=4),
    ),
    max_leaves=20,
)


class TestDumps:
    """``io.chunks``, joined, against ``json.dumps(indent=2)``."""

    @settings(max_examples=200, deadline=None)
    @given(x=_JSON, t=_FLAT_TUPLES)
    def test_matches_json_dumps(self, x, t):
        # the same tuple at several depths, and a tuple holding a list
        obj = {"x": x, "t": t, "deeper": [t, {"t": t, "x": x}], "holds": (t, [x], t)}
        assert "".join(io.chunks(obj)) == json.dumps(obj, indent=2)
        assert "".join(io.chunks(x)) == json.dumps(x, indent=2)

    def test_equal_tuples_of_other_types(self):
        # (1,) == (True,) == (1.0,) but each renders its own way
        obj = [(1, 0), (True, False), (1.0, 0.0), [(1, 0), (True, False)]]
        assert "".join(io.chunks(obj)) == json.dumps(obj, indent=2)
        assert "true" in "".join(io.chunks(obj))
        # the same for lists, which are joined whole but never memoised
        obj = [[1, 0], [True, False], [1.0, 0.0], [[1, "0"], [True, "0"]], (1, 0)]
        assert "".join(io.chunks(obj)) == json.dumps(obj, indent=2)
        assert "".join(io.chunks(obj)).count("true") == 2

    @pytest.mark.parametrize(
        "make",
        [
            # equal under ==, yet (True, False) renders as booleans
            lambda: [((1, 0),), ((True, False),)],
            # a tuple holding a list is not hashable
            lambda: ((1, [2]), (1, [2])),
            # an equal tuple of flat tuples at two depths
            lambda: {"a": ((1, "x"), (2, 3)), "b": [((1, "x"), (2, 3)), ((1, "x"), (2, 3))]},
            # iterators are written as lists, the empty one as []
            lambda: {"empty": iter(()), "full": (x for x in [1, (2, 3), {"i": iter([[]])}])},
            lambda: iter([]),
            # long lists go item by item, inside a dict and inside each other
            lambda: {"n": 1, "big": [((i % 5, -i), (i % 3,)) for i in range(1500)], "z": []},
            lambda: [list(range(1024)), [True, (1, 0)] * 700, {"k": iter(range(1100))}],
            # subclasses render as their base types
            lambda: [type("S", (str,), {})("a"), type("I", (int,), {})(3),
                     type("L", (list,), {})([1, (2,)]), type("D", (dict,), {})(k=(1,))],
        ],
    )
    def test_chunks_match_json_dumps(self, make):
        pieces = list(io.chunks(make()))
        assert all(type(p) is str for p in pieces)
        assert "".join(pieces) == json.dumps(_materialized(make()), indent=2)

    @pytest.mark.parametrize(
        "rows",
        [
            [[1, -2, 3], [4, 5, 6]],
            ([10**30, 0], (-1,)),
            [["a", "\u00e9"], ("\n", ""), ["\x00"]],
            [[(1, "x"), (2, 3)], ((2, 3),), [(1, "x"), (1, "x"), (4,)]],
            [((0, 0), (1, 2)), ((1, 2), (3, 4)), ((0, 0), (3, 4))],
            # one empty row, rows of different lengths
            [[1, 2], [], [3]],
            [[1], [2, 3, 4], [5, 6]],
            # equal under ==, yet each renders its own way
            [(1, 0), (True, False), (1.0, 0.0)],
            [[(1, 0)], [(True, False)], [(1.0, 0.0)]],
            [[(True, False)], [(1, 0)], [(1, 0), (True, False)]],
            # a flat tuple holding a list, an empty flat tuple, a subclass
            [[(1, [2])], [(3, 4)]],
            [[(1, 2)], [()]],
            [[1, type("I", (int,), {})(2)], [3, 4]],
            # mixed leaves and mixed rows
            [[1, "a"], [2, "b"]],
            [[1, 2], ["a"]],
            [[1, 2], (3, [4])],
            [[[1]], [[2]]],
        ],
    )
    def test_row_lists_match_json_dumps(self, rows):
        # at several depths, as a tuple, and as the items of a held list
        obj = {"rows": rows, "deeper": [rows, {"r": rows, "t": tuple(rows)}], "again": rows}
        assert "".join(io.chunks(obj)) == json.dumps(obj, indent=2)
        held = [list(rows)] * 1100 + [rows]
        assert "".join(io.chunks(held)) == json.dumps(held, indent=2)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: [(i, -i) for i in range(1500)],
            lambda: {"z": [((i % 7, -i), (i % 3,)) for i in range(1500)]},
            lambda: [[str(i), "x"] for i in range(1024)] + [[1, 2]] * 476,
            # a run that is not rows between two that are
            lambda: [[i] for i in range(1024)] + [[True]] + [[i] for i in range(1100)],
            # a row of 1024 items or more is held, not joined with the others
            lambda: [[1, 2], list(range(1500)), (3,)],
        ],
    )
    def test_held_row_lists_are_streamed(self, make):
        pieces = list(io.chunks(make()))
        assert len(pieces) > 1
        assert "".join(pieces) == json.dumps(make(), indent=2)

    @settings(max_examples=200, deadline=None)
    @given(rows=_ROW_LISTS, depth=st.integers(0, 3))
    def test_drawn_row_lists_match_json_dumps(self, rows, depth):
        obj = rows
        for _ in range(depth):
            obj = {"k": [obj, rows]}
        assert "".join(io.chunks(obj)) == json.dumps(obj, indent=2)

    def test_row_lists_run_no_frame_per_row(self):
        # a frame per row, or per item, would show as thousands of calls;
        # the held list's runs of 1024 rows are each of one kind, and rows
        # of tuples are written by index, each tuple rendered once
        pairs = [(k, 1) for k in range(9)] + [(k, -1) for k in range(4)]
        rows = {
            "i": [[i, -i] for i in range(600)],
            "s": [("a", str(i)) for i in range(600)],
            "t": io.Rows(pairs, [(i % 9, 9 + i % 4) for i in range(600)]),
            "held": [[str(i), "b"] for i in range(2048)],
            "held_t": io.Rows([(k, 0) for k in range(5)], [[i % 5] for i in range(2500)]),
        }
        calls = []

        def count(frame, event, arg):
            if event == "call" and frame.f_code.co_filename == io.__file__:
                calls.append(frame.f_code.co_name)

        sys.setprofile(count)
        try:
            rendered = "".join(io.chunks(rows))
        finally:
            sys.setprofile(None)
        assert rendered == json.dumps(_materialized(rows), indent=2)
        assert len(calls) < 100

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), depth=st.integers(0, 3))
    def test_rows_by_index_match_json_dumps(self, data, depth):
        # rows of unequal length, empty ones, and now and then more than
        # 1024 rows, written in runs; two nodes share their items
        items = data.draw(st.lists(st.one_of(_JSON, _FLAT_TUPLES), min_size=1, max_size=6))
        row = st.lists(st.integers(0, len(items) - 1), max_size=5)
        rows = data.draw(st.lists(row, max_size=8))
        rows = rows * data.draw(st.sampled_from([1, 1, 1, 200]))
        obj = {"a": io.Rows(items, rows), "b": [io.Rows(items, rows[:3]), items]}
        for _ in range(depth):
            obj = {"k": [obj, 1]}
        pieces = list(io.chunks(obj))
        assert "".join(pieces) == json.dumps(_materialized(obj), indent=2)
        if len(rows) >= 1024:
            assert len(pieces) > 1  # written in runs

    @pytest.mark.parametrize(
        "items, rows",
        [
            # equal under ==, yet each renders its own way
            ([(1,), (True,), (1.0,)], [[0, 1, 2], [1], [2, 0]]),
            ([(1, 0), (True, False)], [[1, 0]] * 1100 + [[0]]),
            # unequal and empty rows, inside and across runs of 1024
            ([(0, 1), "x", [2, (3,)], {"k": None}], [[0], [], [1, 2, 3], [3, 3]]),
            ([(i, -i) for i in range(5)], [[i % 5] * (i % 3) for i in range(2500)]),
            ([7], []),
        ],
    )
    def test_rows_by_index_pinned(self, items, rows):
        obj = {"rows": io.Rows(items, rows), "again": [io.Rows(items, rows), items]}
        assert "".join(io.chunks(obj)) == json.dumps(_materialized(obj), indent=2)
        assert "".join(io.chunks(io.Rows(items, rows))) == json.dumps(
            _materialized(io.Rows(items, rows)), indent=2
        )

    def test_long_lists_are_streamed(self):
        assert len(list(io.chunks({"a": [1, 2], "b": (3,)}))) == 1
        assert len(list(io.chunks({"a": list(range(5000))}))) > 3

    def test_non_str_key_raises(self):
        with pytest.raises(TypeError):
            "".join(io.chunks({1: 2}))
        with pytest.raises(TypeError):
            "".join(io.chunks([object()]))


def _materialized(x):
    """x with every iterator turned into a list and every ``io.Rows`` into
    its list of rows of items, for ``json.dumps``."""
    if isinstance(x, io.Rows):
        return [[_materialized(x.items[i]) for i in row] for row in x.rows]
    if isinstance(x, dict):
        return {k: _materialized(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return type(x)(map(_materialized, x))
    if hasattr(x, "__next__"):
        return [_materialized(v) for v in x]
    return x


@pytest.fixture()
def files(tmp_path, seg_cfg, seg_psi):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(io.config_to_json(seg_cfg)))
    mat = tmp_path / "psi.json"
    mat.write_text(json.dumps(matrix_to_json(seg_psi)))
    expr = tmp_path / "f.json"
    f = Expr.from_terms([((1, -1), 1), ((1, 2), 1)])
    expr.write_text(json.dumps(expr_to_json(f)))
    return {"config": str(cfg), "matrix": str(mat), "expr": str(expr), "dir": tmp_path}


def _count_calls(monkeypatch, fn) -> list:
    """Replace fn in every lexfan module namespace that holds it by a
    wrapper recording each call's arguments."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "lexfan" or name.startswith("lexfan."):
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


class TestCli:
    def test_subdivide_json(self, files, capsys):
        assert main(["subdivide", files["config"], files["matrix"]]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["open_member"] and payload["closed_member"]
        assert [c["vertices"] for c in payload["cells"]] == [[0, 2], [2, 4]]

    def test_subdivide_text(self, files, capsys):
        assert (
            main(["--format", "text", "subdivide", files["config"], files["matrix"]])
            == 0
        )
        out = capsys.readouterr().out
        assert "open member: True" in out

    def test_subdivide_svg_deterministic(self, files, capsys):
        args = ["--format", "svg", "subdivide", files["config"], files["matrix"]]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second and first.startswith("<svg")

    def test_global_flags_do_not_carry_over(self, files, capsys):
        # main parses every call with one parser; a call without flags must
        # still see the defaults (json, degree bound 12) after one with flags
        inputs = [files["config"], files["matrix"]]
        assert main(["--format", "text", "--degree-bound", "3", "subdivide", *inputs]) == 0
        assert capsys.readouterr().out.startswith("subdivision of 5 points")
        assert main(["liminf", *inputs, files["expr"]]) == 0  # degree 8 <= 12
        assert len(json.loads(capsys.readouterr().out)["sequence"]) == 8

    def test_out_file(self, files):
        out = files["dir"] / "result.json"
        assert (
            main(
                ["--out", str(out), "subdivide", files["config"], files["matrix"]]
            )
            == 0
        )
        payload = json.loads(out.read_text())
        assert payload["closed_member"]

    def test_fan(self, files, capsys, tmp_path, simplex_cfg):
        cfg = tmp_path / "simplex.json"
        cfg.write_text(json.dumps(io.config_to_json(simplex_cfg)))
        assert main(["fan", str(cfg)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["regular_subdivisions"]) == 3
        # both refinements of the trivial subdivision are recorded
        assert len(payload["refinement_poset"]) == 2

    @pytest.mark.parametrize("cfg, digest", [
        # a single point: the cover search's determinant loop visits no subset
        ({"dim": 0, "points": [[]]},
         "177b5c8ed060d9dd2353e8c54822d87f4e7807f69df62774e885435acc708d97"),
        ({"dim": 1, "points": [[0], [1]]},
         "d26f13f42c19b3df4c2911109395a0912321436ee99697d3a428e675d91c73c5"),
    ])
    def test_fan_pinned_on_the_smallest_configurations(self, capsys, tmp_path, cfg, digest):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert main(["fan", str(path)]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_subdivide_runs_subdivide_once(self, files, capsys, monkeypatch):
        calls = _count_calls(monkeypatch, gkzfan.subdivide)
        assert main(["subdivide", files["config"], files["matrix"]]) == 0
        assert json.loads(capsys.readouterr().out)["open_member"]
        assert len(calls) == 1

    def test_fan_builds_each_cone_once(self, capsys, tmp_path, monkeypatch, pinwheel_cfg):
        cfg = tmp_path / "pinwheel.json"
        cfg.write_text(json.dumps(io.config_to_json(pinwheel_cfg)))
        covers = gkzfan.enumerate_subdivisions(pinwheel_cfg)
        regular = [s for s in covers if gkzfan.is_regular(pinwheel_cfg, s)]
        assert len(regular) < len(covers)
        cone_calls = _count_calls(monkeypatch, gkzfan.condition_cone)
        lp_calls = _count_calls(monkeypatch, lp.solve_lp)
        refines_calls = _count_calls(monkeypatch, config.refines)
        validate_calls = _count_calls(monkeypatch, config.validate_subdivision)
        pair_calls = _count_calls(monkeypatch, config.cell_pair_violations)
        assert main(["fan", str(cfg)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [c[1] for c in cone_calls] == covers
        assert [io.subdivision_to_json(s)["cells"] for s in regular] == [
            e["cells"] for e in payload["regular_subdivisions"]
        ]
        assert not lp_calls and not refines_calls and not validate_calls
        assert not pair_calls

    def test_valuate(self, files, capsys):
        assert (
            main(["valuate", files["config"], files["matrix"], files["expr"]]) == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["V"] == ["3/2", "1/2"]
        assert payload["nu"] == ["0", "0"]
        assert payload["delta"] == ["-3/2", "-1"]

    def test_valuate_empty_expression(self, files, tmp_path, capsys):
        expr = tmp_path / "zero.json"
        expr.write_text("[]")
        assert main(["valuate", files["config"], files["matrix"], str(expr)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["V"] == payload["nu"] == "infinity"
        witnesses = ("V_witness_point", "V_witness_cell", "nu_witness_point", "nu_witness_alpha")
        assert all(payload[k] is None for k in witnesses)
        assert "delta" not in payload

    def test_cone_error_before_degree_overflow(self, tmp_path, capsys):
        # (13, 0) is past the degree bound 12 and (20, 100) is off the cone
        # over the segment; every point is checked against the cone before
        # any nu key is read, so the schema error wins over the overflow
        data = Path(__file__).resolve().parent.parent / "scripts" / "data"
        expr = tmp_path / "f.json"
        f = Expr.from_terms([((13, 0), 1), ((20, 100), 1)])
        expr.write_text(json.dumps(expr_to_json(f)))
        inputs = [str(data / "segment.json"), str(data / "segment_psi.json"), str(expr)]
        assert main(["--degree-bound", "12", "valuate", *inputs]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [
            "schema error: point (20, 100) outside the cone over the configuration"
        ]

    def test_liminf(self, files, capsys):
        assert (
            main(
                [
                    "--degree-bound",
                    "16",
                    "liminf",
                    files["config"],
                    files["matrix"],
                    files["expr"],
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["liminf"] == ["3/2", "1/2"]
        assert sorted(payload["accumulation_candidates"]) == [
            ["3/2", "1"],
            ["3/2", "1/2"],
        ]
        assert payload["windowed"] is True

    def test_degenerate(self, files, capsys):
        assert (
            main(
                ["--degree-bound", "6", "degenerate", files["config"], files["matrix"]]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["stanley_reisner"]["nonfaces"] == [[0, 4]]
        assert payload["stanley_reisner"]["nilpotent"] == [1, 3]
        assert payload["gr_V"]["nilpotents"] == []
        assert payload["gr_nu_reduced"]["nilpotents"]

    def test_valuation_commands_skip_oracles_and_enumerate_once(
        self, files, capsys, monkeypatch, seg_cfg, seg_sub
    ):
        reps = _count_calls(monkeypatch, quasival.rep_set)
        semigroups = _count_calls(monkeypatch, quasival.semigroup_up_to)
        cell_semigroups = _count_calls(monkeypatch, quasival.cell_semigroup)
        inputs = [files["config"], files["matrix"]]
        assert main(["valuate", *inputs, files["expr"]]) == 0
        assert main(["--degree-bound", "16", "liminf", *inputs, files["expr"]]) == 0
        assert not reps
        assert main(["--degree-bound", "6", "degenerate", *inputs]) == 0
        assert not reps
        assert len(semigroups) == 1
        # S_Q once per cell on the basis, and once per cell on the
        # configuration's points for gr_V's component certificates
        homogenized = [(1, *p) for p in seg_cfg.points]
        on_points = [cell for _, cell, points in cell_semigroups if list(points) == homogenized]
        on_basis = [cell for _, cell, points in cell_semigroups if list(points) != homogenized]
        assert on_basis == on_points == list(seg_sub.cells)

    @staticmethod
    def _vertex_multiples(tmp_path) -> str:
        """An expression file with two degree-2000 terms, 2000 times each
        vertex of the segment."""
        far = tmp_path / "far.json"
        f = Expr.from_terms([((2000, 8000), 1), ((2000, -4000), "1/2")])
        far.write_text(json.dumps(expr_to_json(f)))
        return str(far)

    def test_degree_bound_2000_needs_no_recursion(self, files, capsys, tmp_path):
        # nu at two degree-2000 points: a recursion over the degree would
        # overflow the interpreter stack long before it got there
        far = self._vertex_multiples(tmp_path)
        inputs = [files["config"], files["matrix"]]
        assert main(["--degree-bound", "2000", "valuate", *inputs, far]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["nu"] == ["2000", "0"]  # 2000 * Psi e_0, the lesser one
        assert main(["--degree-bound", "1999", "valuate", *inputs, far]) == 5
        assert main(["--degree-bound", "2000", "liminf", *inputs, files["expr"]]) == 0
        assert (
            main(["--degree-bound", "2000", "--window", "2001", "liminf", *inputs,
                  files["expr"]])
            == 5
        )

    def test_degree_bound_2000_fills_only_vertex_faces(
        self, files, capsys, tmp_path, monkeypatch
    ):
        # each term's face is one vertex, so the table holds one code per
        # layer up to degree 1000 of each: O(d) codes, where the layers of
        # the whole segment would hold millions
        tables = []

        class Recording(quasival.NuTable):
            def __init__(self, *args):
                super().__init__(*args)
                tables.append(self)

        monkeypatch.setattr(quasival, "NuTable", Recording)
        far = self._vertex_multiples(tmp_path)
        inputs = [files["config"], files["matrix"]]
        assert main(["--degree-bound", "2000", "valuate", *inputs, far]) == 0
        (table,) = tables
        layers = [layer for face in table._layers.values() for layer in face]
        assert len(table._layers) == 2 and all(len(layer) == 1 for layer in layers)
        assert sum(map(len, layers)) <= 2 * 2000

    def test_exit_2_schema(self, files, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        assert main(["subdivide", str(bad), files["matrix"]]) == 2

    @staticmethod
    def _exit_2_one_line(argv, capsys):
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("schema error: ") and err.count("\n") == 1
        return err

    @pytest.mark.parametrize(
        "command, terms",
        [
            # (1, 1) lies in the cone over the segment, but 1 is no point of it
            ("valuate", [{"d": 1, "eta": [1], "coeff": "1"}]),
            ("liminf", [{"d": 1, "eta": [1], "coeff": "1"}]),
            ("valuate", [{"d": 1, "eta": [7], "coeff": "1"}]),  # outside the cone
            ("liminf", []),  # the zero expression has no power sequence
        ],
    )
    def test_exit_2_expression_outside_domain(self, files, tmp_path, capsys, command, terms):
        expr = tmp_path / "terms.json"
        expr.write_text(json.dumps(terms))
        self._exit_2_one_line([command, files["config"], files["matrix"], str(expr)], capsys)

    def test_exit_2_boolean_entry_or_directory(self, files, tmp_path, capsys):
        psi = tmp_path / "bool.json"
        psi.write_text(json.dumps({"Psi": [[True, 1, 0, 0, 1]]}))
        self._exit_2_one_line(["subdivide", files["config"], str(psi)], capsys)
        self._exit_2_one_line(["subdivide", str(tmp_path), files["matrix"]], capsys)

    @pytest.mark.parametrize(
        "which, obj, message",
        [
            ("config", {"dim": 1, "points": 3}, "expected list"),
            ("config", {"dim": 1, "points": [[0], [1.5]]}, "expected integer"),
            ("matrix", {"Psi": [[0, 1, 0, 0, 1], "1"]}, "expected a list of rationals"),
        ],
    )
    def test_exit_2_ill_typed_input(self, files, tmp_path, capsys, which, obj, message):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        argv = {"config": [str(bad), files["matrix"]], "matrix": [files["config"], str(bad)]}
        assert message in self._exit_2_one_line(["subdivide", *argv[which]], capsys)

    def test_exit_2_svg_unavailable(self, files, capsys):
        err = self._exit_2_one_line(["--format", "svg", "fan", files["config"]], capsys)
        assert "svg output is not available for this command" in err

    def test_exit_2_empty_configuration_or_unwritable_out(self, files, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"dim": -1, "points": []}))
        self._exit_2_one_line(["subdivide", str(empty), files["matrix"]], capsys)
        self._exit_2_one_line(["fan", str(empty)], capsys)
        out = str(tmp_path / "no_such_dir" / "x.json")
        self._exit_2_one_line(["--out", out, "subdivide", files["config"], files["matrix"]], capsys)

    @staticmethod
    def _closed_by_reader(argv, read, unbuffered):
        root = Path(__file__).resolve().parent.parent
        data = root / "scripts" / "data"
        path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "lexfan.cli", *argv[:-2], *(str(data / a) for a in argv[-2:])],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": path, "PYTHONUNBUFFERED": unbuffered},
        )
        proc.stdout.read(read)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait() == 2
        assert err.startswith("schema error: cannot write stdout: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    @pytest.mark.parametrize("read", [0, 10])
    def test_exit_2_stdout_closed_by_reader(self, read, unbuffered):
        # the output (432 KB) is larger than a pipe buffer, so the write
        # fails whether it starts before or after the reader closes its end;
        # after a read, the write blocked on the full pipe ends short
        argv = ["--degree-bound", "8", "degenerate", "simplex.json", "simplex_psi.json"]
        self._closed_by_reader(argv, read, unbuffered)

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    @pytest.mark.parametrize("read", [0, 100_000])
    def test_exit_2_stdout_closed_by_reader_many_blocks(self, read, unbuffered):
        # 4.2 MB, written in many 64 KB blocks; the reader may close after
        # whole blocks have gone through
        argv = ["--degree-bound", "12", "degenerate", "simplex.json", "simplex_psi_unmarked.json"]
        self._closed_by_reader(argv, read, unbuffered)

    def test_unwritable_out_exits_2_before_anything_is_written(
        self, tmp_path, capsys, monkeypatch, simplex_cfg
    ):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(io.config_to_json(simplex_cfg)))
        built = _count_calls(monkeypatch, io.cone_to_json)
        out = str(tmp_path / "no_such_dir" / "fan.json")
        capsys.readouterr()
        assert main(["--out", out, "fan", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and built == []  # no fan entry was built
        assert captured.err.startswith(f"schema error: cannot write {out}: ")
        assert captured.err.count("\n") == 1

    def test_output_goes_in_blocks(self, files, monkeypatch):
        class Counting:
            def __init__(self):
                self.writes = []

            def write(self, text):
                self.writes.append(text)
                return len(text)

            def flush(self):
                pass

        small = Counting()
        monkeypatch.setattr(sys, "stdout", small)
        assert main(["subdivide", files["config"], files["matrix"]]) == 0
        assert len(small.writes) == 1 and small.writes[0].endswith("}\n")
        assert json.loads(small.writes[0])["closed_member"]
        # a larger output goes in blocks of 64 KB or more; after a block the
        # newline goes alone, so a block cut short is seen by the next write
        large = Counting()
        monkeypatch.setattr(sys, "stdout", large)
        data = Path(__file__).resolve().parent.parent / "scripts" / "data"
        argv = ["--degree-bound", "8", "degenerate", str(data / "simplex.json"),
                str(data / "simplex_psi.json")]
        assert main(argv) == 0
        *blocks, tail, newline = large.writes
        assert blocks and all(len(b) >= 1 << 16 for b in blocks) and newline == "\n"
        json.loads("".join(large.writes))

    def test_exit_2_stdout_closed_at_start(self, files, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdout", None)  # as under `>&-`
        err = self._exit_2_one_line(["subdivide", files["config"], files["matrix"]], capsys)
        assert "cannot write stdout" in err

    def test_exit_2_bad_bounds(self, files):
        assert (
            main(
                [
                    "--degree-bound",
                    "0",
                    "subdivide",
                    files["config"],
                    files["matrix"],
                ]
            )
            == 2
        )

    def test_exit_3_dimension(self, files, tmp_path):
        short = tmp_path / "short.json"
        short.write_text(json.dumps({"Psi": [["1", "2", "3"]]}))
        assert main(["subdivide", files["config"], str(short)]) == 3

    def test_exit_3_expression_dimension(self, files, tmp_path):
        planar = tmp_path / "planar.json"
        planar.write_text(json.dumps([{"d": 1, "eta": [-1, 5], "coeff": "1"}]))
        assert main(["liminf", files["config"], files["matrix"], str(planar)]) == 3

    def test_exit_3_liminf_matrix_width(self, tmp_path, capsys, simplex_cfg):
        cfg, psi, expr = (tmp_path / f"{name}.json" for name in ("cfg", "psi", "expr"))
        cfg.write_text(json.dumps(io.config_to_json(simplex_cfg)))
        psi.write_text(json.dumps({"Psi": [["1", "2"]]}))
        expr.write_text(json.dumps([{"d": 1, "eta": [1, 1], "coeff": "1"}]))
        assert main(["liminf", str(cfg), str(psi), str(expr)]) == 3
        err = capsys.readouterr().err
        assert "matrix has 2 columns, configuration has 4 points" in err

    def test_exit_4_budget(self, files, tmp_path, capsys, simplex_cfg):
        cfg = tmp_path / "simplex.json"
        cfg.write_text(json.dumps(io.config_to_json(simplex_cfg)))
        assert main(["--budget", "1", "fan", str(cfg)]) == 4
        capsys.readouterr()
        # the simplex has 5 candidate cells; 3 nodes reach 2 of its 3 covers
        assert main(["--budget", "3", "fan", str(cfg)]) == 4
        err = capsys.readouterr().err
        assert "after visiting 3 search nodes" in err
        assert "2 subdivisions found among 5 candidate cells" in err

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_exit_2_non_positive_budget(self, tmp_path, capsys, simplex_cfg, budget):
        cfg = tmp_path / "simplex.json"
        cfg.write_text(json.dumps(io.config_to_json(simplex_cfg)))
        assert main(["--budget", budget, "fan", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "search nodes" not in captured.err

    def test_subdivide_2000_zero_rows(self, tmp_path, capsys):
        # one pass per row of Psi, not one stack frame: 990 rows used to
        # overflow the interpreter stack
        cfg, one, many = (tmp_path / f"{name}.json" for name in ("cfg", "one", "many"))
        cfg.write_text(json.dumps({"dim": 1, "points": [[0], [1], [2]]}))
        one.write_text(json.dumps({"Psi": [[0, 0, 0]]}))
        many.write_text(json.dumps({"Psi": [[0, 0, 0]] * 2000}))
        assert main(["subdivide", str(cfg), str(one)]) == 0
        expected = capsys.readouterr().out
        assert main(["subdivide", str(cfg), str(many)]) == 0
        assert capsys.readouterr().out == expected

    def test_exit_5_degree(self, files):
        assert (
            main(
                [
                    "--degree-bound",
                    "3",
                    "liminf",
                    files["config"],
                    files["matrix"],
                    files["expr"],
                ]
            )
            == 5
        )


_SEG = {"dim": 1, "points": [[-2], [-1], [0], [2], [4]]}
_SEG_PSI = {"Psi": [[1, 0, 2, 0, 1], [0, 1, 1, 0, 1]]}
_SEG_EXPR = [{"d": 1, "eta": [-1], "coeff": "1"}, {"d": 1, "eta": [2], "coeff": "1"}]
_TRIANGLE = {"dim": 2, "points": [[0, 0], [3, 0], [0, 3], [1, 1]]}

# One input per clause of the README's exit codes: the error class it exits
# with, the flags, the command, its input files (a JSON value, raw bytes,
# None for a missing file or ... for a directory) and how the message after
# the label starts.  A stdout closed by its reader is left to
# test_exit_2_stdout_closed_by_reader, which needs a subprocess.
_EXIT_TABLE = {
    "missing file": (SchemaError, [], "fan", [None], "no such file: "),
    "directory": (SchemaError, [], "fan", [...], "cannot read "),
    "not JSON": (SchemaError, [], "fan", [b"{ not json"], "invalid JSON in "),
    "not UTF-8": (SchemaError, [], "fan", [b"\xff{}"], "invalid JSON in "),
    "BOM": (SchemaError, [], "fan", [codecs.BOM_UTF8 + json.dumps(_SEG).encode()],
            "invalid JSON in "),
    "int of 5000 digits": (SchemaError, [], "subdivide",
                           [_SEG, b'{"Psi": [[' + b"1" * 5000 + b"]]}"], "invalid JSON in "),
    "unwritable out": (SchemaError, ["--out", "{tmp}/no_such_dir/out.json"], "fan", [_SEG],
                       "cannot write "),
    "closed stdout": (SchemaError, [], "fan", [_SEG], "cannot write stdout: "),
    "degree bound 0": (SchemaError, ["--degree-bound", "0"], "fan", [_SEG],
                       "bounds must be positive"),
    "window 0": (SchemaError, ["--window", "0"], "fan", [_SEG], "bounds must be positive"),
    "budget -5": (SchemaError, ["--budget", "-5"], "fan", [_SEG], "bounds must be positive"),
    "no points": (SchemaError, [], "fan", [{"dim": -1, "points": []}],
                  "a configuration needs at least one point"),
    "duplicate points": (SchemaError, [], "fan", [{"dim": 1, "points": [[0], [1], [0]]}],
                         "configuration points must be distinct"),
    "points that do not span": (SchemaError, [], "fan",
                                [{"dim": 2, "points": [[0, 0], [1, 1], [2, 2]]}],
                                "points do not affinely span the ambient space"),
    "boolean entry": (SchemaError, [], "subdivide", [_SEG, {"Psi": [[True, 1, 0, 0, 1]]}],
                      "not a rational: True"),
    "float entry": (SchemaError, [], "subdivide", [_SEG, {"Psi": [[0.5, 1, 0, 0, 1]]}],
                    "floating point input rejected: 0.5"),
    "exponent entry": (SchemaError, [], "subdivide",
                       [_SEG, {"Psi": [["1e100000000", 1, 0, 0, 1]]}],
                       "not a rational: '1e100000000'"),
    "points 3": (SchemaError, [], "fan", [{"dim": 1, "points": 3}], "key 'points': expected list"),
    "coordinate 1.5": (SchemaError, [], "fan", [{"dim": 1, "points": [[0], [1.5]]}],
                       "expected integer, got 1.5"),
    "point not a list": (SchemaError, [], "fan", [{"dim": 1, "points": [1, 2]}],
                         "expected a list of integers"),
    "row not a list": (SchemaError, [], "subdivide", [_SEG, {"Psi": [[0, 1, 0, 0, 1], "1"]}],
                       "expected a list of rationals"),
    "empty Psi": (SchemaError, [], "subdivide", [_SEG, {"Psi": []}],
                  "a weight matrix needs at least one row"),
    "svg for fan": (SchemaError, ["--format", "svg"], "fan", [_SEG],
                    "svg output is not available for this command"),
    "text for fan": (SchemaError, ["--format", "text"], "fan", [_SEG],
                     "text output is not available for this command"),
    "term outside the semigroup": (SchemaError, [], "valuate",
                                   [_SEG, _SEG_PSI, [{"d": 1, "eta": [1], "coeff": "1"}]],
                                   "point (1, 1) is not in the semigroup"),
    "liminf of zero": (SchemaError, [], "liminf", [_SEG, _SEG_PSI, []],
                       "power sequence of the zero expression"),
    "point of the wrong length": (DimensionError, [], "fan",
                                  [{"dim": 2, "points": [[0, 0], [1]]}],
                                  "point length != ambient dimension"),
    "dim -1": (DimensionError, [], "fan", [{"dim": -1, "points": [[]]}],
               "point length != ambient dimension"),
    "Psi of the wrong width": (DimensionError, [], "subdivide", [_SEG, {"Psi": [[1, 2, 3]]}],
                               "matrix columns != number of configuration points"),
    "Psi of one empty row": (DimensionError, [], "subdivide", [_SEG, {"Psi": [[]]}],
                             "matrix columns != number of configuration points"),
    "ragged Psi": (DimensionError, [], "subdivide", [_SEG, {"Psi": [[1, 2, 3, 4, 5], [1]]}],
                   "ragged weight matrix"),
    "eta of the wrong length": (DimensionError, [], "liminf",
                                [_SEG, _SEG_PSI, [{"d": 1, "eta": [-1, 5], "coeff": "1"}]],
                                "point (1, -1, 5) has a character of length 2"),
    "budget": (BudgetExceeded, ["--budget", "1"], "fan", [_TRIANGLE],
               "enumeration stopped after visiting 1 search nodes"),
    "degree bound": (DegreeOverflow, ["--degree-bound", "3"], "liminf",
                     [_SEG, _SEG_PSI, _SEG_EXPR], "power 8 needs degree 8 > bound 3"),
}

_COMMANDS = ("subdivide", "fan", "valuate", "liminf", "degenerate")
# small fixed bounds, so that every drawn input runs in milliseconds
_FUZZ_FLAGS = ["--degree-bound", "6", "--window", "3", "--budget", "2000"]
_HUGE = st.sampled_from([10**30, -(10**30), 10**100])
# a malformed value put in place of any node; it holds no huge int: in a
# coordinate, one makes degenerate's least_multiple search a long one
_JUNK = st.one_of(
    st.sampled_from([None, True, False, -1, 0.5, "", "x", "1/0", [], [[]], {}, [1, [2]]]),
    st.floats(),
    st.text(max_size=3),
)


def _paths(obj, path=()):
    """The path of every node of a JSON value, the root first."""
    yield path
    if isinstance(obj, (dict, list)):
        for k, v in obj.items() if isinstance(obj, dict) else enumerate(obj):
            yield from _paths(v, (*path, k))


@st.composite
def _spoiled(draw, obj):
    """obj, or, one time in four, a copy with one node replaced by junk,
    dropped or doubled."""
    how = draw(st.sampled_from(["keep"] * 9 + ["junk", "drop", "double"]))
    if how == "keep":
        return obj
    path = draw(st.sampled_from(list(_paths(obj))))
    if not path:
        return draw(_JUNK)
    obj = json.loads(json.dumps(obj))
    *head, last = path
    parent = obj
    for k in head:
        parent = parent[k]
    if how == "drop":
        del parent[last]
    elif how == "double" and isinstance(parent, list):
        parent.insert(last, parent[last])
    else:
        parent[last] = draw(_JUNK)
    return obj


@st.composite
def _encoded(draw, obj):
    """obj as JSON bytes, one time in four spoiled: behind a BOM, with a
    byte that is not UTF-8, cut short, or with a digit grown to 5000."""
    text = json.dumps(obj).encode()
    how = draw(st.sampled_from(["plain"] * 12 + ["bom", "byte", "cut", "digits"]))
    at = draw(st.integers(0, len(text)))
    if how == "bom":
        return codecs.BOM_UTF8 + text
    if how == "byte":
        return text[:at] + b"\xff" + text[at:]
    if how == "cut":
        return text[:at]
    if how == "digits":
        return re.sub(rb"\d", b"1" * 5000, text, count=1)
    return text


@st.composite
def _inputs(draw):
    """Config, Psi and expression files over one drawn configuration of at
    most 6 distinct points, each file valid or spoiled.  Huge ints appear
    only in Psi and the terms' d and eta."""
    dim = draw(st.integers(0, 3))
    # |x| <= 3 in 1 dimension, but only a 3x3 square or a unit cube beyond:
    # larger ones hold triangulations on which degenerate's least_multiple
    # search runs for seconds at degree 6
    low, high = ((-3, 3), (-3, 3), (-1, 1), (0, 1))[dim]
    coords = st.lists(st.integers(low, high), min_size=dim, max_size=dim)
    points = draw(st.lists(coords, min_size=dim + 1, max_size=6, unique_by=tuple))
    r = len(points)
    entry = st.one_of(st.integers(-3, 3), st.fractions(max_denominator=4).map(str), _HUGE)
    psi = {"Psi": draw(st.lists(st.lists(entry, min_size=r, max_size=r), min_size=1, max_size=3))}
    # a term at a sum of points lies in the semigroup; its d and eta may
    # also be drawn, small or huge
    sums = st.lists(st.integers(0, r - 1), max_size=3).map(
        lambda idx: (len(idx), [sum(points[i][k] for i in idx) for k in range(dim)])
    )
    small = st.one_of(st.integers(-3, 6), _HUGE)
    drawn = st.tuples(small, st.lists(small, min_size=dim, max_size=dim))
    terms = [
        {"d": d, "eta": eta, "coeff": draw(st.sampled_from([1, -2, "1/3"]))}
        for d, eta in draw(st.lists(st.one_of(sums, sums, drawn), min_size=1, max_size=3))
    ]
    return [
        draw(_encoded(draw(_spoiled(obj))))
        for obj in ({"dim": dim, "points": points}, psi, terms)
    ]


class TestExitCodes:
    """Every error leaves by ``errors.EXIT_CODES``: one stderr line that
    opens with its class's label, and its class's exit code."""

    @pytest.mark.parametrize("clause", _EXIT_TABLE)
    def test_exit_code_table(self, clause, tmp_path, capsys, monkeypatch):
        cls, flags, command, inputs, message = _EXIT_TABLE[clause]
        paths = []
        for i, content in enumerate(inputs):
            path = tmp_path / f"in{i}.json"
            if isinstance(content, bytes):
                path.write_bytes(content)
            elif content is ...:
                path = tmp_path
            elif content is not None:
                path.write_text(json.dumps(content))
            paths.append(str(path))
        if clause == "closed stdout":
            monkeypatch.setattr(sys, "stdout", None)  # as under `>&-`
        argv = [f.format(tmp=tmp_path) for f in flags] + [command, *paths]
        code = main(argv)
        out, err = capsys.readouterr()
        expected, label = EXIT_CODES[cls]
        assert (code, out) == (expected, "")
        assert err.startswith(f"{label}: {message}") and err.count("\n") == 1

    @settings(max_examples=100, deadline=None)
    @given(command=st.sampled_from(_COMMANDS), inputs=_inputs())
    def test_exit_codes_fuzzed(self, tmp_path_factory, command, inputs):
        folder = tmp_path_factory.getbasetemp()
        paths = [folder / f"fuzz{i}.json" for i in range(3)]
        for path, content in zip(paths, inputs):
            path.write_bytes(content)
        arity = {"fan": 1, "subdivide": 2, "degenerate": 2}.get(command, 3)
        out, err = stdio.StringIO(), stdio.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*_FUZZ_FLAGS, command, *map(str, paths[:arity])])
        out, err = out.getvalue(), err.getvalue()
        labels = dict(EXIT_CODES.values())  # code -> label
        if code == 0:
            assert err == ""
            json.loads(out)
        else:
            assert code in labels
            assert err.count("\n") == 1 and err.endswith("\n") and "Traceback" not in err
            assert err.startswith(f"{labels[code]}: ")


class TestReadme:
    def test_exit_codes_listed(self):
        text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        for cls, (code, label) in EXIT_CODES.items():
            assert f"| `{code}` | `{label}` | `{cls.__name__}` |" in text

    def test_command_line_examples_run(self, capsys, monkeypatch):
        root = Path(__file__).resolve().parent.parent
        text = (root / "README.md").read_text()
        section = text.split("## Command line", 1)[1]
        block = section.split("```sh\n", 1)[1].split("```", 1)[0]
        commands = [
            shlex.split(line)
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("lexfan ")
        ]
        assert commands
        monkeypatch.chdir(root)
        for argv in commands:
            assert main(argv[1:]) == 0, argv
            assert capsys.readouterr().out


class TestScripts:
    def test_enumerate_fans_exits_nonzero_on_partition_failure(
        self, capsys, monkeypatch
    ):
        path = Path(__file__).resolve().parent.parent / "scripts" / "enumerate_fans.py"
        spec = importlib.util.spec_from_file_location("enumerate_fans", path)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        monkeypatch.setattr(sys, "argv", [str(path), "--samples", "1"])
        assert script.main() == 0
        # a matrix whose subdivision is in no open cone of the listed fan
        monkeypatch.setattr(script, "subdivide", lambda cfg, psi: MarkedSubdivision(()))
        assert script.main() == 1
        assert "partition property violated" in capsys.readouterr().err


class TestSource:
    def test_package_has_no_assert(self):
        # python -O drops assert statements; contracts raise typed errors
        package = Path(config.__file__).resolve().parent
        found = [
            f"{path.name}:{node.lineno}"
            for path in sorted(package.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Assert)
        ]
        assert found == []


class TestSvg:
    def test_dimension_guard(self):
        cfg = PointConfig(
            dim=3,
            points=((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)),
        )
        payload = io.config_to_json(cfg)
        payload["cells"] = [{"vertices": [0, 1, 2, 3], "marking": [0, 1, 2, 3]}]
        with pytest.raises(SchemaError):
            render_svg(payload)

    def test_planar_svg_contents(self, simplex_cfg):
        payload = io.config_to_json(simplex_cfg)
        payload["cells"] = [
            {"vertices": [0, 1, 3], "marking": [0, 1, 3]},
            {"vertices": [0, 2, 3], "marking": [0, 2, 3]},
            {"vertices": [1, 2, 3], "marking": [1, 2, 3]},
        ]
        svg = render_svg(payload)
        assert svg.count("<polygon") == 3
        assert svg.count("<circle") == 4

    def test_zero_dimensional_point(self, tmp_path, capsys):
        # a 0-dimensional configuration: one cell of its single point, drawn
        # as one polygon and one marked circle
        cfg, mat = tmp_path / "point.json", tmp_path / "psi.json"
        cfg.write_text(json.dumps({"dim": 0, "points": [[]]}))
        mat.write_text(json.dumps({"Psi": [[1]]}))
        assert main(["--format", "svg", "subdivide", str(cfg), str(mat)]) == 0
        svg = capsys.readouterr().out
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
        assert svg.count("<polygon") == 1 and svg.count("<circle") == 1

    def test_polygon_vertices_in_convex_order(self):
        # the first vertex lies exactly left of the centroid (2, 0)
        payload = {
            "dim": 2,
            "points": [[0, 0], [2, -1], [4, 0], [2, 1]],
            "cells": [{"vertices": [0, 1, 2, 3], "marking": [0, 1, 2, 3]}],
        }
        svg = render_svg(payload)
        points = re.search(r'<polygon points="([^"]*)"', svg).group(1)
        xy = [tuple(map(float, p.split(","))) for p in points.split()]
        assert len(xy) == 4
        turns = set()
        for i in range(4):
            (ax, ay), (bx, by), (cx, cy) = xy[i], xy[(i + 1) % 4], xy[(i + 2) % 4]
            cross = (bx - ax) * (cy - by) - (by - ay) * (cx - bx)
            turns.add(cross > 0)
            assert cross != 0
        assert len(turns) == 1  # every turn in the same direction: no bowtie
