"""JSON schemas (exact rational round-trips) and the command-line
surface with its exit-code contract."""

import importlib.util
import json
import re
import shlex
import sys
from pathlib import Path

import pytest

from lexfan import config, gkzfan, io, lp, quasival
from lexfan.cli import main, render_svg
from lexfan.cones import MuCone, PolyCone
from lexfan.config import MarkedSubdivision, PointConfig
from lexfan.errors import SchemaError
from lexfan.exactlex import WeightMatrix
from lexfan.gkzfan import condition_cone
from lexfan.quasival import Expr, GradedPoint


class TestJson:
    def test_config_roundtrip(self, seg_cfg, seg_sub):
        obj = io.config_to_json(seg_cfg, seg_sub)
        assert io.config_from_json(obj) == seg_cfg
        assert io.subdivision_from_json(obj) == seg_sub

    def test_matrix_roundtrip_exact_rationals(self):
        psi = WeightMatrix(rows=(("1/3", "-7/2", 0), (2, "5", "-1/9")))
        obj = io.matrix_to_json(psi)
        assert obj["Psi"][0][0] == "1/3"
        assert io.matrix_from_json(json.loads(json.dumps(obj))) == psi

    def test_expr_roundtrip(self):
        f = Expr.from_terms(
            [(GradedPoint(1, (-1,)), "2/3"), (GradedPoint(2, (4,)), -1)]
        )
        assert io.expr_from_json(io.expr_to_json(f)) == f

    def test_cone_json(self, seg_cfg, seg_sub):
        cone = condition_cone(seg_cfg, seg_sub).cone
        obj = io.cone_to_json(cone)
        assert set(obj) == {"generators", "normals"}
        assert io.cone_from_json(obj, seg_cfg.r) == cone

    def test_mucone_json(self):
        cone = PolyCone.from_generators(2, rays=[(1, 0), (1, 2)])
        obj = io.mucone_to_json(MuCone(n_rank=3, copolar_cone=cone))
        assert obj["N"] == 3
        assert len(obj["copolar_generators"]) == 2

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


@pytest.fixture()
def files(tmp_path, seg_cfg, seg_psi):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(io.config_to_json(seg_cfg)))
    mat = tmp_path / "psi.json"
    mat.write_text(json.dumps(io.matrix_to_json(seg_psi)))
    expr = tmp_path / "f.json"
    f = Expr.from_terms(
        [(GradedPoint(1, (-1,)), 1), (GradedPoint(1, (2,)), 1)]
    )
    expr.write_text(json.dumps(io.expr_to_json(f)))
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
        assert main(["fan", str(cfg)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [c[1] for c in cone_calls] == covers
        assert [io.subdivision_to_json(s)["cells"] for s in regular] == [
            e["cells"] for e in payload["regular_subdivisions"]
        ]
        assert not lp_calls and not refines_calls and not validate_calls

    def test_valuate(self, files, capsys):
        assert (
            main(["valuate", files["config"], files["matrix"], files["expr"]]) == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["V"] == ["3/2", "1/2"]
        assert payload["nu"] == ["0", "0"]
        assert payload["delta"] == ["-3/2", "-1"]

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
        self, files, capsys, monkeypatch, seg_sub
    ):
        reps = _count_calls(monkeypatch, quasival.rep_set)
        knapsacks = _count_calls(monkeypatch, quasival._bounded_combination)
        semigroups = _count_calls(monkeypatch, quasival.semigroup_up_to)
        cell_semigroups = _count_calls(monkeypatch, quasival.cell_semigroup)
        inputs = [files["config"], files["matrix"]]
        assert main(["valuate", *inputs, files["expr"]]) == 0
        assert main(["--degree-bound", "16", "liminf", *inputs, files["expr"]]) == 0
        assert not reps
        assert main(["--degree-bound", "6", "degenerate", *inputs]) == 0
        assert not reps and not knapsacks
        assert len(semigroups) == 1
        assert [args[1] for args in cell_semigroups] == list(seg_sub.cells)

    def test_degree_bound_2000_needs_no_recursion(self, files, capsys, tmp_path):
        # nu at two degree-2000 points: a recursion over the degree would
        # overflow the interpreter stack long before it got there
        far = tmp_path / "far.json"
        f = Expr.from_terms(
            [(GradedPoint(2000, (8000,)), 1), (GradedPoint(2000, (-4000,)), "1/2")]
        )
        far.write_text(json.dumps(io.expr_to_json(f)))
        inputs = [files["config"], files["matrix"]]
        assert main(["--degree-bound", "2000", "valuate", *inputs, str(far)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["nu"] == ["2000", "0"]  # 2000 * Psi e_0, the lesser one
        assert main(["--degree-bound", "1999", "valuate", *inputs, str(far)]) == 5
        assert main(["--degree-bound", "2000", "liminf", *inputs, files["expr"]]) == 0
        assert (
            main(["--degree-bound", "2000", "--window", "2001", "liminf", *inputs,
                  files["expr"]])
            == 5
        )

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

    def test_exit_4_budget(self, files, tmp_path, simplex_cfg):
        cfg = tmp_path / "simplex.json"
        cfg.write_text(json.dumps(io.config_to_json(simplex_cfg)))
        assert main(["--budget", "1", "fan", str(cfg)]) == 4

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


class TestReadme:
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
