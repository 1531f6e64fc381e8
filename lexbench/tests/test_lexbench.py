"""Tests of the benchmark itself.

    python3 -m pytest lexbench/tests -q

Run from the root of the lexfan source tree.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
# a few cheap ops per workload for the smoke runs
SMOKE = {
    "partition": lambda ops: [o for o in ops if o.id.startswith(("segment/N2", "prism/N1"))],
    "fan": lambda ops: [o for o in ops if o.id in ("line5", "bipyramid", "simplex3_edge_point")],
    "valuation": lambda ops: [o for o in ops if o.id.endswith(("valuate0", "liminf0", "degenerate0"))],
}


def _files(name: str, seed: int, root: Path) -> dict:
    workloads.write(workloads.build(name, seed, root))
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


@pytest.fixture
def inputs(tmp_path):
    """A directory for generated inputs, removed as soon as the test ends:
    removing files long after writing them is slow on some disks."""
    yield tmp_path / "inputs"
    shutil.rmtree(tmp_path / "inputs", ignore_errors=True)


@pytest.fixture
def small(inputs, monkeypatch):
    """Cut every workload's round down to its smoke ops; ``small(name)``
    sets the workload up."""
    build = workloads.build

    def cut(name, seed, root):
        wl = build(name, seed, root)
        wl.ops = SMOKE[name](wl.ops)
        return wl

    monkeypatch.setattr(workloads, "build", cut)

    def make(name, seed=workloads.SPEC["default_seed"]):
        return run.setup(name, seed, inputs / name)
    return make


@pytest.mark.parametrize("name", workloads.NAMES)
def test_generator_is_deterministic_per_seed(name, inputs):
    run.import_lexfan()
    a = _files(name, 3, inputs / "a")
    b = _files(name, 3, inputs / "b")
    c = _files(name, 4, inputs / "c")
    assert a == b
    assert a.keys() == c.keys() and a != c


@pytest.mark.parametrize("name", workloads.NAMES)
def test_recorded_input_properties_match_the_generator(name, inputs):
    run.import_lexfan()
    wl = workloads.build(name, 5, inputs)
    assert workloads.properties(wl) == workloads.SPEC["workloads"][name]["properties"]


@pytest.mark.parametrize("name", workloads.NAMES)
def test_smoke_run_reports_every_metric(name, small, inputs):
    seed = workloads.SPEC["default_seed"]
    metrics, extra, wl, tally = run.end_to_end(name, seed, inputs / name, 0.0)
    assert set(metrics) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(v > 0 for v, _ in metrics.values())
    assert extra["rounds"] == 1 and extra["setups"] == workloads.SPEC["setups_per_round"]
    assert tally.failures == [] and tally.attempted == len(wl.ops)
    metrics, wl, tally = run.per_layer(name, seed, inputs / name, inputs / "spans.json")
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert tally.failures == [] and tally.attempted == 2 * len(wl.ops)
    spans = json.loads((inputs / "spans.json").read_text())
    assert len(spans["ops"]) == len(wl.ops) and spans["spans"]


def _namespaces():
    mods = [m for n, m in sys.modules.items() if n.startswith("lexfan")]
    cones = sys.modules["lexfan.cones"]
    return [(m, dict(vars(m))) for m in mods] + [
        (cones.PolyCone, dict(cones.PolyCone.__dict__))
    ]


@pytest.mark.parametrize("name", workloads.NAMES)
def test_tracing_keeps_outputs_and_restores_originals(name, small):
    cli, wl, _ = small(name)
    plain = [run.run_op(cli.main, op.argv)[2] for op in wl.ops]
    before = _namespaces()
    subdivide = sys.modules["lexfan.gkzfan"].subdivide
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert sys.modules["lexfan.gkzfan"].subdivide is not subdivide
        traced = [
            run.run_op(lambda argv: tracer.call_op(op.id, cli.main, argv), op.argv)[2]
            for op in wl.ops
        ]
    finally:
        tracer.uninstall()
    assert traced == plain
    for owner, snapshot in before:
        now = vars(owner)
        assert all(now[k] is v for k, v in snapshot.items()), owner
    assert tracer.spans and all(s is not None for s in tracer.spans)


def test_every_traced_name_exists():
    run.import_lexfan()
    for layer, entries in tracing.TRACED.items():
        mod = sys.modules[f"lexfan.{layer}"]
        for entry in entries:
            obj = mod
            for part in entry.split("."):
                obj = getattr(obj, part)
            assert callable(obj), f"{layer}.{entry}"


def test_missing_traced_names_are_skipped(monkeypatch):
    run.import_lexfan()
    traced = {**tracing.TRACED, "config": ["no_such_function"], "nomodule": ["f"]}
    monkeypatch.setattr(tracing, "TRACED", traced)
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["config.no_such_function", "nomodule.f"]


def test_self_times_subtract_children():
    t = tracing.Tracer()
    t.names += ["cones.x", "linalg.y"]
    t.spans += [(0, 0.0, 10.0, None, 0), (1, 1.0, 5.0, 0, 0), (2, 2.0, 3.0, 1, 0)]
    self_s = t.self_times()
    assert self_s["cli"] == 6.0 and self_s["cones"] == 3.0 and self_s["linalg"] == 1.0


def _corrupt(main):
    def corrupted(argv):
        rc = main(argv)
        print("{}")  # appended output: no longer the expected JSON
        return rc
    return corrupted


@pytest.mark.parametrize("name", workloads.NAMES)
def test_corrupted_output_counts_as_failed(name, small, inputs, monkeypatch):
    import_lexfan = run.import_lexfan

    def corrupted_cli():
        cli = import_lexfan()
        cli.main = _corrupt(cli.main)
        return cli

    monkeypatch.setattr(run, "import_lexfan", corrupted_cli)
    _, _, wl, tally = run.end_to_end(name, workloads.SPEC["default_seed"], inputs / name, 0.0)
    assert len(tally.failures) == tally.attempted == len(wl.ops)


def _payload(cli, op):
    rc, _, out = run.run_op(cli.main, op.argv)
    assert rc == 0
    return json.loads(out)


def test_checks_reject_wrong_answers(small):
    """Each output check fails on a payload with one answer changed."""
    cli, wl, _ = small("partition")
    first, second = wl.ops[0], wl.ops[1]
    check = workloads.Checker(wl)
    check.digests = {}
    assert check.check_subdivide(first, _payload(cli, first))
    moved = _payload(cli, second)
    assert not check.check_subdivide(second, {**moved, "open_member": False})
    assert not check.check_subdivide(second, {**moved, "cells": moved["cells"][:-1] + [{}]})

    cli, wl, _ = small("fan")
    check = workloads.Checker(wl)
    payload = _payload(cli, wl.ops[0])
    assert check.check_fan(wl.ops[0], payload)
    subs = payload["regular_subdivisions"]
    assert not check.check_fan(wl.ops[0], {**payload, "regular_subdivisions": subs + subs})

    cli, wl, _ = small("valuation")
    check = workloads.Checker(wl)
    for op in wl.ops:
        payload = _payload(cli, op)
        assert getattr(check, "check_" + op.kind)(op, payload)
        if op.kind == "valuate":
            bad = {**payload, "nu": [str(Fraction(payload["V"][0]) + 1)] + payload["V"][1:]}
        elif op.kind == "liminf":
            bad = {**payload, "sequence": payload["sequence"][:-1]}
        else:
            gr_v = {**payload["gr_V"], "basis_size": payload["gr_V"]["basis_size"] + 1}
            bad = {**payload, "gr_V": gr_v}
        assert not getattr(check, "check_" + op.kind)(op, bad)


def test_digest_mismatch_counts_as_failed(small):
    cli, wl, _ = small("valuation")
    check = workloads.Checker(wl)
    assert check.digests, "digests.json has no entries for the default seed"
    op = wl.ops[0]
    rc, _, out = run.run_op(cli.main, op.argv)
    assert check(op, rc, out)
    assert not check(op, rc, out.replace("1", "2", 1))


def test_predictions_name_benchmark_metrics():
    names = {m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
    report_only = {"op_p50_ms", "op_p90_ms"}
    for p in workloads.SPEC["predictions"]:
        assert set(p["layer"]) <= names
        for metric, workload in p["moves"] + p["no_change"]:
            assert metric in names | report_only and workload in workloads.NAMES


def test_fails_without_lexfan_sources(inputs):
    inputs.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", inputs)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, inputs / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        BENCHMARK["command"] + ["--workload", "fan", "--seed", "1",
                                "--seconds", "1", "--trace", "0"],
        cwd=inputs, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
