"""Seeded inputs, op lists and output checks for the lexfan benchmark.

A workload is built from ``spec.json`` and a seed: its inputs as JSON files
in the CLI's schema (rationals as "p/q" strings), the ops of one round, each
an argv for ``lexfan.cli.main``, and what the checks need.  The same seed
gives byte-identical files.

lexfan modules are imported inside the functions, never at module level,
because set-up re-imports the package to time it.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE / "spec.json").read_text())
DIGESTS_FILE = HERE / "digests.json"
NAMES = tuple(SPEC["workloads"])


@dataclass
class Op:
    id: str
    argv: list
    kind: str
    group: str = ""  # partition: the Psi whose moves must agree
    stratum: str = ""  # op_geomean_ms weighs strata equally; "" is the op alone
    info: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    seed: int
    files: dict  # input path -> JSON text
    ops: list
    warmup: list  # argv of the set-up op, outside the timed set
    configs: dict  # config name -> points
    checks: dict  # fan: config name -> Psi rows whose subdivision must be listed


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def _config_json(points) -> dict:
    return {"dim": len(points[0]), "points": [list(p) for p in points]}


def _matrix_json(rows) -> dict:
    return {"Psi": [[str(Fraction(x)) for x in row] for row in rows]}


ENTRIES = SPEC["entries"]


def _entry(rng: random.Random, nonzero: bool = False) -> Fraction:
    num = rng.randint(1 if nonzero else -ENTRIES["numerator_max"], ENTRIES["numerator_max"])
    if nonzero:
        num *= rng.choice((-1, 1))
    return Fraction(num, rng.randint(1, ENTRIES["denominator_max"]))


def _psi_rows(rng, n_rank: int, r: int) -> tuple:
    return tuple(tuple(_entry(rng) for _ in range(r)) for _ in range(n_rank))


def _unimodular(rng: random.Random, dim: int) -> list:
    m = [[int(i == j) for j in range(dim)] for i in range(dim)]
    if dim > 1:
        for _ in range(3 * dim):
            i, j = rng.sample(range(dim), 2)
            k = rng.choice((-1, 1))
            for row in m:
                row[j] += k * row[i]
        perm = rng.sample(range(dim), dim)
        m = [[row[p] for p in perm] for row in m]
    for c in range(dim):
        if rng.random() < 0.5:
            for row in m:
                row[c] = -row[c]
    return m


def _embed(rng: random.Random, points) -> list:
    """A lattice-equivalent copy: unimodular map, translation, point order."""
    dim = len(points[0])
    m = _unimodular(rng, dim)
    shift = [rng.randint(-3, 3) for _ in range(dim)]
    out = [
        tuple(sum(m[i][j] * p[j] for j in range(dim)) + shift[i] for i in range(dim))
        for p in points
    ]
    rng.shuffle(out)
    return out


def _warmup(rng, put, op: str) -> list:
    pts = SPEC["warmup"]["config"]["points"]
    cfg = put("warmup_config.json", _config_json(pts))
    if op == "fan":
        return ["fan", cfg]
    psi = put("warmup_psi.json", _matrix_json([[rng.randint(-9, 9) for _ in pts]]))
    if op == "subdivide":
        return ["subdivide", cfg, psi]
    expr = put("warmup_expr.json",
               [{"d": 1, "eta": [0], "coeff": "1"}, {"d": 1, "eta": [3], "coeff": "-1/2"}])
    return ["--degree-bound", "4", "valuate", cfg, psi, expr]


def _partition(rng, put, params: dict) -> tuple:
    from lexfan.exactlex import WeightMatrix
    from lexfan.gkzfan import elementary_moves

    ops = []
    for cname, pts in params["configs"].items():
        cfg = put(f"{cname}.json", _config_json(pts))
        for n_rank in params["ranks"]:
            stratum = f"{cname}/N{n_rank}"
            for g in range(params["psi_per_rank"][cname]):
                group = f"{stratum}/{g}"
                psi = WeightMatrix(rows=_psi_rows(rng, n_rank, len(pts)))
                moves = elementary_moves(psi)  # moves[0] is Psi itself
                chosen = sorted(rng.sample(range(1, len(moves)), params["moves_per_psi"]))
                for j, k in enumerate([0] + chosen):
                    path = put(f"{cname}_N{n_rank}_{g}_{j}.json", _matrix_json(moves[k].rows))
                    ops.append(Op(f"{group}/m{k}", ["subdivide", cfg, path],
                                  "subdivide", group, stratum))
    return ops, _warmup(rng, put, "subdivide"), params["configs"], {}


def _fan(rng, put, params: dict) -> tuple:
    ops, configs, checks = [], {}, {}
    for tname, base in params["types"].items():
        pts = _embed(rng, base)
        cfg = put(f"{tname}.json", _config_json(pts))
        ops.append(Op(tname, ["fan", cfg], "fan"))
        configs[tname] = pts
        checks[tname] = [_psi_rows(rng, n, len(pts)) for n in params["check_ranks"]]
    return ops, _warmup(rng, put, "fan"), configs, checks


def _expr_terms(rng, pts, degree: int) -> list:
    """Two distinct semigroup elements of the given degree with nonzero
    coefficients (so the expression is never zero)."""
    def point():
        eta = [0] * len(pts[0])
        for _ in range(degree):
            p = rng.choice(pts)
            eta = [a + b for a, b in zip(eta, p)]
        return eta

    first = point()
    second = point()
    while second == first:
        second = point()
    return [
        {"d": degree, "eta": eta, "coeff": str(_entry(rng, nonzero=True))}
        for eta in (first, second)
    ]


def _valuation(rng, put, params: dict) -> tuple:
    ops = []
    counts = params["ops_per_config"]
    for cname, c in params["configs"].items():
        pts = c["points"]
        cfg = put(f"{cname}.json", _config_json(pts))

        def psi_file(tag):
            n_rank = rng.choice(params["ranks"])
            return put(f"{cname}_{tag}_psi.json",
                       _matrix_json(_psi_rows(rng, n_rank, len(pts))))

        for i in range(counts["valuate"]):
            deg = c["valuate_degree"]
            psi = psi_file(f"valuate{i}")
            expr = put(f"{cname}_valuate{i}_expr.json", _expr_terms(rng, pts, deg))
            argv = ["--degree-bound", str(deg), "valuate", cfg, psi, expr]
            ops.append(Op(f"{cname}/valuate{i}", argv, "valuate"))
        for i in range(counts["liminf"]):
            win = c["liminf_window"]
            psi = psi_file(f"liminf{i}")
            expr = put(f"{cname}_liminf{i}_expr.json", _expr_terms(rng, pts, 1))
            argv = ["--degree-bound", str(win), "--window", str(win),
                    "liminf", cfg, psi, expr]
            ops.append(Op(f"{cname}/liminf{i}", argv, "liminf", info={"window": win}))
        for i in range(counts["degenerate"]):
            psi = psi_file(f"degenerate{i}")
            argv = ["--degree-bound", str(c["degenerate_bound"]), "degenerate", cfg, psi]
            ops.append(Op(f"{cname}/degenerate{i}", argv, "degenerate"))
    configs = {cname: c["points"] for cname, c in params["configs"].items()}
    return ops, _warmup(rng, put, "valuate"), configs, {}


_BUILDERS = {"partition": _partition, "fan": _fan, "valuation": _valuation}


def build(name: str, seed: int, root: Path) -> Workload:
    """The inputs and ops of one round of workload ``name``, with input
    paths under ``root``; nothing is written yet."""
    files = {}

    def put(filename: str, obj) -> str:
        path = str(Path(root) / filename)
        files[path] = json.dumps(obj, indent=1) + "\n"
        return path

    rng = random.Random(f"{name}:{seed}")
    return Workload(name, seed, files, *_BUILDERS[name](rng, put, SPEC["workloads"][name]))


def write(wl: Workload) -> None:
    """Write the inputs as new files.  Files are never rewritten in place:
    on ext4, replacing a file's contents forces a flush to disk."""
    for parent in {Path(path).parent for path in wl.files}:
        parent.mkdir(parents=True, exist_ok=True)
    for path, text in wl.files.items():
        with open(path, "x") as fh:
            fh.write(text)


def properties(wl: Workload) -> dict:
    """Input properties of a generated round, in the form spec.json records."""
    pts = wl.configs.values()
    out = {"r": sorted({len(p) for p in pts}), "dim": sorted({len(p[0]) for p in pts})}
    bounds = {int(op.argv[i + 1]) for op in wl.ops for i, a in enumerate(op.argv)
              if a == "--degree-bound"}
    if bounds:
        out["degree_bounds"] = sorted(bounds)
    mix: dict = {}
    for op in wl.ops:
        mix[op.kind] = mix.get(op.kind, 0) + 1
    out["op_mix"] = mix
    out["ops_per_round"] = len(wl.ops)
    return out


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _lex(values) -> tuple:
    return tuple(Fraction(x) for x in values)


class Checker:
    """Checks each op's output; a False result marks the op as failed.

    Every workload: exit code 0, JSON output, and for the seed recorded in
    digests.json the digest of every op's output.  Per workload: see the
    check_* methods.
    """

    def __init__(self, wl: Workload):
        self.wl = wl
        recorded = json.loads(DIGESTS_FILE.read_text())
        self.digests = recorded[wl.name] if recorded["seed"] == wl.seed else {}
        self.reference_cells: dict = {}  # partition group -> cells

    def __call__(self, op: Op, rc, out: str) -> bool:
        if rc != 0:
            return False
        if self.digests and self.digests.get(op.id) != digest(out):
            return False
        try:
            payload = json.loads(out)
        except json.JSONDecodeError:
            return False
        try:
            return getattr(self, "check_" + op.kind)(op, payload)
        except (KeyError, TypeError, ValueError, ZeroDivisionError):
            return False

    def check_subdivide(self, op: Op, payload) -> bool:
        """Psi and every one of its moves give the same cells, and Psi lies
        in both the open and the closed cone of its subdivision."""
        if payload["open_member"] is not True or payload["closed_member"] is not True:
            return False
        ref = self.reference_cells.setdefault(op.group, payload["cells"])
        return payload["cells"] == ref

    def check_fan(self, op: Op, payload) -> bool:
        """Each seed-drawn Psi's subdivision is listed exactly once."""
        from lexfan.config import PointConfig
        from lexfan.exactlex import WeightMatrix
        from lexfan.gkzfan import subdivide
        from lexfan.io import subdivision_to_json

        listed = [e["cells"] for e in payload["regular_subdivisions"]]
        n = len(listed)
        if any(not (0 <= i < n and 0 <= j < n) for i, j in payload["refinement_poset"]):
            return False
        pts = self.wl.configs[op.id]
        cfg = PointConfig(dim=len(pts[0]), points=tuple(pts))
        for rows in self.wl.checks[op.id]:
            cells = subdivision_to_json(subdivide(cfg, WeightMatrix(rows=rows)))["cells"]
            if listed.count(cells) != 1:
                return False
        return True

    def check_valuate(self, op: Op, payload) -> bool:
        """nu <= V lexicographically and delta <= 0."""
        v, nu = _lex(payload["V"]), _lex(payload["nu"])
        d = _lex(payload["delta"])
        return nu <= v and d <= tuple(Fraction(0) for _ in d)

    def check_liminf(self, op: Op, payload) -> bool:
        """The power sequence has one entry per l = 1..window."""
        ls = [e["l"] for e in payload["sequence"]]
        return ls == list(range(1, op.info["window"] + 1))

    def check_degenerate(self, op: Op, payload) -> bool:
        """Both presentations share the degree-truncated basis, and gr_V
        carries a valid component certificate per cell."""
        gr_v, gr_nu = payload["gr_V"], payload["gr_nu_reduced"]
        return (
            gr_v["basis_size"] == gr_nu["basis_size"]
            and gr_v["certificates_ok"] is True
            and len(gr_v["components"]) == len(payload["cells"])
        )
