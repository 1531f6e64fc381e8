"""Run one workload of the lexfan benchmark and print its metrics.

    python3 lexbench/run.py --workload partition --seed 1 --seconds 30 --trace 0

Run from the root of a lexfan source tree: the package is imported from its
``src/`` directory.  Each op is one in-process call to ``lexfan.cli.main``
with global flags before the subcommand and input files as positionals;
stdout and stderr go to captured buffers and only the call is timed.
Outputs are checked after every op.

``--workload all`` runs every workload in turn, each in its own process.
``--trace 0`` reports the end-to-end metrics over whole rounds of ops run
for about ``--seconds``, each round after set-ups that import lexfan
afresh; its timings are scaled to a reference machine speed (see
SpeedClock).  ``--trace 1`` runs one round with spans around every call into a
lexfan module and one round without, and reports the per-layer metrics and
the tracing overhead.  The last line of stdout is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 1
if any output check failed.  A fuller record, with provenance, goes to
``.lexbench_run/`` under the root.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".lexbench_run"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = workloads.SPEC
# About how long reference_s() takes between ops on an unloaded core of the
# 2-core x86-64 machine the benchmark was written on (Python 3.11).
REFERENCE_S = 1.30e-3


def drop_lexfan() -> None:
    """Forget the imported lexfan and collect it, so that re-imports do not
    pile up in memory."""
    for name in [n for n in sys.modules if n == "lexfan" or n.startswith("lexfan.")]:
        del sys.modules[name]
    gc.collect()


def import_lexfan():
    """Import lexfan from SRC, afresh if it was dropped; return its cli."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("lexfan.cli")
    if Path(cli.__file__).resolve().parent != SRC / "lexfan":
        raise ImportError(f"lexfan was imported from {cli.__file__}, not from {SRC}")
    return cli


def run_op(main, argv):
    """One op: (exit code or exception, seconds, captured stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            rc = main(argv)
        except (Exception, SystemExit) as exc:
            rc = exc
        elapsed = perf_counter() - start
    return rc, elapsed, out.getvalue()


def setup(name: str, seed: int, workdir: Path):
    """One set-up: import lexfan afresh, build the inputs and run the
    warm-up op; returns (cli, workload, seconds).  The input files are
    written by the first set-up only, untimed: how long creating files
    takes depends on the disk, not on lexfan, and varied by more than 2x
    between runs."""
    drop_lexfan()
    start = perf_counter()
    cli = import_lexfan()
    wl = workloads.build(name, seed, workdir)
    built = perf_counter()
    if not workdir.exists():
        workloads.write(wl)
    resumed = perf_counter()
    rc, _, _ = run_op(cli.main, wl.warmup)
    elapsed = perf_counter() - resumed + built - start
    if rc != 0:
        raise RuntimeError(f"warm-up op {wl.warmup} returned {rc!r}")
    return cli, wl, elapsed


def reference_s() -> float:
    """Seconds that a fixed piece of pure-Python work takes now: Fraction
    arithmetic, tuples and a sort, as in lexfan's exact arithmetic, with
    nothing from lexfan in it."""
    start = perf_counter()
    acc, items = Fraction(0), []
    for i in range(1, 300):
        f = Fraction(i % 13 - 6, i % 5 + 1)
        acc += f * f
        items.append((f, -i))
    items.sort()
    return perf_counter() - start


class SpeedClock:
    """Scales a timing to the machine speed at which reference_s() takes
    REFERENCE_S.  On a shared host the same code runs up to 1.75x slower,
    in stretches from a second to several minutes; CPU time stretches with
    wall time, so the host's other load slows the core itself.  The
    reference work is timed right after each timed call and the call is
    scaled by the geometric mean of the reference times before and after
    it.  Over 480 s in which rounds of the same partition ops took from 1x
    to 1.5x their fastest time (coefficient of variation 10%), the scaled
    rounds varied by 1.4%; the reference work slows a little more than
    lexfan, so the slowest rounds read about 5% low."""

    def __init__(self):
        self.before = reference_s()
        self.reference: list = []

    def scale(self, elapsed: float) -> float:
        after = reference_s()
        self.reference.append(after)
        scaled = elapsed * REFERENCE_S / (self.before * after) ** 0.5
        self.before = after
        return scaled


class Tally:
    """Attempted and failed ops, with the ids of the failures."""

    def __init__(self, wl):
        self.check = workloads.Checker(wl)
        self.attempted = 0
        self.failures: list = []

    def record(self, op, rc, out, ok: bool = True) -> None:
        self.attempted += 1
        if not (ok and self.check(op, rc, out)):
            self.failures.append(op.id)


def end_to_end(name: str, seed: int, workdir: Path, seconds: float) -> tuple:
    """Whole rounds until about ``seconds`` have passed (stop when another
    round would overshoot by more than it undershoots).  Every round starts
    from set-ups that import lexfan afresh, so each round meets the same
    cold caches and the set-up samples are spread over the run.

    ops_per_s, op_geomean_ms and setup_s are timed at reference speed (see
    SpeedClock): unscaled, whole runs moved by up to 40% with the host's
    load.
    ops_per_s and op_geomean_ms come from each op's median over the rounds;
    op_geomean_ms is the geometric mean over the ops' strata of each
    stratum's geometric mean, so that a stratum with more draws does not
    weigh more.  The report-only latencies are wall time."""
    setups, latencies, flat, tally = [], None, [], None
    clock = SpeedClock()
    start = perf_counter()
    while True:
        for _ in range(SPEC["setups_per_round"]):
            cli, wl, elapsed = setup(name, seed, workdir)
            setups.append(clock.scale(elapsed))
        if tally is None:
            tally, latencies = Tally(wl), [[] for _ in wl.ops]
        round_start = perf_counter()
        for op, lat in zip(wl.ops, latencies):
            rc, elapsed, out = run_op(cli.main, op.argv)
            lat.append(clock.scale(elapsed))
            flat.append(elapsed)
            tally.record(op, rc, out)
        now = perf_counter()
        if now - start + (now - round_start) / 2 >= seconds:
            break
    medians = [statistics.median(lat) for lat in latencies]
    strata: dict = {}
    for op, median in zip(wl.ops, medians):
        strata.setdefault(op.stratum or op.id, []).append(median)
    geomean = statistics.geometric_mean(
        [statistics.geometric_mean(stratum) for stratum in strata.values()])
    metrics = {
        "ops_per_s": (len(medians) / sum(medians), "1/s"),
        "op_geomean_ms": (geomean * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    # Report-only: over a mix of op kinds the median falls between cost
    # classes and moves with the seed's draws; p90 needs ten samples beyond it.
    extra = {
        "rounds": len(latencies[0]),
        "samples": len(flat),
        "setups": len(setups),
        "completed_ops_per_s": len(flat) / sum(flat),
        "op_p50_ms": statistics.median(flat) * 1e3,
        "op_p90_ms": statistics.quantiles(flat, n=10)[8] * 1e3 if len(flat) >= 100 else None,
        "reference_ms": statistics.median(clock.reference) * 1e3,
    }
    return metrics, extra, wl, tally


def per_layer(name: str, seed: int, workdir: Path, spans_path: Path) -> tuple:
    """One traced round, then the same round untraced; each starts from a
    fresh import of lexfan, so both meet the same cold caches."""
    cli, wl, _ = setup(name, seed, workdir)
    tally = Tally(wl)
    hull_of = sys.modules["lexfan.config"].hull_of
    tracer = Tracer()
    traced_t, digests, hits, misses, bytes_out = 0.0, {}, 0, 0, 0
    tracer.install()
    try:
        for op in wl.ops:
            before = hull_of.cache_info()
            rc, elapsed, out = run_op(
                lambda argv: tracer.call_op(op.id, cli.main, argv), op.argv
            )
            after = hull_of.cache_info()
            hits += after.hits - before.hits
            misses += after.misses - before.misses
            traced_t += elapsed
            bytes_out += len(out.encode())
            digests[op.id] = workloads.digest(out)
            tally.record(op, rc, out)
    finally:
        tracer.uninstall()
    cli, wl, _ = setup(name, seed, workdir)
    untraced_t = 0.0
    for op in wl.ops:
        rc, elapsed, out = run_op(cli.main, op.argv)
        untraced_t += elapsed
        # tracing must not change a byte of output
        tally.record(op, rc, out, ok=workloads.digest(out) == digests[op.id])
    tracer.write(spans_path)
    if tracer.missing:
        print(f"warning: not traced, missing from lexfan: {tracer.missing}", file=sys.stderr)

    self_s, calls, counts = tracer.self_times(), tracer.calls(), tracer.counts

    def n_calls(prefix: str) -> int:
        return sum(v for k, v in calls.items() if k.startswith(prefix))

    def ratio(a, b) -> float:
        return a / b if b else 0.0

    n_ops = len(wl.ops)
    nu_calls = n_calls("quasival.nu_point")
    regular_calls = n_calls("gkzfan.is_regular")
    reps = counts.get("quasival.reps_enumerated", 0)
    metrics = {f"{layer}.self_s": (t, "s") for layer, t in self_s.items()}
    metrics.update({
        "cones.build.calls": (n_calls("cones.PolyCone.from_"), "count"),
        "cones.rays_out": (counts.get("cones.rays_out", 0), "count"),
        "config.validate.calls": (n_calls("config.validate_subdivision"), "count"),
        "config.refines.calls": (n_calls("config.refines"), "count"),
        "config.hull_of.hit_ratio": (ratio(hits, hits + misses), "ratio"),
        "config.hull_of.misses": (misses, "count"),
        "gkzfan.subdivide.calls": (n_calls("gkzfan.subdivide"), "count"),
        "gkzfan.is_regular.calls": (regular_calls, "count"),
        "gkzfan.is_regular.yield": (
            ratio(counts.get("gkzfan.is_regular.true", 0), regular_calls), "ratio"),
        "gkzfan.budget_exceeded": (counts.get("raised.BudgetExceeded.gkzfan", 0), "count"),
        "lp.solve.calls": (n_calls("lp.solve_lp"), "count"),
        "linalg.calls": (n_calls("linalg."), "count"),
        "quasival.nu_point.calls": (nu_calls, "count"),
        "quasival.reps_enumerated": (reps, "count"),
        "quasival.reps_per_nu": (ratio(reps, nu_calls), "ratio"),
        "quasival.in_SQ1.calls": (n_calls("quasival.in_SQ1"), "count"),
        "quasival.degree_overflow": (counts.get("raised.DegreeOverflow.quasival", 0), "count"),
        "degeneration.table_entries": (counts.get("degeneration.table_entries", 0), "count"),
        "cli.bytes_out": (bytes_out, "B"),
        "trace.ops": (n_ops, "count"),
        "trace.spans": (len(tracer.spans), "count"),
        "trace.ops_per_s": (n_ops / traced_t, "1/s"),
        "trace.untraced_ops_per_s": (n_ops / untraced_t, "1/s"),
        "trace.overhead": (traced_t / untraced_t, "ratio"),
    })
    return metrics, wl, tally


def provenance(seed: int) -> dict:
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            commit = ref
    src = hashlib.sha256()
    for path in sorted((SRC / "lexfan").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=SPEC["default_seed"])
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lexfan" / "__init__.py").is_file():
        print(f"error: no lexfan sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        # one process per workload, so that each has its own peak_rss_mb
        codes = [
            subprocess.run([sys.executable, __file__, "--workload", name,
                            "--seed", str(args.seed), "--seconds", str(args.seconds),
                            "--trace", str(args.trace)]).returncode
            for name in workloads.NAMES
        ]
        return max(codes)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"inputs-{tag}-{os.getpid()}"
    try:
        if args.trace:
            spans = OUT / f"spans-{tag}.json"
            metrics, wl, tally = per_layer(args.workload, args.seed, workdir, spans)
            extra = {"spans_file": str(spans.relative_to(ROOT))}
        else:
            metrics, extra, wl, tally = end_to_end(
                args.workload, args.seed, workdir, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(tally.failures)
    record = {
        "workload": args.workload,
        "why": SPEC["workloads"][args.workload]["why"],
        "inputs": workloads.properties(wl),
        "provenance": provenance(args.seed),
        "seconds": args.seconds,
        "trace": args.trace,
        "failed_frac": failed / tally.attempted,
        "failures": sorted(set(tally.failures)),
        **extra,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    result = OUT / f"result-{tag}.json"
    result.unlink(missing_ok=True)  # a new file: see workloads.write
    result.write_text(json.dumps(record, indent=1) + "\n")

    print(f"lexbench {args.workload}: seed {args.seed}, trace {args.trace}, "
          f"{tally.attempted} ops, provenance {json.dumps(record['provenance'])}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:28s} {value:14.6g} {unit}")
    if not args.trace:
        for key, unit in (("completed_ops_per_s", "1/s"), ("op_p50_ms", "ms"),
                          ("op_p90_ms", "ms")):
            value = "n/a" if extra[key] is None else f"{extra[key]:.6g}"
            print(f"  {key:28s} {value:>14} {unit}  (report only)")
        print(f"  samples: {extra['samples']} op latencies in {extra['rounds']} rounds, "
              f"{extra['setups']} set-ups; ops_per_s and op_geomean_ms use the "
              f"median latency of each of the {len(wl.ops)} ops, timed at the speed "
              f"where the reference work takes {REFERENCE_S * 1e3:g} ms "
              f"(it took {extra['reference_ms']:.4g} ms in this run)")
    print(f"  {'failed_frac':28s} {record['failed_frac']:14.6g}  "
          f"({failed} of {tally.attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
