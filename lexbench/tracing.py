"""Spans around the calls into each lexfan module, recorded from outside.

``Tracer.install`` replaces each traced function, in every ``lexfan`` module
namespace that holds it, by a wrapper that records a span (name, start, end,
parent span, op); ``uninstall`` puts the originals back.  Spans stay in
memory until ``write`` dumps them.  A layer is a module; its self time is
the time of its spans minus the time of their child spans.

exactlex (mat_vec, LexVec), linalg.dot and Fraction are too hot to wrap:
their time counts in the self time of the layer that calls them.
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path
from time import perf_counter

# module -> public entry points (plus config._face_to_face, the overlap test
# behind validation and the cover search); PolyCone's constructors stand for
# every cone built, since all cone operations go through them.
TRACED = {
    "cones": ["PolyCone.from_generators", "PolyCone.from_normals"],
    "config": ["hull_of", "volume", "validate_subdivision", "refines",
               "is_triangulation", "_face_to_face"],
    "gkzfan": ["subdivide", "open_member", "closed_member", "condition_generators",
               "condition_cone", "linear_extension", "g_eval", "is_regular",
               "enumerate_subdivisions", "enumerate_regular_subdivisions", "cone_dim"],
    "lp": ["solve_lp"],
    "linalg": ["rref", "rank", "solve", "nullspace", "det",
               "canonical_subspace_basis", "project_off"],
    "quasival": ["semigroup_up_to", "rep_set", "nu_point", "nu_quasi", "v_quasi",
                 "delta", "power_seq", "windowed_accumulation", "in_SQ1",
                 "in_cell_cone", "cell_semigroup", "stretch_factor"],
    "degeneration": ["gr_v_present", "gr_nu_reduced", "stanley_reisner"],
    "io": ["load_json", "config_from_json", "matrix_from_json", "expr_from_json",
           "subdivision_to_json", "cone_to_json", "sr_to_json"],
}
LAYERS = ("cli",) + tuple(TRACED)
ROOT = "cli.main"


class Tracer:
    def __init__(self):
        self.names: list = [ROOT]
        self.spans: list = []  # (name index, start, end, parent span, op index)
        self.ops: list = []  # op ids, indexed by the spans
        self.counts: dict = {}  # counters measured at span boundaries
        self._stack: list = []
        self._op = None
        self._patched: list = []  # (namespace, attribute, original)
        self.missing: list = []  # traced names not found in the package

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced name; names the package no longer has are
        listed in ``missing`` and left out."""
        mods = {n: m for n, m in sys.modules.items()
                if n == "lexfan" or n.startswith("lexfan.")}
        for layer, entries in TRACED.items():
            for entry in entries:
                name = f"{layer}.{entry}"
                *path, attr = entry.split(".")
                owner = mods.get(f"lexfan.{layer}")
                for part in path:  # PolyCone.from_generators: a class attribute
                    owner = getattr(owner, part, None)
                orig = vars(owner).get(attr) if owner is not None else None
                if orig is None:
                    self.missing.append(name)
                elif isinstance(orig, staticmethod):
                    self._set(owner, attr, orig, staticmethod(self._wrap(name, orig.__func__)))
                else:
                    self._patch_everywhere(mods, orig, self._wrap(name, orig))

    def _patch_everywhere(self, mods: dict, orig, wrapped) -> None:
        """Replace ``orig`` in every lexfan namespace that imported it."""
        for m in mods.values():
            for attr, value in list(vars(m).items()):
                if value is orig:
                    self._set(m, attr, orig, wrapped)

    def _set(self, owner, attr, orig, new) -> None:
        self._patched.append((owner, attr, orig))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    # -- spans ----------------------------------------------------------------

    def _wrap(self, name: str, fn):
        self.names.append(name)
        name_idx = len(self.names) - 1
        count = _COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op is None:  # outside an op: output checks, generation
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if not getattr(exc, "_lexbench_counted", False):
                    # counted once, in the innermost traced layer it left
                    exc._lexbench_counted = True
                    _add(self.counts, f"raised.{type(exc).__name__}.{name.split('.')[0]}", 1)
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name_idx, start, end, parent, self._op)
            if count is not None:
                count(self.counts, result)
            return result

        return traced

    def call_op(self, op_id: str, fn, *args):
        """Run one op under a root span named cli.main."""
        self.ops.append(op_id)
        self._op = len(self.ops) - 1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx] = (0, start, end, None, self._op)
            self._op = None

    # -- results --------------------------------------------------------------

    def self_times(self) -> dict:
        """Self time per layer: span durations minus their children's."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = dict.fromkeys(LAYERS, 0.0)
        for i, (name_idx, start, end, _, _) in enumerate(self.spans):
            out[self.names[name_idx].split(".")[0]] += end - start - child[i]
        return out

    def calls(self) -> dict:
        out = dict.fromkeys(self.names, 0)
        for name_idx, *_ in self.spans:
            out[self.names[name_idx]] += 1
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.unlink(missing_ok=True)  # a new file: see workloads.write
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "names": self.names, "ops": self.ops, "spans": self.spans,
                       "missing": self.missing}, fh)


def _add(counts: dict, key: str, n) -> None:
    counts[key] = counts.get(key, 0) + n


def _cone_out(counts, cone):
    _add(counts, "cones.rays_out", len(cone.rays) + len(cone.ineq_normals))


def _reps(counts, reps):
    _add(counts, "quasival.reps_enumerated", len(reps))


def _regular(counts, ok):
    _add(counts, "gkzfan.is_regular.true", int(ok))


def _table(counts, pres):
    _add(counts, "degeneration.table_entries", len(pres.table))


_COUNTERS = {
    "cones.PolyCone.from_generators": _cone_out,
    "cones.PolyCone.from_normals": _cone_out,
    "quasival.rep_set": _reps,
    "gkzfan.is_regular": _regular,
    "degeneration.gr_v_present": _table,
    "degeneration.gr_nu_reduced": _table,
}
