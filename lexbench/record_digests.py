"""Record the output digest of every op of the default seed's round.

    python3 lexbench/record_digests.py

Writes lexbench/digests.json.  run.py then fails any default-seed op whose
output differs from the recorded one, so re-record only when a change to
lexfan's output is intended.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import workloads


def main() -> int:
    seed = workloads.SPEC["default_seed"]
    recorded = {}
    for name in workloads.NAMES:
        workdir = run.OUT / f"record-{name}"
        try:
            cli, wl, _ = run.setup(name, seed, workdir)
            recorded[name] = {}
            for op in wl.ops:
                rc, _, out = run.run_op(cli.main, op.argv)
                if rc != 0:
                    print(f"error: {name} op {op.id} returned {rc!r}", file=sys.stderr)
                    return 1
                recorded[name][op.id] = workloads.digest(out)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    text = json.dumps({"seed": seed, **recorded}, indent=1, sort_keys=True)
    workloads.DIGESTS_FILE.write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
