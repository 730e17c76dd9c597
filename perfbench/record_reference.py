"""Record the rank3-ratio reference rows that the correctness gate compares
against when the benchmark runs with the default seed.

    python3 perfbench/record_reference.py     # from the root of a checkout

Runs the first cycle of rank3-ratio with the default seed and writes its
CSV rows to perfbench/reference_rank3.json.  Run it only on a commit whose
results are trusted; the committed file was recorded at the commit named
inside it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

from run import git_sha
from workloads import DEFAULT_SEED, REFERENCE_PATH, Rank3Ratio, Record


def main() -> int:
    root = os.path.realpath(os.getcwd())
    sys.path.insert(0, os.path.join(root, "src"))
    rows = []
    with tempfile.TemporaryDirectory(dir=root) as tmpdir:
        wl = Rank3Ratio(DEFAULT_SEED, tmpdir)
        for op in wl.cycle_ops(0, 0):
            with contextlib.redirect_stdout(io.StringIO()):
                path = wl.run(op)
            row = wl._parse(Record(op, 0.0, output=path))
            rows.append({"theorem": row["theorem"], "n": op.n, "seed": op.seed,
                         "schatten": row["schatten"], "mixednorm": row["mixednorm"],
                         "ratio": row["ratio"]})
    with open(REFERENCE_PATH, "w") as fh:
        json.dump({"workload": wl.name, "seed": DEFAULT_SEED,
                   "recorded_at_git_sha": git_sha(root), "rows": rows}, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(rows)} rows to {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
