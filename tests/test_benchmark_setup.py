"""The benchmark's own calls into gaborlab still run.

For each workload in BENCHMARK.json this runs, from the repository root,

    perfbench/worker.py WORKLOAD --seed 1 --seconds 0 --trace 1
        --spawned-at MONOTONIC --result R --tmpdir T --setup-only

in a child process, so nothing from perfbench/ is imported here.  The
worker builds the workload, runs one warm-up op of every kind through the
workload's own calls and installs the span tracer, which looks up every
traced name.  It stops before the workload's `check`, which is where
`build_hard_fio` is called, so that call is not covered here.

The two CLI workloads also run in full, untraced: two cycles of ops and
then their `check`, which holds the 1e-12 reference rows, the closed-form
growth factors and the Moyal spot checks.
"""

import json
import pathlib
import subprocess
import sys
import time

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def _worker(tmp_path, workload, *flags) -> dict:
    result = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, "perfbench/worker.py", workload, "--seed", "1", "--seconds", "0",
         *flags, "--spawned-at", repr(time.monotonic()), "--result", str(result),
         "--tmpdir", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(result.read_text())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_worker_setup_runs(tmp_path, workload):
    assert "setup_s" in _worker(tmp_path, workload, "--trace", "1", "--setup-only")


@pytest.mark.parametrize("workload", ["rank3-ratio", "sharpness-sweep"])
def test_worker_check_passes(tmp_path, workload):
    result = _worker(tmp_path, workload, "--trace", "0")
    assert result["cycles"] == 2
    assert result["failed"] == 0, result["messages"]
