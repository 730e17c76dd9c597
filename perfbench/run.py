"""gaborlab benchmark: runs workloads in child processes, checks their
outputs and prints metrics by name with units.

    python3 perfbench/run.py                       # every workload, untraced then traced
    python3 perfbench/run.py --workload rank3-ratio --seed 1 --seconds 20 --trace 0

Run from the root of a gaborlab checkout; gaborlab is imported from its
`src/`.  Each workload run is one child process (perfbench/worker.py)
driving a closed loop: one client, each op issued after the previous one
finished, no threads beyond OpenBLAS's own.  The last line of stdout is a
JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
Without --workload, every workload runs untraced and then traced, the
tracing overhead is reported, and metric names are prefixed with the
workload.  Exit code 0 when every op passed its correctness check.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import metrics
from workloads import DEFAULT_SEED, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")

# Setup time is the median over this many child spawns (plus the main run).
SETUP_SPAWNS = 6
# Every child of one workload run must finish within this many seconds of
# the run's start.
DEADLINE_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("op_s_p50", "s"),
    ("op_s_tail", "s"),
    ("peak_rss_mb", "MB"),
)


class BenchError(Exception):
    """The benchmark itself could not run (not an op failure)."""


def environment(root: str, seed: int, trace: bool) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(root),
        "src_sha256": _tree_sha256(os.path.join(root, "src")),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(),
        "seed": seed,
        "trace": trace,
    }


def git_sha(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, timeout=10,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def _tree_sha256(path):
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(path):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                full = os.path.join(dirpath, name)
                h.update(os.path.relpath(full, path).encode())
                with open(full, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def _openblas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()
                       and line.split()[-1].startswith("/")})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            func = getattr(handle, sym, None)
            if func is not None:
                func.restype = ctypes.c_int
                return func()
    return None


def read_mem_available() -> int:
    with open("/proc/meminfo") as fh:
        return metrics.mem_available_bytes(fh.read())


class Runner:
    def __init__(self, root, seed, seconds):
        self.root = root
        self.seed = seed
        self.seconds = seconds
        self.deadline = None
        self.tmp = os.path.join(root, ".perfbench_tmp", str(os.getpid()))

    def spawn(self, workload, trace, setup_only=False) -> dict:
        tmpdir = os.path.join(self.tmp, f"{workload}-{int(trace)}-{int(setup_only)}")
        os.makedirs(tmpdir, exist_ok=True)
        result = os.path.join(tmpdir, "result.json")
        argv = [sys.executable, WORKER, workload, "--seed", str(self.seed),
                "--seconds", str(self.seconds), "--trace", str(int(trace)),
                "--result", result, "--tmpdir", tmpdir]
        if setup_only:
            argv.append("--setup-only")
        spawned_at = time.monotonic()
        proc = subprocess.Popen(argv + ["--spawned-at", repr(spawned_at)],
                                cwd=self.root, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL)
        try:
            code = proc.wait(timeout=max(self.deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"{workload}: worker passed the {DEADLINE_S:.0f} s deadline")
        if code != 0:
            raise BenchError(f"{workload}: worker exited with code {code}")
        with open(result) as fh:
            out = json.load(fh)
        shutil.rmtree(tmpdir)
        return out

    def run(self, workload, trace) -> dict:
        """{"attempted", "failed", "metrics", ...} for one workload run."""
        self.deadline = time.monotonic() + DEADLINE_S
        cls = WORKLOADS[workload]
        need = metrics.estimate_peak_bytes(cls.largest_array_bytes())
        avail = read_mem_available()
        if not metrics.fits(cls.largest_array_bytes(), avail):
            return {"refused": f"estimated peak {need / 2**20:.0f} MB exceeds "
                               f"MemAvailable {avail / 2**20:.0f} MB",
                    "attempted": 1, "failed": 1, "metrics": {}}
        setups = [] if trace else [self.spawn(workload, trace, setup_only=True)["setup_s"]
                                   for _ in range(SETUP_SPAWNS)]
        main = self.spawn(workload, trace)
        setups.append(main["setup_s"])
        n_ops = len(main["latencies"])
        out = {"attempted": n_ops, "failed": main["failed"], "cycles": main["cycles"],
               "wall_s": main["wall_s"], "messages": main["messages"],
               "setup_samples": len(setups)}
        if trace:
            out["metrics"] = main["per_layer"]
            out["module_self_s"] = main["module_self_s"]
            out["called"] = main["called"]
            return out
        value, pct, beyond = metrics.tail(main["latencies"])
        out["tail"] = {"percentile": pct, "beyond": beyond, "samples": n_ops,
                       "cycles": main["cycles"]}
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": n_ops / main["wall_s"],
            "op_s_p50": metrics.median(main["latencies"]),
            "op_s_tail": value,
            "peak_rss_mb": main["peak_rss_mb"],
        }
        out["metrics"] = {name: {"value": values[name], "unit": unit}
                          for name, unit in END_TO_END}
        out["failed_frac"] = metrics.failed_frac(main["failed"], n_ops)
        return out


def report(workload, seed, trace, res) -> None:
    print(f"== {workload}  seed={seed}  trace={'on' if trace else 'off'}")
    if "refused" in res:
        print(f"   not started: {res['refused']}")
        return
    print(f"   {res['attempted']} ops in {res['cycles']} cycles, "
          f"timed phase {res['wall_s']:.2f} s")
    notes = {"setup_s": f"median of {res['setup_samples']} spawns"}
    if "tail" in res:
        t = res["tail"]
        notes["op_s_tail"] = (f"p{t['percentile']:.1f}, {t['beyond']} of "
                              f"{t['samples']} ops beyond, {t['cycles']} cycles")
    for name, m in res["metrics"].items():
        layer = name.rsplit(".", 1)[0]
        if trace and layer != "trace" and layer not in res["called"]:
            print(f"   {name:<44} {'n/a':>14} {m['unit']:<6} not called")
        else:
            print(f"   {name:<44} {m['value']:>14.6g} {m['unit']:<6} {notes.get(name, '')}")
    if trace:
        builds = res["metrics"]["frames.frame_operator.calls"]["value"]
        redundant = res["metrics"]["frames.frame_operator.redundant_builds"]["value"]
        ratio = f"{(builds - redundant) / builds:14.6g}" if builds else f"{'n/a':>14}"
        print(f"   {'frames.frame_operator.useful_ratio':<44} {ratio} {'1':<6} "
              f"distinct systems per build")
        op_s = res["metrics"]["trace.op_s"]["value"]
        print("   self time by module, share of timed op time:")
        for module, s in sorted(res["module_self_s"].items(), key=lambda kv: -kv[1]):
            print(f"     {module:<12} {s:10.4f} s  {100 * s / op_s:6.2f} %")
    else:
        print(f"   {'failed_frac':<44} {res['failed_frac']:>14.6g} {'1':<6} "
              f"{res['failed']} of {res['attempted']} ops")
    for msg in res["messages"]:
        print(f"   FAILED: {msg}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="default: 0 for one workload; both for all")
    args = ap.parse_args(argv)

    root = os.path.realpath(os.getcwd())
    if not os.path.isfile(os.path.join(root, "src", "gaborlab", "__init__.py")):
        print("error: run from the root of a gaborlab checkout (src/gaborlab "
              "is missing)", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.trace is not None:
        traces = [bool(args.trace)]
    else:
        traces = [False, True] if args.workload == "all" else [False]
    runner = Runner(root, args.seed, args.seconds)
    results = {}
    try:
        for name in names:
            for trace in traces:
                print("env " + json.dumps(environment(root, args.seed, trace),
                                          sort_keys=True))
                res = runner.run(name, trace)
                report(name, args.seed, trace, res)
                results[name, trace] = res
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(runner.tmp, ignore_errors=True)
        tmp_parent = os.path.dirname(runner.tmp)
        if os.path.isdir(tmp_parent) and not os.listdir(tmp_parent):
            os.rmdir(tmp_parent)

    for name in names:
        pair = [results.get((name, t), {}).get("metrics") for t in (False, True)]
        if all(pair):
            plain = pair[0]["ops_per_s"]["value"]
            traced = pair[1]["trace.ops_per_s"]["value"]
            print(f"== {name}: tracing overhead {100 * (1 - traced / plain):.1f} % "
                  f"of ops_per_s ({plain:.4g} untraced, {traced:.4g} traced)")

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if len(results) == 1:
        out_metrics = next(iter(results.values()))["metrics"]
    else:
        out_metrics = {f"{name}.{metric}": m for (name, _), r in results.items()
                       for metric, m in r["metrics"].items()}
        out_metrics.update({f"{name}.failed_frac": {"value": r["failed_frac"], "unit": "1"}
                            for (name, _), r in results.items() if "failed_frac" in r})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out_metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
