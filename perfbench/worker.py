"""Workload child process: set up, run the timed closed loop, check outputs.

    python3 perfbench/worker.py WORKLOAD --seed S --seconds T --trace 0|1
        --spawned-at MONOTONIC --result PATH --tmpdir DIR [--setup-only]

Started by run.py, one process per workload run.  `--spawned-at` is the
parent's time.monotonic() just before the spawn (CLOCK_MONOTONIC is shared
by all processes), so setup time covers interpreter start, importing
gaborlab, building the workload and one untimed smallest-size op of each
op kind.  The result is written as JSON to PATH.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--tmpdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    # gaborlab prints experiment summaries to stdout; the parent owns stdout.
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)
    os.close(devnull)

    root = os.path.realpath(os.getcwd())
    sys.path.insert(0, os.path.join(root, "src"))
    import gaborlab
    if not os.path.realpath(gaborlab.__file__).startswith(root + os.sep):
        raise SystemExit(f"gaborlab imported from {gaborlab.__file__}, "
                         f"not from this checkout")

    from workloads import MIN_CYCLES, WORKLOADS, Record
    wl = WORKLOADS[args.workload](args.seed, args.tmpdir)
    for op in wl.warmup_ops():
        wl.prepare(op)
        wl.run(op)

    tracer = None
    if args.trace:
        import tracemalloc
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
        tracemalloc.start()

    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        _write(args.result, {"setup_s": setup_s})
        return 0

    records = []
    cycles = 0
    start = time.perf_counter()
    while True:
        for op in wl.cycle_ops(cycles, len(records)):
            wl.prepare(op)
            if tracer:
                tracer.op_id = op.index
                span = tracer.open(f"op.{op.kind}")
            t0 = time.perf_counter()
            try:
                rec = Record(op, 0.0, output=wl.run(op))
            except Exception:  # an op that raises counts as failed
                rec = Record(op, 0.0, error=traceback.format_exc(limit=3))
            rec.latency = time.perf_counter() - t0
            if tracer:
                tracer.close(span)
                tracer.op_id = None
            op.inputs = None  # outputs stay in rec.output for the checks
            records.append(rec)
        cycles += 1
        if cycles >= MIN_CYCLES and time.perf_counter() - start >= args.seconds:
            break
    wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"setup_s": setup_s, "cycles": cycles, "wall_s": wall,
              "latencies": [r.latency for r in records],
              "kinds": [r.op.kind for r in records],
              "peak_rss_mb": peak_rss_mb}
    if tracer:
        import tracemalloc
        tracemalloc.stop()
        tracer.uninstall()
        from spans import layer_metrics, module_self_s
        result["per_layer"] = layer_metrics(tracer.spans, len(records), wall)
        result["module_self_s"] = module_self_s(tracer.spans)
        result["called"] = sorted({s["name"] for s in tracer.spans})

    failed = {i for i, r in enumerate(records) if r.error is not None}
    messages = [f"op {r.op.index} ({r.op.kind}) raised:\n{r.error}"
                for r in records if r.error is not None]
    for indices, msg in wl.check(records):
        failed.update(indices)
        messages.append(msg)
    result["failed"] = len(failed)
    result["messages"] = messages[:20]
    _write(args.result, result)
    return 0


def _write(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh)


if __name__ == "__main__":
    sys.exit(main())
