"""Run the benchmark repeatedly and record a baseline, or check run-to-run spread.

    python3 perfbench/baseline.py                  # writes perfbench/BENCH_baseline.json
    python3 perfbench/baseline.py --workload gabor-frames --runs 5 --out -

Run from the root of a checkout.  For each workload, runs the command in
BENCHMARK.json `--runs` times untraced, with seeds 1..runs, and once
traced (seed 1).  For every end-to-end metric it reports the median, the
quartiles from statistics.quantiles(values, n=4) and the spread
(q3 - q1) / median next to the metric's bound.  Exits 1 if any op
failed or any spread exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(spec, workload, seed, trace) -> tuple:
    """(env, result) parsed from one run of the benchmark command."""
    argv = [sys.executable if spec["command"][0] == "python3" else spec["command"][0],
            *spec["command"][1:], "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} seed {seed}: no output; stderr:\n{proc.stderr}")
    env = next((json.loads(ln[4:]) for ln in lines if ln.startswith("env ")), None)
    return env, json.loads(lines[-1])


def summarise(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main() -> int:
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=names, action="append")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--out", default=os.path.join(HERE, "BENCH_baseline.json"),
                    help="'-' to write nothing")
    args = ap.parse_args()

    ok = True
    baseline = {"run_seconds": spec["run_seconds"], "runs": args.runs, "workloads": {}}
    for wl in spec["workloads"]:
        if args.workload and wl["name"] not in args.workload:
            continue
        results = []
        for seed in range(1, args.runs + 1):
            env, res = run_once(spec, wl["name"], seed, 0)
            baseline.setdefault("env", env)
            results.append(res)
            print(f"{wl['name']} seed {seed}: " + ", ".join(
                f"{k}={m['value']:.5g}" for k, m in res["metrics"].items()), flush=True)
        entry = {"why": wl["why"],
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "end_to_end": {}}
        ok = ok and entry["failed"] == 0
        for metric in spec["end_to_end"]:
            name = metric["name"]
            s = summarise([r["metrics"][name]["value"] for r in results])
            s.update(unit=metric["unit"], better=metric["better"], bound=metric["bound"])
            entry["end_to_end"][name] = s
            within = s["spread"] <= metric["bound"]
            ok = ok and within
            print(f"  {name:<12} median {s['median']:<12.6g} {metric['unit']:<6} "
                  f"spread {100 * s['spread']:6.2f} %  bound {100 * metric['bound']:.0f} %"
                  f"  ({'below a third' if s['spread'] < metric['bound'] / 3 else 'WIDE' if not within else 'within'})")
        if args.out != "-":
            _, traced = run_once(spec, wl["name"], 1, 1)
            entry["per_layer"] = {k: m["value"] for k, m in traced["metrics"].items()}
            entry["traced_failed"] = traced["failed"]
        baseline["workloads"][wl["name"]] = entry

    if args.out != "-":
        with open(args.out, "w") as fh:
            json.dump(baseline, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
