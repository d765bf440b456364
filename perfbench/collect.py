"""Run the benchmark over several seeds and summarise its metrics.

    python3 perfbench/collect.py [--seeds 10] [--workload NAME ...] [--trace]
                                 [--out perfbench/baseline.json]

Runs the command in BENCHMARK.json once per workload and seed (0, 1, ...), with
BENCHMARK.json's run_seconds.  For each end-to-end metric it prints the
median, the quartiles (statistics.quantiles, n=4) and the spread, the
distance between the quartiles as a share of the median, against the
metric's bound.  --trace adds one traced run per workload (first seed).
--out writes the summary as JSON; the "predictions" entry of an existing
file is kept.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["report"] = lines[:-1]
    return result


def summarise(values: list[float], bound: float) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else float("inf")
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = list(range(args.seeds))
    summary: dict = {"end_to_end": {}, "per_layer": {}, "runs": {}}
    for w in workloads:
        runs = []
        for seed in seeds:
            r = run_once(spec, w, seed, 0)
            runs.append({"seed": seed, "correct": r["correct"], "attempted": r["attempted"],
                         "failed": r["failed"],
                         "metrics": {k: v["value"] for k, v in r["metrics"].items()}})
            print(f"{w} seed={seed} correct={r['correct']} attempted={r['attempted']} "
                  f"failed={r['failed']} " + " ".join(f"{k}={v['value']:.5g}"
                                                      for k, v in r["metrics"].items()),
                  flush=True)
        summary["runs"][w] = runs
        summary["end_to_end"][w] = {}
        for m in spec["end_to_end"]:
            s = summarise([r["metrics"][m["name"]] for r in runs], m["bound"])
            summary["end_to_end"][w][m["name"]] = {**s, "unit": m["unit"]}
            flag = "ok" if s["spread"] <= m["bound"] else "OVER BOUND"
            print(f"  {w} {m['name']}: median {s['median']:.5g} {m['unit']}, "
                  f"spread {s['spread']:.3f} (bound {m['bound']}) {flag}", flush=True)
        if args.trace:
            r = run_once(spec, w, seeds[0], 1)
            summary["per_layer"][w] = {"seed": seeds[0], "report": r["report"],
                                       "metrics": {k: v["value"] for k, v in r["metrics"].items()}}
    if args.out:
        old = {}
        if os.path.exists(args.out):
            with open(args.out, encoding="utf-8") as fh:
                old = json.load(fh)
        summary["provenance"] = {"python": platform.python_version(), "nproc": os.cpu_count(),
                                 "seeds": seeds, "run_seconds": spec["run_seconds"],
                                 "command": spec["command"]}
        summary["workloads"] = spec["workloads"]
        summary["predictions"] = old.get("predictions", [])
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
