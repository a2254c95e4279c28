#!/usr/bin/env python3
"""Report mode: run the benchmark over a set of seeds and summarise.

    python3 perfbench/report.py --workloads render_asdr,serve_wire --seeds 1-5
    python3 perfbench/report.py --seeds 1-10 --traced   # per-layer too

For every workload and metric it prints the median, first and third
quartiles (statistics.quantiles(values, n=4)), the sample count, the
unit, and the quartile spread as a share of the median next to the
metric's bound from BENCHMARK.json. With --traced it also runs each
seed traced and reports the per-layer metrics, bench.trace_overhead
among them. Every run's result line is appended to --out (JSON lines)
with its provenance, so a report can be recomputed or compared later.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    result = json.loads(lines[-1]) if lines else None
    prov = None
    for line in lines[:-1]:
        try:
            obj = json.loads(line)
        except ValueError:
            continue
        if isinstance(obj, dict) and "provenance" in obj:
            prov = obj["provenance"]
    return proc.returncode, result, prov


def summarise(values):
    values = sorted(values)
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / abs(med) if med else float("nan")
    return med, q1, q3, spread


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default="render_asdr,render_baseline,serve_wire")
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", type=float, default=None,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--traced", action="store_true",
                    help="also run each seed traced (per-layer metrics)")
    ap.add_argument("--out", default=os.path.join("perfbench", "out",
                                                  "report.jsonl"))
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    os.makedirs(os.path.dirname(args.out), exist_ok=True)

    failed_runs = 0
    traces = [0, 1] if args.traced else [0]
    for workload in args.workloads.split(","):
        for trace in traces:
            values, units = {}, {}
            for seed in parse_seeds(args.seeds):
                code, result, prov = run_once(workload, seed, seconds, trace)
                with open(args.out, "a") as f:
                    f.write(json.dumps({"workload": workload, "seed": seed,
                                        "trace": trace, "exit": code,
                                        "result": result,
                                        "provenance": prov}) + "\n")
                if code != 0 or not result or not result.get("correct"):
                    failed_runs += 1
                    print("FAILED run: %s seed %d trace %d (exit %d)"
                          % (workload, seed, trace, code), flush=True)
                    if not result:
                        continue
                for name, m in result["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
                    units[name] = m["unit"]
            print("\n== %s (%s, %g s runs)" % (
                workload, "traced" if trace else "untraced", seconds))
            print("%-32s %-7s %3s %14s %14s %14s %8s %6s" % (
                "metric", "unit", "n", "median", "q1", "q3", "spread",
                "bound"))
            for name, vals in values.items():
                med, q1, q3, spread = summarise(vals)
                bound = bounds.get(name) if not trace else None
                flag = ""
                if bound is not None and spread > bound / 3:
                    flag = "  > bound/3" if spread <= bound else "  > BOUND"
                print("%-32s %-7s %3d %14.6g %14.6g %14.6g %8.4f %6s%s" % (
                    name, units[name], len(vals), med, q1, q3, spread,
                    "" if bound is None else "%.3g" % bound, flag),
                    flush=True)
    return 1 if failed_runs else 0


if __name__ == "__main__":
    sys.exit(main())
