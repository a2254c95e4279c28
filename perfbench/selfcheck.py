#!/usr/bin/env python3
"""Smoke-sized self-check of the benchmark itself.

    python3 perfbench/selfcheck.py [--seed 1] [--seconds 2]

Run from the root of the source tree. It checks, for every workload in
BENCHMARK.json:

  * an untraced run is correct and emits exactly the end-to-end metrics,
    a traced run exactly the per-layer metrics, each with its unit;
  * per frame, the serial ledger's stage times (self plus nerf) sum to
    within 5% of the frame's serial wall time (bench.ledger_coverage);
  * the traced run's trace file is trace_event JSON whose spans carry
    name, start, duration, id, parent and frame, and every parent exists;

and, once: the core.* counts and sim.cycles_per_frame of two traced
runs of one seed repeat exactly, and the benchmark exits non-zero
without printing a result where only BENCHMARK.json and perfbench/ exist.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
EXACT = ["core.points_per_pixel", "core.budget_per_pixel", "core.probe_rays",
         "core.approx_share", "core.et_cut_share", "engine.tasks_per_frame",
         "sim.cycles_per_frame"]

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(workload, seed, seconds, trace, cwd=None):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=cwd,
                          timeout=900)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return proc.returncode, result


def check_metrics(tag, result, spec):
    got = result["metrics"]
    want = {m["name"]: m["unit"] for m in spec}
    check(set(got) == set(want), "%s emits exactly the named metrics%s" % (
        tag, "" if set(got) == set(want) else
        " (missing %s, extra %s)" % (sorted(set(want) - set(got)),
                                     sorted(set(got) - set(want)))))
    bad = [n for n in want if n in got and got[n]["unit"] != want[n]]
    check(not bad, "%s units match BENCHMARK.json %s" % (tag, bad or ""))


def check_trace(tag, path):
    try:
        with open(path) as f:
            events = json.load(f)["traceEvents"]
    except (OSError, ValueError, KeyError) as e:
        check(False, "%s trace loads (%s)" % (tag, e))
        return
    keys_ok = all({"name", "ts", "dur", "ph"} <= set(e) and
                  {"id", "parent", "frame"} <= set(e["args"]) for e in events)
    ids = {e["args"]["id"] for e in events}
    parents_ok = all(e["args"]["parent"] in ids or e["args"]["parent"] == 0
                     for e in events)
    check(bool(events) and keys_ok and parents_ok,
          "%s trace has %d well-formed spans" % (tag, len(events)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=2)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)

    traced = {}
    for w in (w["name"] for w in bench["workloads"]):
        code, res = run(w, args.seed, args.seconds, 0)
        check(code == 0 and res and res["correct"] and res["failed"] == 0,
              "%s untraced run is correct" % w)
        if res:
            check_metrics(w + " untraced", res, bench["end_to_end"])
        code, res = run(w, args.seed, args.seconds, 1)
        check(code == 0 and res and res["correct"] and res["failed"] == 0,
              "%s traced run is correct" % w)
        if not res:
            continue
        traced[w] = res
        check_metrics(w + " traced", res, bench["per_layer"])
        cov = res["metrics"].get("bench.ledger_coverage", {}).get("value", 0)
        check(0.95 <= cov <= 1.0 + 1e-9,
              "%s ledger stage times cover %.4f of the serial frame" % (w, cov))
        check_trace(w, os.path.join("perfbench", "out", "trace_%s_seed%d.json"
                                    % (w, args.seed)))

    first = next(iter(traced), None)
    if first:
        _, again = run(first, args.seed, args.seconds, 1)
        same = again and all(
            again["metrics"][k]["value"] == traced[first]["metrics"][k]["value"]
            for k in EXACT)
        check(bool(same), "%s core counts and simulated cycles repeat exactly"
              % first)

    bare = os.path.join("perfbench", "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("fields", "out"))
    shutil.copy("BENCHMARK.json", bare)
    w = bench["workloads"][0]["name"]
    code, res = run(w, args.seed, args.seconds, 0, cwd=bare)
    check(code != 0 and res is None,
          "without the source tree the benchmark fails (exit %d) and prints "
          "no result" % code)
    shutil.rmtree(bare, ignore_errors=True)

    print("%d check(s) failed" % len(failures) if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
