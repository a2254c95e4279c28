#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload render_asdr --seed 1 --seconds 32 --trace 0

Run from the root of the source tree. The script builds the measuring
program (perfbench/src, linked against the asdr library built from
./src) into .bench_build/perfbench, fits the workload's fields for the
seed when they are not stored yet (perfbench/fields), runs the workload
and relays its output. The line before the last is the run's
provenance; the last line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
and writes a Perfetto-loadable trace to perfbench/out/. The exit status
is non-zero when the build, the fit or any correctness check fails.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOAD_SCENES = {
    "render_asdr": ["Lego"],
    "render_baseline": ["Lego"],
    "serve_wire": ["Lego", "Chair"],
}
# A run must end within 180 s; keep a margin for start-up and relaying.
RUN_DEADLINE_S = 170.0


def log(*args):
    print("perfbench:", *args, file=sys.stderr, flush=True)


def host_threads():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(root, "perfbench")


def build():
    """Configure once, then (re)build the measuring program. Returns its
    path, or None when the build fails."""
    bdir = build_dir()
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    cmd = ["cmake", "--build", bdir, "--target", "asdr_perfbench",
           "-j", str(host_threads())]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(bdir, "asdr_perfbench")


def fit(exe, scenes, seed, fields_dir):
    """Fit the scenes' fields in parallel (a stored field is kept)."""
    os.makedirs(fields_dir, exist_ok=True)
    procs = [subprocess.Popen([exe, "fit", "--scene", s, "--seed", str(seed),
                               "--fields-dir", fields_dir],
                              stdout=sys.stderr)
             for s in scenes]
    codes = [p.wait() for p in procs]
    return all(c == 0 for c in codes)


def cmake_cache(bdir):
    cache = {}
    try:
        with open(os.path.join(bdir, "CMakeCache.txt")) as f:
            for line in f:
                m = re.match(r"^([A-Za-z_]+):[A-Z]+=(.*)$", line.strip())
                if m:
                    cache[m.group(1)] = m.group(2)
    except OSError:
        pass
    return cache


def compiler_version(cache):
    cxx = cache.get("CMAKE_CXX_COMPILER")
    if not cxx:
        return None
    try:
        out = subprocess.run([cxx, "--version"], capture_output=True,
                             text=True, timeout=10).stdout
        return out.splitlines()[0] if out else cxx
    except (OSError, subprocess.TimeoutExpired):
        return cxx


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_sha():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                           text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def tree_sha256(paths):
    """Content hash of the measured sources (the checkout the benchmark
    runs in need not be a git repository)."""
    h = hashlib.sha256()
    files = []
    for p in paths:
        if os.path.isfile(p):
            files.append(p)
        for d, _, names in os.walk(p):
            files.extend(os.path.join(d, n) for n in names)
    for f in sorted(files):
        h.update(f.encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def provenance(args, threads):
    cache = cmake_cache(build_dir())
    return {
        "git_sha": git_sha(),
        "source_sha256": tree_sha256(["src", "CMakeLists.txt", "perfbench/src",
                                      "perfbench/CMakeLists.txt"]),
        "nproc": threads,
        "cpu_model": cpu_model(),
        "compiler": compiler_version(cache),
        "build_type": cache.get("CMAKE_BUILD_TYPE"),
        "asdr_native_arch": cache.get("ASDR_NATIVE_ARCH", "OFF"),
        "asdr_env": {k: v for k, v in sorted(os.environ.items())
                     if k.startswith("ASDR_")},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOAD_SCENES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        log("run from the root of the asdr source tree (no ./src here)")
        return 2
    exe = build()
    if exe is None:
        log("build failed")
        return 3
    fields_dir = os.path.join("perfbench", "fields")
    if not fit(exe, WORKLOAD_SCENES[args.workload], args.seed, fields_dir):
        log("fitting the workload's fields failed")
        return 3

    threads = host_threads()
    cmd = [exe, "run", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--fields-dir", fields_dir]
    if args.trace:
        out_dir = os.path.join("perfbench", "out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            out_dir, "trace_%s_seed%d.json" % (args.workload, args.seed))]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_DEADLINE_S)
    except subprocess.TimeoutExpired:
        log("workload did not finish within %.0f s" % RUN_DEADLINE_S)
        return 4
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines:
        log("workload printed no result (exit %d)" % proc.returncode)
        return proc.returncode or 5
    prov = provenance(args, threads)
    prov["run_s"] = time.monotonic() - start
    for line in lines[:-1]:
        print(line)
    print(json.dumps({"provenance": prov}))
    print(lines[-1], flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
