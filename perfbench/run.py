#!/usr/bin/env python3
"""Build and run one benchmark workload; print its result as JSON.

    python3 perfbench/run.py --workload rt_short --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first run configures and builds
perfbench/ (which builds the libraries under src/) in .bench_build/;
later runs rebuild only what changed. The last line of standard output
is the result: {"correct", "attempted", "failed", "metrics"}, where the
metrics are BENCHMARK.json's end_to_end set with --trace 0 and its
per_layer set with --trace 1. A per-layer metric of a layer the
workload does not exercise reads 0.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "trace")
RUN_TIMEOUT_S = 170


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout=None, **kw):
    """subprocess.run in a process group of its own, so that on a
    timeout, a signal or any other way out the whole group (cmake's
    compilers too) is killed and waited for."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        raise
    return subprocess.CompletedProcess(cmd, proc.returncode, out)


def build():
    """Configure once, then build the binaries; build output -> stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no src/ beside perfbench/: run from a full checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if run(cmd, stdout=sys.stderr).returncode != 0:
            die("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "--target", "perfbench",
           "perfbench_selftest", "-j", jobs]
    if run(cmd, stdout=sys.stderr).returncode != 0:
        die("build failed")


def shape(raw, spec, trace):
    """Select BENCHMARK.json's metrics for this mode from a raw run."""
    measured = dict(raw["metrics"])
    for name, value in raw["host"].items():
        measured[name] = {"value": value, "unit": "count" if name ==
                          "host_cpus" else "ratio"}
    errors = list(raw["errors"])
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        got = measured.get(m["name"])
        if got is None:
            if not trace:
                errors.append("end-to-end metric %s not measured" % m["name"])
                continue
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            errors.append("%s measured in %s, declared in %s"
                          % (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    for e in errors:
        print("perfbench: " + e, file=sys.stderr)
    return {"correct": bool(raw["correct"]) and not errors,
            "attempted": int(raw["attempted"]),
            "failed": int(raw["failed"]),
            "metrics": metrics}


def main():
    # A termination request unwinds through run(), which stops the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        die("--seconds must be at least 1")

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        die("unknown workload %r" % args.workload)

    build()
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%d" % args.seconds, "--trace=%d" % args.trace]
    if args.trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        cmd.append("--trace-dir=" + TRACE_DIR)
    try:
        proc = run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                   timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        die("perfbench exited with %d" % proc.returncode)
    raw = json.loads(lines[-1])
    # Host facts of every run, so an outlier can be explained.
    print("# host: " + json.dumps(raw["host"]))
    print(json.dumps(shape(raw, spec, args.trace)))


if __name__ == "__main__":
    main()
