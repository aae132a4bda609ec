#!/usr/bin/env python3
"""Runs one perfbench workload and prints its result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
        --trace <0|1>

Run from the root of a checkout. The first run builds the perfbench program
from the checkout's sources (perfbench/CMakeLists.txt) into .bench_build;
later runs rebuild only what changed. The program prints its report, then
this script prints one JSON line:
{"correct", "attempted", "failed", "metrics"} with the end-to-end metrics
of BENCHMARK.json (--trace 0) or its per-layer metrics (--trace 1).
"""
import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper-suite", "campaign-large", "analyze", "service-mix")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    return os.path.join(ROOT, ".bench_build", "perfbench")


def run_quiet(command):
    """Runs a build step; shows its output only when it fails."""
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stdout[-4000:])
        fail(f"build step failed: {' '.join(command)}")


def configured_for(cache):
    """The source directory a CMakeCache.txt was configured for."""
    with open(cache) as handle:
        for line in handle:
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                return line.split("=", 1)[1].strip()
    return None


def build():
    """Configures and builds the perfbench program; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "pipeline", "pipeline.h")):
        fail(f"no ferrum sources under {os.path.join(ROOT, 'src')}")
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    # Concurrent runs in one checkout share the build; one builds at a time.
    with open(bdir + ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        cache = os.path.join(bdir, "CMakeCache.txt")
        if os.path.isfile(cache) and configured_for(cache) != HERE:
            shutil.rmtree(bdir)  # configured in a checkout since moved
        if not os.path.isfile(cache):
            run_quiet(["cmake", "-S", HERE, "-B", bdir,
                       "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        jobs = str(min(4, os.cpu_count() or 1))
        run_quiet(["cmake", "--build", bdir, "-j", jobs])
    return os.path.join(bdir, "perfbench")


def run_program(binary, args):
    """Runs the program for one workload; returns its result object."""
    out_dir = os.path.join(build_dir(), "run")
    os.makedirs(out_dir, exist_ok=True)
    # Relative to the checkout root (the program's working directory), so the
    # daemon's unix socket path stays short.
    out_dir = os.path.relpath(out_dir, ROOT)
    result_path = os.path.join(out_dir, f"result-{os.getpid()}.json")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--result", result_path, "--out-dir", out_dir]
    # The library reads FERRUM_* knobs from the environment; the benchmark
    # runs with their defaults.
    env = {k: v for k, v in os.environ.items() if not k.startswith("FERRUM_")}
    sys.stdout.flush()
    process = subprocess.Popen(command, cwd=ROOT, env=env)
    try:
        code = process.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        fail(f"perfbench did not finish within {RUN_TIMEOUT_S} s")
    if code != 0:
        fail(f"perfbench exited with code {code}")
    try:
        with open(os.path.join(ROOT, result_path)) as handle:
            result = json.load(handle)
    finally:
        if os.path.exists(os.path.join(ROOT, result_path)):
            os.remove(os.path.join(ROOT, result_path))
    return result


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return spec["per_layer" if trace else "end_to_end"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    expected = expected_metrics(args.trace)
    result = run_program(build(), args)
    metrics = {}
    for spec in expected:
        got = result["metrics"].get(spec["name"])
        if got is None or got["unit"] != spec["unit"]:
            fail(f"perfbench did not report {spec['name']} in {spec['unit']}")
        metrics[spec["name"]] = {"value": got["value"], "unit": got["unit"]}
    line = {"correct": bool(result["correct"]) and result["failed"] == 0,
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": metrics}
    print(json.dumps(line))


if __name__ == "__main__":
    main()
