#!/usr/bin/env python3
"""Self-test of the perfbench benchmark at tiny sizes.

    python3 perfbench/selftest.py

Builds the perfbench program like run.py does, then checks that
  * every workload, untraced and traced, prints each metric BENCHMARK.json
    names, and each further metric below, with its unit, fails no cell and
    prints a result digest, and that a second untraced run prints the same
    digest (checked for the batch workloads; service-mix's may differ while
    IR-EDDI and HYBRID builds are not reproducible, see README.md);
  * the output checks count failed cells: a wrong reference output must fail
    cells, and so must a disk cache entry corrupted between two daemon
    lifetimes (a store that verifies its entries may instead answer the
    corrupted key as a miss, which then passes the byte comparison);
  * run.py exits with an error, printing no result, in a directory holding
    only BENCHMARK.json and perfbench/.
Exits 0 when every check passes.
"""
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run as perfbench  # noqa: E402  (run.py in this directory)

# End-to-end metrics printed but not in the result line, with their units.
WORKLOAD_METRICS = {
    "paper-suite": {"setup_s.first": "s", "cell_ms.p50": "ms",
                    "ferrum_overhead_pct": "%"},
    "campaign-large": {"setup_s.first": "s", "cell_ms.p50": "ms"},
    "analyze": {"setup_s.first": "s", "cell_ms.p50": "ms"},
    "service-mix": {"setup_s.first": "s", "cell_ms.p50": "ms",
                    "hit_ms.p50": "ms", "hit_ms.tail": "ms",
                    "miss_ms.p50": "ms", "miss_ms.tail": "ms",
                    "mix.memory_hits": "ratio", "mix.disk_hits": "ratio",
                    "mix.golden_reuse": "ratio", "mix.pruned": "ratio",
                    "mix.adaptive": "ratio", "mix.inline": "ratio"},
}

# Printed by untraced runs only: the gated metrics as measured, before
# they are scaled to the reference speed, and that speed (machine.h).
UNTRACED_METRICS = {"setup_s.measured": "s", "cells_per_s.measured": "1/s",
                    "machine.ref_ms": "ms", "machine.factor": "ratio"}

failures = []


def check(condition, what):
    print(f"{'ok  ' if condition else 'FAIL'} {what}")
    if not condition:
        failures.append(what)


def run_tiny(binary, workload, trace, inject=None, seed=7):
    """Runs one tiny workload; returns (result object, stdout)."""
    out_dir = os.path.relpath(os.path.join(perfbench.build_dir(), "run"),
                              perfbench.ROOT)
    os.makedirs(os.path.join(perfbench.ROOT, out_dir), exist_ok=True)
    result_path = os.path.join(out_dir, f"selftest-{os.getpid()}.json")
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", "1", "--trace", str(trace), "--tiny",
               "--result", result_path, "--out-dir", out_dir]
    if inject:
        command += ["--inject", inject]
    done = subprocess.run(command, cwd=perfbench.ROOT, capture_output=True,
                          text=True, timeout=perfbench.RUN_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        return None, done.stdout
    path = os.path.join(perfbench.ROOT, result_path)
    with open(path) as handle:
        result = json.load(handle)
    os.remove(path)
    return result, done.stdout


def printed(stdout, tag, name, unit):
    pattern = rf"^{tag}\s+{re.escape(name)}\s+\S+\s+{re.escape(unit)}(\s|$)"
    return re.search(pattern, stdout, re.MULTILINE) is not None


def check_workload(binary, spec, workload):
    digests = []
    for trace in (0, 0, 1):
        result, stdout = run_tiny(binary, workload, trace)
        label = f"{workload} trace={trace}"
        check(result is not None, f"{label}: exits 0")
        if result is None:
            continue
        check(result["attempted"] >= 1 and result["failed"] == 0 and
              result["correct"], f"{label}: cells attempted, none failed")
        expected = spec["per_layer" if trace else "end_to_end"]
        for metric in expected:
            got = result["metrics"].get(metric["name"])
            check(got is not None and got["unit"] == metric["unit"] and
                  printed(stdout, "layer" if trace else "metric",
                          metric["name"], metric["unit"]),
                  f"{label}: {metric['name']} [{metric['unit']}]")
        check(set(result["metrics"]) == {m["name"] for m in expected},
              f"{label}: no metrics beyond BENCHMARK.json")
        extra = dict(WORKLOAD_METRICS[workload])
        if not trace:
            extra.update(UNTRACED_METRICS)
        for name, unit in extra.items():
            got = result["info"].get(name)
            check(got is not None and got["unit"] == unit and
                  printed(stdout, "metric", name, unit),
                  f"{label}: {name} [{unit}]")
        check(re.search(r"^result digest [0-9a-f]{64}$", stdout,
                        re.MULTILINE) is not None, f"{label}: digest printed")
        if not trace:
            digests.append(result["digest"])
        if trace:
            spans = os.path.join(perfbench.build_dir(), "run",
                                 f"spans-{workload}-7.json")
            with open(spans) as handle:
                tree = json.load(handle)
            check(len(tree) > 0 and all(
                {"name", "start_us", "end_us", "parent", "cell"} <= set(s)
                for s in tree), f"{label}: spans written")
            os.remove(spans)
    same = len(digests) == 2 and digests[0] == digests[1]
    if workload == "service-mix":
        print(f"info service-mix: two runs' digests "
              f"{'agree' if same else 'differ'}")
    else:
        check(same, f"{workload}: two runs print the same digest")


def check_injections(binary):
    for workload in WORKLOAD_METRICS:
        result, _ = run_tiny(binary, workload, 0, inject="wrong-reference")
        check(result is not None and result["failed"] >= 1 and
              not result["correct"],
              f"{workload}: a wrong reference output fails cells")
    result, _ = run_tiny(binary, "service-mix", 0, inject="corrupt-cache")
    if result is None:
        check(False, "service-mix: corrupted cache run exits 0")
        return
    info = {k: v["value"] for k, v in result["info"].items()}
    requests = info.get("corrupted_requests", 0)
    hits = info.get("corrupted_hits", 0)
    check(info.get("corrupted_entries", 0) >= 1 and requests >= 1,
          "service-mix: corrupted entries are asked for again")
    if hits > 0:
        check(result["failed"] >= hits and not result["correct"],
              f"service-mix: {hits:g} corrupted disk hits counted as failed")
    else:
        check(result["failed"] == 0,
              "service-mix: the store answered corrupted keys as misses")


def check_bare_directory():
    """run.py must fail without the sources it builds from."""
    bare = os.path.join(perfbench.build_dir(), "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(perfbench.ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "analyze",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    last = (done.stdout.strip().splitlines() or [""])[-1]
    check(done.returncode != 0 and not last.startswith("{"),
          "run.py fails without printing a result when src/ is missing")
    shutil.rmtree(bare, ignore_errors=True)


def main():
    with open(os.path.join(perfbench.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    binary = perfbench.build()
    for workload in (w["name"] for w in spec["workloads"]):
        check_workload(binary, spec, workload)
    check_injections(binary)
    check_bare_directory()
    print(f"{len(failures)} failed checks")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
