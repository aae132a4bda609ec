#!/usr/bin/env python3
"""A/B runs of perfbench between two revisions, written to BENCH_ab.json.

Each side is a revision of this repository; the change side may have
commits reverted (a one-factor variant: --change HEAD --revert C runs the
tree without C against --base HEAD). Each is `git archive`d into its own
directory under --scratch and runs `perfbench/run.py` there, unchanged,
for BENCHMARK.json's run_seconds. For every workload the two sides run
--pairs alternating pairs at the given seeds (pair k uses seed k mod
len(seeds)); the side that runs first rotates from pair to pair.
--trace-pairs more pairs run with --trace 1 for the per-layer medians.

Usage:
  scripts/ab.py --base REV --change REV [--revert C ...]
      [--workloads W,...] [--pairs N] [--trace-pairs M] [--seeds N,...]
      [--scratch DIR] [--out BENCH_ab.json]
  scripts/ab.py --report BENCH_ab.json    # markdown tables of a result

An A/A run passes one revision as both sides; its interquartile ranges
and win counts are the noise band of the machine. When --out already
holds a result for the same two sides, the workloads run now replace or
join its entries, so workloads can run with different pair counts; when
it holds a result for other revisions, the script stops before running
anything, so a committed result is never overwritten. The script writes
only under --scratch and to --out.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("paper-suite", "campaign-large", "analyze", "service-mix")


def git(*args, stdin=None):
    return subprocess.run(["git", "-C", ROOT, *args], check=True,
                          stdout=subprocess.PIPE, input=stdin).stdout


def describe(rev, reverts):
    """The revision and reverted commits of one side, as recorded."""
    return {"rev": rev,
            "commit": git("rev-parse", rev).decode().strip(),
            "reverts": [git("rev-parse", c).decode().strip()
                        for c in reverts]}


def checkout(label, rev, reverts, scratch):
    """Archives rev into scratch/label and reverse-applies each revert;
    returns the directory."""
    path = os.path.join(scratch, label)
    if os.path.exists(path):
        shutil.rmtree(path)
    os.makedirs(path)
    archive = git("archive", "--format=tar", rev)
    subprocess.run(["tar", "-x", "-C", path], input=archive, check=True)
    for commit in reverts:
        patch = git("show", "--format=", "--binary", commit)
        subprocess.run(["git", "apply", "-R", "--whitespace=nowarn"],
                       cwd=path, input=patch, check=True)
    # Builds the perfbench program before any timed run.
    subprocess.run([sys.executable, "-c",
                    "import sys; sys.path.insert(0, 'perfbench'); "
                    "import run; run.build()"], cwd=path, check=True)
    return path


def run_once(path, workload, seed, seconds, trace):
    """One run.py invocation; returns (result line, digest)."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=path, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout[-4000:])
        raise SystemExit(f"ab: run.py failed in {path} ({workload}, "
                         f"seed {seed}, trace {trace})")
    digests = [line.split()[2] for line in lines
               if re.match(r"result digest \S+$", line)]
    if len(digests) != 1:
        sys.stderr.write(done.stdout[-4000:])
        raise SystemExit(f"ab: {len(digests)} result digest lines from "
                         f"run.py in {path} ({workload}, seed {seed})")
    return json.loads(lines[-1]), digests[0]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summary(values):
    q1, q3 = quartiles(values)
    return {"runs": values, "median": statistics.median(values),
            "q1": q1, "q3": q3, "iqr": q3 - q1}


def better(spec, a, b):
    """Whether b is better than a under spec's direction."""
    return b < a if spec["better"] == "lower" else b > a


def run_workload(sides, workload, args, specs):
    """The pairs of one workload; returns its BENCH_ab.json entry."""
    seeds = args.seeds
    runs = {"base": [], "change": []}
    traced = {"base": [], "change": []}
    digests = {"base": {}, "change": {}}
    first = []
    total = args.pairs + args.trace_pairs
    for k in range(total):
        trace = 1 if k >= args.pairs else 0
        seed = seeds[k % len(seeds)]
        order = ("base", "change") if k % 2 == 0 else ("change", "base")
        if not trace:
            first.append(order[0])
        for side in order:
            line, digest = run_once(sides[side]["path"], workload, seed,
                                    specs["run_seconds"], trace)
            (traced if trace else runs)[side].append(line)
            key = f"{seed}t" if trace else str(seed)  # a traced run's key
            digests[side].setdefault(key, set()).add(digest)
            print(f"ab: {workload} pair {k + 1}/{total} trace={trace} "
                  f"{side} seed={seed} failed={line['failed']}",
                  file=sys.stderr, flush=True)
    metrics = {}
    for spec in specs["end_to_end"]:
        name = spec["name"]
        values = {side: [r["metrics"][name]["value"] for r in runs[side]]
                  for side in runs}
        wins = sum(better(spec, a, b)
                   for a, b in zip(values["base"], values["change"]))
        entry = {"unit": spec["unit"], "better": spec["better"],
                 "bound": spec.get("bound"), "wins": wins,
                 "base": summary(values["base"]),
                 "change": summary(values["change"])}
        base_median = entry["base"]["median"]
        entry["delta"] = (entry["change"]["median"] / base_median - 1.0
                          if base_median else None)
        metrics[name] = entry
    layers = {}
    for spec in specs["per_layer"]:
        name = spec["name"]
        layers[name] = {
            "unit": spec["unit"],
            **{side: statistics.median(
                r["metrics"][name]["value"] for r in traced[side])
               for side in traced if traced[side]}}
    digest_sets = {side: {seed: sorted(d) for seed, d in digests[side].items()}
                   for side in digests}
    match = all(len(digest_sets["base"].get(seed, [])) == 1 and
                digest_sets["base"][seed] == digest_sets["change"].get(seed)
                for seed in set(digest_sets["base"]) | set(
                    digest_sets["change"]))
    return {"pairs": args.pairs, "trace_pairs": args.trace_pairs,
            "seeds": [seeds[k % len(seeds)] for k in range(total)],
            "first": first,
            "failed": {side: sum(r["failed"] for r in runs[side] +
                                 traced[side]) for side in runs},
            "digests": digest_sets, "digests_match": match,
            "metrics": metrics, "layers": layers}


def report(path):
    """Prints the markdown tables of a BENCH_ab.json."""
    with open(path) as handle:
        result = json.load(handle)
    print(f"base `{result['base']['commit'][:7]}`"
          + "".join(f" − `{c[:7]}`" for c in result["base"]["reverts"])
          + f", change `{result['change']['commit'][:7]}`"
          + "".join(f" − `{c[:7]}`" for c in result["change"]["reverts"])
          + f"; {result['seconds']:g}-s runs\n")
    print("| workload | metric | base median (IQR) | change median (IQR) "
          "| Δ | wins | digests | failed |")
    print("|---|---|---|---|---|---|---|---|")
    for workload, entry in result["workloads"].items():
        for name, m in entry["metrics"].items():
            b, c = m["base"], m["change"]
            delta = "" if m["delta"] is None else f"{100 * m['delta']:+.1f}%"
            print(f"| {workload} | {name} | {b['median']:.4g} "
                  f"({b['iqr']:.3g}) | {c['median']:.4g} ({c['iqr']:.3g}) "
                  f"| {delta} | {m['wins']}/{len(b['runs'])} "
                  f"| {'equal' if entry['digests_match'] else 'DIFFER'} "
                  f"| {entry['failed']['base']}/{entry['failed']['change']} |")
    for workload, entry in result["workloads"].items():
        if not entry["trace_pairs"]:
            continue
        print(f"\n{workload}, traced medians of {entry['trace_pairs']} "
              "pairs:\n")
        print("| layer | base | change |")
        print("|---|---|---|")
        for name, layer in entry["layers"].items():
            # A layer the workload never enters reads 0 on both sides.
            if "base" in layer and (layer["base"] or layer["change"]):
                print(f"| {name} | {layer['base']:.4g} | "
                      f"{layer['change']:.4g} |")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base")
    parser.add_argument("--change")
    parser.add_argument("--revert", nargs="*", default=[])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--pairs", type=int, default=3)
    parser.add_argument("--trace-pairs", type=int, default=1)
    parser.add_argument("--seeds", default="8101,8102,8103")
    parser.add_argument("--scratch", default="/tmp/ferrum-ab")
    parser.add_argument("--out", default="BENCH_ab.json")
    parser.add_argument("--report")
    args = parser.parse_args()
    if args.report:
        report(args.report)
        return
    if not args.base or not args.change:
        parser.error("--base and --change are required")
    args.seeds = [int(s) for s in args.seeds.split(",")]
    workloads = args.workloads.split(",")
    for workload in workloads:
        if workload not in WORKLOADS:
            parser.error(f"unknown workload {workload}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        specs = json.load(handle)
    result = {"schema": "ferrum.ab.v1",
              "base": describe(args.base, []),
              "change": describe(args.change, args.revert),
              "seconds": specs["run_seconds"], "started": time.strftime(
                  "%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
              "workloads": {}}
    if os.path.exists(args.out):
        with open(args.out) as handle:
            earlier = json.load(handle)
        if not all(earlier.get(k) == result[k]
                   for k in ("schema", "base", "change", "seconds")):
            raise SystemExit(f"ab: {args.out} holds a result for other "
                             "revisions; pass another --out")
        result["workloads"] = earlier["workloads"]
    sides = {"base": {"path": checkout("base", args.base, [],
                                       args.scratch)},
             "change": {"path": checkout("change", args.change,
                                         args.revert, args.scratch)}}
    for workload in workloads:
        result["workloads"][workload] = run_workload(sides, workload, args,
                                                     specs)
        with open(args.out, "w") as handle:  # partial results survive a cut
            json.dump(result, handle, indent=1)
            handle.write("\n")
    report(args.out)


if __name__ == "__main__":
    main()
