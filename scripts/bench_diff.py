#!/usr/bin/env python3
"""Warn-only throughput regression table for the bench artifacts.

Compares the BENCH_<name>.json artifacts a bench_smoke run leaves in the
build tree against the committed baselines in bench/baselines.json and
prints a table. Throughput lives in the artifacts' `wallclock` sections,
which are scheduling- and machine-dependent by design — so this is a
tripwire, not a gate: the exit status is always 0 and ci.sh treats the
output as informational. A metric only earns a SLOWER flag when it falls
below baseline * (1 - tolerance), or, for a lower-is-better metric such
as a time, when it rises above baseline * (1 + tolerance); the default
tolerance is generous because the smoke knobs (FERRUM_TRIALS=4) time
very short runs.

Usage:
  scripts/bench_diff.py [--bench-dir DIR] [--baselines FILE]
  scripts/bench_diff.py --update   # rewrite baseline values from DIR

Baseline schema (bench/baselines.json):
  {
    "tolerance": 0.5,
    "metrics": [
      {"bench": "bench_vm",
       "path": "wallclock/campaign_throughput/ferrum/ckpt_trials_per_second",
       "value": 600.0},
      {"bench": "bench_vm",
       "path": "wallclock/audit/ferrum/median_audit_seconds",
       "value": 0.01, "better": "lower"},
      ...
    ]
  }
A metric is higher-is-better unless it carries "better": "lower";
--update rewrites only the values.
"""

import argparse
import json
import os
import sys


def lookup(doc, path):
    node = doc
    for part in path.split("/"):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node if isinstance(node, (int, float)) and not isinstance(
        node, bool) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench-dir",
                        default="build/bench/bench_smoke_out",
                        help="directory holding BENCH_<name>.json artifacts")
    parser.add_argument("--baselines", default="bench/baselines.json")
    parser.add_argument("--update", action="store_true",
                        help="rewrite baseline values from the artifacts")
    args = parser.parse_args()

    try:
        with open(args.baselines) as fh:
            baselines = json.load(fh)
    except (OSError, ValueError) as err:
        print(f"bench_diff: cannot read {args.baselines}: {err}")
        return 0

    tolerance = float(baselines.get("tolerance", 0.5))
    artifacts = {}

    def artifact(name):
        if name not in artifacts:
            path = os.path.join(args.bench_dir, f"BENCH_{name}.json")
            try:
                with open(path) as fh:
                    artifacts[name] = json.load(fh)
            except (OSError, ValueError):
                artifacts[name] = None
        return artifacts[name]

    rows = []
    slower = 0
    for metric in baselines.get("metrics", []):
        bench, path = metric["bench"], metric["path"]
        doc = artifact(bench)
        current = lookup(doc, path) if doc is not None else None
        base = metric.get("value")
        if args.update:
            if current is not None:
                metric["value"] = current
            continue
        if current is None:
            rows.append((bench, path, base, None, "missing"))
            continue
        if base is None or base <= 0:
            rows.append((bench, path, base, current, "no-base"))
            continue
        ratio = current / base
        if metric.get("better", "higher") == "lower":
            worse, better = ratio > 1.0 + tolerance, ratio < 1.0 - tolerance
        else:
            worse, better = ratio < 1.0 - tolerance, ratio > 1.0 + tolerance
        if worse:
            status = "SLOWER"
            slower += 1
        elif better:
            status = "faster"
        else:
            status = "ok"
        rows.append((bench, path, base, current, status))

    if args.update:
        with open(args.baselines, "w") as fh:
            json.dump(baselines, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"bench_diff: baselines rewritten from {args.bench_dir}")
        return 0

    print(f"bench metrics vs baselines (tolerance {tolerance:.0%}, "
          "warn-only):")
    print(f"{'bench':<18} {'metric':<52} {'baseline':>10} {'current':>10} "
          f"{'status':>8}")
    def show(value):
        if not isinstance(value, (int, float)):
            return "-"
        # Sub-unit values (times in seconds) keep three significant digits.
        return f"{value:.1f}" if abs(value) >= 1 else f"{value:.3g}"

    for bench, path, base, current, status in rows:
        metric = path.split("/", 1)[-1]
        print(f"{bench:<18} {metric:<52} {show(base):>10} {show(current):>10} "
              f"{status:>8}")
    if slower:
        print(f"bench_diff: {slower} metric(s) slower than baseline "
              "(warn-only; rebaseline with --update if intentional)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
