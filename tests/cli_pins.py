#!/usr/bin/env python3
"""Pins the static-analysis commands of ferrumc byte for byte.

Runs `lint`, `lint --lint=json`, `sites` and `plan` on the committed
fixtures and compares each run's exit status and the SHA-256 of its
stdout against the table below. These commands choose which analyses to
run and which reports to reuse, so a change to that wiring must not move
one byte; a deliberate change to an analysis or its JSON updates the
table.

Usage: cli_pins.py <ferrumc binary> <fixtures directory>
"""
import hashlib
import os
import subprocess
import sys

# (subcommand, input, flags, exit status, stdout sha256)
PINS = [
    ("lint", "fib.c", ["--tech=none"], 0,
     "50c94d69b75a8d022fa1ebd60ff8fd22b153e50d31a080e48e1303020f172d7c"),
    ("lint", "fib.c", ["--tech=ferrum"], 0,
     "9a46f0089f761a64ccca3171dd90500383fbeb35cf6de36556045d989a7d9a8d"),
    ("lint", "fib.c", ["--tech=none", "--lint=json"], 0,
     "850f23a2c887c27928660c498af6db4ef3231c20e359fdbd27029992201ab7f2"),
    ("lint", "fib.c", ["--tech=ferrum", "--lint=json"], 0,
     "40315cca77d05ebe63fc4e2084b1a5d55d074adea55f5eafb9f77ec99f374777"),
    ("sites", "fib.c", ["--tech=none"], 0,
     "083956445db85dfe6ed501f914e5b864257db87891ad3784a5d90811c75566d9"),
    ("sites", "fib.c", ["--tech=ferrum"], 0,
     "3d5def2ff7fe8ba1fb13a482b018949f800a74226c269bf9f1665fa80bf60359"),
    ("plan", "fib.c", ["--tech=none", "--budget=0.5"], 0,
     "f2f123acde4eddf5e0d9d715d3c717fdab73b52d5f9c17677d22af6dc6ebae38"),
    ("lint", "edge_case.s", ["--lint=json"], 0,
     "d71a11256e7ca6862efab33273844a4f16c849159326da5496dd8ad77f0992fb"),
]


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    ferrumc, fixtures = sys.argv[1], sys.argv[2]
    failures = 0
    for command, source, flags, status, digest in PINS:
        # The input path must come directly after the subcommand.
        argv = [ferrumc, command, os.path.join(fixtures, source)] + flags
        run = subprocess.run(argv, stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, check=False)
        got = hashlib.sha256(run.stdout).hexdigest()
        label = " ".join([command, source] + flags)
        if run.returncode != status or got != digest:
            print(f"FAIL {label}: exit {run.returncode} (want {status}), "
                  f"stdout sha256 {got} (want {digest})")
            failures += 1
        else:
            print(f"ok   {label}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
