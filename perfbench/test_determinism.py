#!/usr/bin/env python3
"""Determinism self-check of the benchmark, seen from outside the program.

Runs a tiny (40-row) instance of every workload twice with one seed at
--jobs 2 and once at --jobs 1, untraced and traced, and asserts that
everything the protocol is supposed to fix bit for bit is identical:
per-query bytes, set-up bytes, A-B rounds, virtual wire times, every
bgv.<op>.count, and (traced) each entity call's op ledger.  Every run
must also answer every query exactly.

    python3 perfbench/test_determinism.py            # from the repo root

Exits non-zero on the first mismatch.
"""

import json
import os
import subprocess
import sys
import tempfile

SEED = 11


def run(workload, jobs, trace, out):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(SEED), "--seconds", "0", "--trace", str(trace),
           "--jobs", str(jobs), "--tiny", "--out", out]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"FAIL {workload} jobs={jobs} trace={trace}: exit {proc.returncode}")
    result = json.loads(proc.stdout.decode().splitlines()[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.exit(f"FAIL {workload} jobs={jobs} trace={trace}: wrong answers {result}")
    with open(out) as f:
        return json.load(f)["fingerprint"]


def main():
    with open("BENCHMARK.json") as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    os.makedirs("perfbench/out", exist_ok=True)
    with tempfile.TemporaryDirectory(dir="perfbench/out") as tmp:
        for w in workloads:
            for trace in (0, 1):
                prints = [(jobs, run(w, jobs, trace, os.path.join(tmp, f"{w}-{i}.json")))
                          for i, jobs in enumerate((2, 2, 1))]
                base = prints[0][1]
                for jobs, fp in prints[1:]:
                    if fp != base:
                        keys = sorted(k for k in base if base.get(k) != fp.get(k))
                        sys.exit(f"FAIL {w} trace={trace}: jobs=2 vs jobs={jobs} differ in {keys}")
                print(f"ok {w} trace={trace}: 3 runs identical", flush=True)
    print("determinism self-check passed")


if __name__ == "__main__":
    main()
