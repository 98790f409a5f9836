#!/usr/bin/env python3
"""Secure k-NN benchmark: builds the harness from source and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload secure-packed --seed 1 --seconds 10 --trace 0

The workloads, metrics and bounds are defined in BENCHMARK.json.  With
--trace 0 the run reports the end-to-end metrics, measured through the
Protocol entry points with tracing off; with --trace 1 it reports the
per-layer metrics from a traced run and prints a reconciliation table.

The harness (perfbench/sknn_perfbench.ml) is built with dune into _build.
Every answer is checked against plaintext k-NN inside the run.  Standard
output ends with a stamp line (machine and build) and then one JSON
object: {"correct", "attempted", "failed", "metrics"}.  The run's full
record (stamp, per-query samples, spans, determinism fingerprint) goes
to perfbench/out/ unless --out names another file.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
TARGET = "./perfbench/sknn_perfbench.exe"
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "sknn_perfbench.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run_group(cmd, timeout, **kw):
    """Run cmd in its own process group; on timeout kill the whole group
    and wait, so no process outlives the benchmark."""
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
    return proc.returncode, out


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--profile", "release", TARGET]
    try:
        rc, _ = run_group(cmd, BUILD_TIMEOUT_S, cwd=ROOT, env=env, stdout=sys.stderr)
    except FileNotFoundError:
        fail("dune not found on PATH")
    except subprocess.TimeoutExpired:
        fail(f"build did not finish within {BUILD_TIMEOUT_S} s")
    if rc != 0 or not os.path.exists(EXE):
        fail(f"build failed (dune exit {rc})")


def git_rev():
    try:
        rc, out = run_group(["git", "rev-parse", "HEAD"], 30, cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.decode().strip() if rc == 0 else "none"


def source_digest():
    """sha256 over the sources the harness is built from, so a stamp
    identifies the build even in a checkout without git metadata."""
    h = hashlib.sha256()
    names = ["dune", "dune-project"]
    for top in ["lib", "bench", "perfbench"]:
        for d, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs[:] = sorted(x for x in dirs if x != "out")
            names += [os.path.relpath(os.path.join(d, f), ROOT) for f in files]
    for name in sorted(names):
        if name == "dune-project" or name.endswith(("dune", ".ml", ".mli", ".conf")):
            path = os.path.join(ROOT, name)
            if os.path.isfile(path):
                h.update(name.encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--jobs", type=int, default=2,
                    help="domains per party (the benchmark runs at 2)")
    ap.add_argument("--tiny", action="store_true",
                    help="a 40-row instance, for the determinism self-check")
    ap.add_argument("--out", help="file for the run's full record")
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json in {ROOT}: {e}")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}

    build()

    out = args.out or os.path.join(
        HERE, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--jobs", str(args.jobs), "--out", out]
    if args.tiny:
        cmd.append("--tiny")
    try:
        rc, stdout = run_group(cmd, RUN_TIMEOUT_S, cwd=ROOT, stdout=subprocess.PIPE)
    except subprocess.TimeoutExpired:
        fail(f"run did not finish within {RUN_TIMEOUT_S} s")
    lines = stdout.decode().splitlines()
    if rc != 0 or not lines:
        fail(f"harness exited with code {rc}")

    try:
        result = json.loads(lines[-1])
        with open(out) as f:
            record = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"unreadable harness output: {e}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(result)}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        fail(f"metrics {got} differ from BENCHMARK.json's {expected}")

    stamp = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "jobs": args.jobs, "tiny": args.tiny,
        "cpu": cpu_model(), "nproc": os.cpu_count(), "ocaml": record.get("ocaml"),
        "git_rev": git_rev(), "source_digest": source_digest(),
    }
    record["stamp"] = stamp
    with open(out, "w") as f:
        json.dump(record, f)
        f.write("\n")

    for line in lines[:-1]:
        print(line)
    print("stamp " + json.dumps(stamp, sort_keys=True))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
