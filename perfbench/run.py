#!/usr/bin/env python3
"""Build and run the repository's benchmark from the repo root.

    python3 perfbench/run.py --workload serve|overload|sweep|crowd \
        --seed N --seconds S --trace 0|1

builds perfbench/bench.exe with dune, runs one workload and passes its
output through; the last line is the JSON result. Extra modes:

    python3 perfbench/run.py --heldout SEED [--seconds S]

runs every workload on seed 1 and on the held-out SEED, and fails unless
both are correct and every virtual-clock metric differs between them.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ["serve", "overload", "sweep", "crowd"]
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
VIRTUAL_METRICS = ["virt_p50_s", "virt_p99_s", "goodput_per_vs", "virt_wasted_per_op_s"]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def source_id():
    """The commit when this is a git checkout, else a hash of the sources."""
    if os.path.isdir(".git"):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=30)
            if out.returncode == 0:
                return "git:" + out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    for top in ["dune-project", "dune", "lib", "bin", "perfbench"]:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in paths:
            if p.endswith((".ml", ".mli", "dune", "dune-project")):
                h.update(p.encode())
                with open(p, "rb") as f:
                    h.update(f.read())
    return "tree:" + h.hexdigest()[:16]


def anchor():
    """The committed serving record the serve workload must reproduce."""
    with open("BENCH_serve.json") as f:
        rec = json.load(f)
    return "{},{},{},{},{}".format(rec["digest"], rec["latency_p50_s"],
                                   rec["latency_p99_s"], rec["seed"], rec["requests"])


def build():
    for need in ["dune-project", "lib", "BENCH_serve.json", "BENCHMARK.json"]:
        if not os.path.exists(need):
            fail("run from the repository root: %s is missing" % need)
    try:
        # No shared build cache: the build reads and writes this tree only.
        done = subprocess.run(["dune", "build", "--root", ".", "--cache=disabled",
                               "perfbench/bench.exe"],
                              stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if done.returncode != 0:
        fail("build failed (dune exit %d)" % done.returncode)


def schema_names():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return ([m["name"] for m in spec["end_to_end"]], [m["name"] for m in spec["per_layer"]])


def run_once(workload, seed, seconds, trace, echo):
    cmd = [EXE, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--source", source_id(), "--anchor", anchor()]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s seed %d did not finish in %d s" % (workload, seed, RUN_TIMEOUT_S))
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        metrics = set(result["metrics"])
    except (IndexError, ValueError, KeyError, TypeError):
        sys.stdout.write(done.stdout)
        fail("%s printed no result (exit %d)" % (workload, done.returncode))
    e2e, layer = schema_names()
    want = set(layer if trace else e2e)
    if metrics != want:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("metrics differ from BENCHMARK.json: %s" % sorted(metrics ^ want))
    if echo:
        sys.stdout.write(done.stdout)
    return done.returncode, result


def heldout(seed, seconds):
    ok = True
    for w in WORKLOADS:
        _, base = run_once(w, 1, seconds, 0, False)
        _, held = run_once(w, seed, seconds, 0, False)
        same = [m for m in VIRTUAL_METRICS
                if base["metrics"][m]["value"] == held["metrics"][m]["value"]]
        good = base["correct"] and held["correct"] and not same
        ok = ok and good
        print("%-9s seed 1 correct=%s, seed %d correct=%s, virtual metrics equal: %s -> %s"
              % (w, base["correct"], seed, held["correct"], same or "none",
                 "ok" if good else "FAILED"))
        for m in VIRTUAL_METRICS:
            print("  %-22s %14.6g %14.6g" % (m, base["metrics"][m]["value"],
                                               held["metrics"][m]["value"]))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--heldout", type=int, metavar="SEED")
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    if args.heldout is not None:
        if args.heldout == 1:
            fail("the held-out seed must not be the default seed 1")
        build()
        sys.exit(heldout(args.heldout, args.seconds))
    if args.workload is None or args.seed is None:
        fail("--workload and --seed are required")
    build()
    code, _ = run_once(args.workload, args.seed, args.seconds, args.trace, True)
    sys.exit(code)


if __name__ == "__main__":
    main()
