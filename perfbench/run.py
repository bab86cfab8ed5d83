#!/usr/bin/env python3
"""Host-time benchmark driver (see perfbench/README.md).

One run, from the root of a checkout:

    python3 perfbench/run.py --workload fleet_churn --seed 1 --seconds 20 --trace 0

builds perfbench/ (the repository's src/ libraries plus the benchmark
binary) into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
runs one workload and prints its JSON result as the last stdout line.

Two helper modes print reports instead of a single result:

    python3 perfbench/run.py --steady [--runs 10] [--workloads a,b] [--seconds S]
        runs every workload --runs times with distinct seeds and prints, per
        end-to-end metric, the median, quartiles and quartile spread
        ((Q3 - Q1) / median) against the bound in BENCHMARK.json; --seconds
        defaults to BENCHMARK.json's run_seconds.
    python3 perfbench/run.py --check-counts [--seed 1] [--workloads a,b]
        runs each workload's traced run twice on one seed (at two lengths)
        and checks that every deterministic per-layer count reads the same,
        and that the must-be-zero counts read 0.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOADS = ["client_apps", "fleet_churn", "flashcrowd"]
RUN_TIMEOUT_S = 170

# Per-layer metrics that are deterministic for a seed: counts, byte totals,
# and ratios of counts. Only these may back a count claim.
EXACT_UNITS = {"count", "bytes"}
EXACT_RATIOS = {"proxy.cert_yield", "proxy.hit_ratio"}
MUST_BE_ZERO = {"proxy.cert_rejects", "repl.aborts", "dvm.unsheddable_sheds"}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build():
    """Configures once, then builds incrementally. Returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: %s has no src/ tree; run from a full checkout" % ROOT)
        sys.exit(2)
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", "dvm_perfbench", "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            log("perfbench: build step failed: %s" % " ".join(cmd))
            sys.exit(proc.returncode or 1)
    return os.path.join(out, "dvm_perfbench")


def run_once(binary, workload, seed, seconds, trace, echo=False):
    """Runs the binary; returns the parsed result, or None on failure."""
    trace_dir = os.path.join(build_dir(), "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    if trace:
        cmd += ["--trace-out", os.path.join(trace_dir, "%s-seed%s.tsv" % (workload, seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log("perfbench: %s timed out" % workload)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("perfbench: %s exited with %d" % (workload, proc.returncode))
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("perfbench: %s printed no result line" % workload)
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("perfbench: %s result has unexpected keys" % workload)
        return None
    if echo:
        print(lines[-1], flush=True)
    return result


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def steady(binary, workloads, runs, seconds, first_seed):
    """Median and quartile spread of each end-to-end metric over `runs` seeds."""
    spec = load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    steady_ok = True
    for workload in workloads:
        values = {name: [] for name in bounds}
        attempted = failed = 0
        for i in range(runs):
            result = run_once(binary, workload, first_seed + i, seconds, trace=False)
            if result is None:
                log("perfbench: %s seed %d failed" % (workload, first_seed + i))
                return False
            attempted += result["attempted"]
            failed += result["failed"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print("%s: %d runs, seeds %d..%d, error_rate %.6f (%d/%d ops failed)" %
              (workload, runs, first_seed, first_seed + runs - 1, failed / attempted, failed,
               attempted))
        print("  %-12s %-6s %14s %14s %14s %8s %6s  %s" %
              ("metric", "unit", "median", "q1", "q3", "spread", "bound", "verdict"))
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            if name == "setup_s":
                verdict = "reported"
            elif spread < bounds[name] / 3:
                verdict = "steady"
            else:
                verdict = "NOISY (needs < bound/3)"
                steady_ok = False
            print("  %-12s %-6s %14.6g %14.6g %14.6g %8.4f %6.2f  %s" %
                  (name, units[name], med, q1, q3, spread, bounds[name], verdict))
            print("      runs: %s" % " ".join("%.6g" % v for v in vals))
        print("  %-12s %-6s %14.6g" % ("error_rate", "ratio", failed / attempted), flush=True)
        steady_ok = steady_ok and failed == 0
    return steady_ok


def exact(name, unit):
    return unit in EXACT_UNITS or name in EXACT_RATIOS


def check_counts(binary, workloads, seed, seconds):
    """The deterministic per-layer metrics repeat exactly on one seed."""
    ok = True
    for workload in workloads:
        runs = [run_once(binary, workload, seed, s, trace=True) for s in (seconds, seconds * 2)]
        if any(r is None for r in runs):
            return False
        a, b = (r["metrics"] for r in runs)
        checked = 0
        for name, metric in a.items():
            if name in MUST_BE_ZERO and (metric["value"] != 0 or b[name]["value"] != 0):
                print("%s: %s must be 0, read %r / %r" %
                      (workload, name, metric["value"], b[name]["value"]))
                ok = False
            if not exact(name, metric["unit"]):
                continue
            checked += 1
            if metric["value"] != b[name]["value"]:
                print("%s: %s differs between runs: %r vs %r" %
                      (workload, name, metric["value"], b[name]["value"]))
                ok = False
        print("%s: %d exact per-layer metrics compared, trace.coverage %.3f, "
              "trace.overhead %+.3f" % (workload, checked, a["trace.coverage"]["value"],
                                        a["trace.overhead"]["value"]), flush=True)
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--steady", action="store_true")
    parser.add_argument("--check-counts", action="store_true")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args()

    selected = [w for w in args.workloads.split(",") if w]
    if any(w not in WORKLOADS for w in selected):
        parser.error("unknown workload in --workloads")
    if not args.steady and not args.check_counts and args.workload is None:
        parser.error("--workload is required")
    binary = build()
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    if args.steady:
        return 0 if steady(binary, selected, args.runs, args.seconds, args.seed) else 1
    if args.check_counts:
        return 0 if check_counts(binary, selected, args.seed, max(1, args.seconds // 4)) else 1
    result = run_once(binary, args.workload, args.seed, args.seconds, bool(args.trace), echo=True)
    return 0 if result is not None else 1


if __name__ == "__main__":
    sys.exit(main())
