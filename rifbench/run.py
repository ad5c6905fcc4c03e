#!/usr/bin/env python3
"""Benchmark entry point: builds the driver from source, runs one workload
in its own process and prints its metrics.

    python3 rifbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Prints the host facts and every metric by name with its unit, then, as
the last line, one JSON object with the keys correct, attempted, failed
and metrics. --trace 0 reports the end-to-end metrics of BENCHMARK.json;
--trace 1 runs with wall-clock spans and reports its per-layer metrics,
writing the spans to .bench_build/traces/ as Chrome trace JSON.

Other modes:
    --steadiness N   repeat every workload N times, interleaved, on N
                     seeds, and print median and quartiles per metric
    --pin-digests    re-pin the simulated-output digests of the default
                     seed in rifbench/digests.json

Run from the root of a checkout. The build lands in .bench_build/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "rifbench")
BINARY = os.path.join(BUILD_DIR, "rifbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
DIGESTS = os.path.join(HERE, "digests.json")

# Every workload runs on one thread, except the fleet, which runs on two
# so the WorkerTeam barrier path executes (half of a 4-core host).
THREADS = {"fleet_poisson": 2}
RUN_TIMEOUT_S = 170


def fail(msg):
    print("rifbench: " + msg, file=sys.stderr)
    sys.exit(1)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def build():
    """Configure once, then build incrementally; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources not found under " + os.path.join(ROOT, "src"))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "rifbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def run_workload(workload, seed, seconds, trace, min_passes=None,
                 threads=None, extra=(), check_pinned=True):
    """Run the driver once; returns its parsed JSON document."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    if min_passes is not None:
        cmd += ["--min-passes", str(min_passes)]
    pinned = load_json(DIGESTS)
    if (check_pinned and seed == pinned["seed"]
            and workload in pinned["digests"]):
        cmd += ["--expect-digest", pinned["digests"][workload]]
    if trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(TRACE_DIR, "%s-seed%d.json" % (workload, seed))]
    cmd += list(extra)
    env = dict(os.environ)
    env["RIF_THREADS"] = str(threads or THREADS.get(workload, 1))
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    if proc.returncode != 0:
        fail("%s exited with code %d" % (workload, proc.returncode))
    return json.loads(proc.stdout)


def report(doc, trace, spec):
    """Human-readable lines, then the result line the contract asks for."""
    host = doc["host"]
    print("host nproc=%d avx2=%s threads=%d compiler=%s build=%s "
          "simd_build=%d metrics_build=%d" % (
              host["nproc"], host["avx2"], host["threads"],
              host["compiler"], host["build_type"], host["simd_build"],
              host["metrics_build"]))
    print("workload %s seed %d digest %s" % (
        doc["workload"], doc["seed"], doc["digest"]))
    for v in doc["violations"]:
        print("violation " + v)
    for name, m in doc["metrics"].items():
        print("metric %s %.10g %s%s" % (name, m["value"], m["unit"],
                                        " det" if m["det"] else ""))
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for w in wanted:
        m = doc["metrics"].get(w["name"])
        if m is None or m["unit"] != w["unit"]:
            fail("driver does not report %s in %s" % (w["name"], w["unit"]))
        metrics[w["name"]] = {"value": m["value"], "unit": m["unit"]}
    print(json.dumps({"correct": doc["correct"],
                      "attempted": doc["attempted"],
                      "failed": doc["failed"],
                      "metrics": metrics}))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steadiness(spec, reps, seconds, trace, workloads):
    """Interleave workloads over `reps` seeds; print spread per metric."""
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values = {w: {} for w in workloads}
    correct = True
    for rep in range(reps):
        k = rep % len(workloads)
        for w in workloads[k:] + workloads[:k]:
            t0 = time.time()
            doc = run_workload(w, 1000 + rep, seconds, trace)
            correct &= doc["correct"]
            for name, m in doc["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print("rep %d %-16s %.1f s correct=%s ops_per_s=%.6g" % (
                rep, w, time.time() - t0, doc["correct"],
                doc["metrics"]["ops_per_s"]["value"]), file=sys.stderr)
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    print("%-16s %-32s %14s %14s %14s %8s %8s" % (
        "workload", "metric", "q1", "median", "q3", "iqr/med", "bound/3"))
    for w in workloads:
        for name in names:
            q1, med, q3 = quartiles(values[w][name])
            spread = (q3 - q1) / abs(med) if med else 0.0
            b = bounds.get(name)
            print("%-16s %-32s %14.6g %14.6g %14.6g %8.4f %8s" % (
                w, name, q1, med, q3, spread,
                "%.4f" % (b / 3) if b else "-"))
    print("all runs correct: %s" % correct)


def pin_digests(workloads):
    pinned = load_json(DIGESTS)
    for w in workloads:
        doc = run_workload(w, pinned["seed"], 0, False, min_passes=1,
                           check_pinned=False)
        pinned["digests"][w] = doc["digest"]
        print("%s %s" % (w, doc["digest"]))
    with open(DIGESTS, "w") as f:
        json.dump(pinned, f, indent=2, sort_keys=True)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steadiness", type=int, metavar="N")
    ap.add_argument("--pin-digests", action="store_true")
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("BENCHMARK.json not found at the checkout root")
    spec = load_json(spec_path)
    names = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    build()
    if args.pin_digests:
        pin_digests(names)
    elif args.steadiness:
        steadiness(spec, args.steadiness, seconds, args.trace, names)
    else:
        if args.workload not in names:
            fail("unknown workload %r; choose from %s" % (
                args.workload, ", ".join(names)))
        seed = args.seed if args.seed is not None else load_json(DIGESTS)["seed"]
        report(run_workload(args.workload, seed, seconds, args.trace),
               args.trace, spec)


if __name__ == "__main__":
    main()
