#!/usr/bin/env python3
"""Self-test of the benchmark (about a minute on a 4-core host).

    python3 rifbench/selftest.py

Checks that:
  - fleet_poisson's digest and deterministic counts are identical at 1
    and 2 threads;
  - every deterministic count repeats exactly across two runs of each
    workload, and the pinned digest of the default seed matches;
  - the conservation checks hold on a held-out seed;
  - the traced run writes a span for every timed per-layer metric and
    reports self time and overhead;
  - the per-replay watchdog stops a replay that never returns and
    counts its ops as failed;
  - without the simulator's sources the benchmark fails fast without a
    result line.
"""

import json
import os
import shutil
import subprocess
import sys
import time
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SPEC = run.load_json(os.path.join(run.ROOT, "BENCHMARK.json"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
PINNED_SEED = run.load_json(run.DIGESTS)["seed"]
HELD_OUT_SEED = 424242

# The spans a traced pass must hold, per workload: one around each timed
# call and each set-up step, and one around each teardown.
SPANS = {
    "drive_write_gc": {"trace.generate", "ssd.construct", "ftl.prepareOpen",
                       "ssd.run", "ssd.destroy", "trace.destroy"},
    "fleet_poisson": {"trace.generate", "fabric.precondition",
                      "fabric.construct", "fabric.run", "fabric.destroy",
                      "trace.destroy"},
    "mc_decode": {"ldpc.code", "odear.calibrateThreshold",
                  "ldpc.measureCapability", "odear.measureRpAccuracy",
                  "ldpc.destroy"},
}


def det_metrics(doc):
    return {k: m["value"] for k, m in doc["metrics"].items() if m["det"]}


class Benchmark(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_fleet_digest_is_thread_invariant(self):
        one = run.run_workload("fleet_poisson", PINNED_SEED, 0, False,
                               min_passes=1, threads=1)
        two = run.run_workload("fleet_poisson", PINNED_SEED, 0, False,
                               min_passes=1, threads=2)
        self.assertEqual(one["host"]["threads"], 1)
        self.assertEqual(two["host"]["threads"], 2)
        self.assertTrue(one["correct"] and two["correct"])
        self.assertEqual(one["digest"], two["digest"])
        self.assertEqual(det_metrics(one), det_metrics(two))

    def test_det_counts_repeat_and_digest_is_pinned(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a = run.run_workload(w, PINNED_SEED, 0, True, min_passes=2)
                b = run.run_workload(w, PINNED_SEED, 0, True, min_passes=2)
                self.assertTrue(a["correct"], a["violations"])
                self.assertTrue(b["correct"], b["violations"])
                self.assertEqual(a["failed"], 0)
                self.assertEqual(det_metrics(a), det_metrics(b))

    def test_checks_hold_on_held_out_seed(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                doc = run.run_workload(w, HELD_OUT_SEED, 0, False,
                                       min_passes=1)
                self.assertTrue(doc["correct"], doc["violations"])
                self.assertEqual(doc["failed"], 0)
                self.assertGreater(doc["metrics"]["ops_per_s"]["value"], 0)

    def test_traced_run_spans_every_timed_call(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                doc = run.run_workload(w, HELD_OUT_SEED, 0, True,
                                       min_passes=3)
                path = os.path.join(run.TRACE_DIR,
                                    "%s-seed%d.json" % (w, HELD_OUT_SEED))
                events = run.load_json(path)["traceEvents"]
                names = {e["name"] for e in events if e["ph"] == "X"}
                self.assertLessEqual(SPANS[w], names)
                for e in events:
                    if e["ph"] == "X":
                        self.assertEqual(e["args"]["workload"], w)
                m = doc["metrics"]
                self.assertGreater(m["trace.spans_per_pass"]["value"], 0)
                self.assertGreater(m["self_s.bench"]["value"], 0)
                self.assertIn("trace.overhead_s", m)

    def test_watchdog_counts_stuck_replay_as_failed(self):
        t0 = time.time()
        doc = run.run_workload("drive_gc_stall", PINNED_SEED, 0, False,
                               min_passes=1, extra=["--watchdog-s", "3"])
        self.assertLess(time.time() - t0, 60)
        self.assertFalse(doc["correct"])
        self.assertGreaterEqual(doc["failed"], 2000)
        self.assertEqual(doc["failed"], doc["attempted"])
        self.assertTrue(any("watchdog" in v for v in doc["violations"]))

    def test_fails_without_sources(self):
        bare = os.path.join(run.ROOT, ".bench_build", "selftest_bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.HERE, os.path.join(bare, "rifbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "rifbench/run.py", "--workload", WORKLOADS[0],
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            timeout=180)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), b"")


if __name__ == "__main__":
    unittest.main(verbosity=2)
