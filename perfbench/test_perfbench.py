#!/usr/bin/env python3
"""Tests of the repository benchmark itself.

    python3 perfbench/test_perfbench.py

Runs perfbench/run.py (building on first use) with short runs and checks
that deterministic metrics repeat for a seed, that the seed changes the
inputs, that the printed metrics are exactly BENCHMARK.json's, and that
a corrupted response fails the run. Takes a few minutes.
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("codec_bulk", "wafer_tenants")

# Metrics that depend only on the seed's inputs, never on timing.
DETERMINISTIC_E2E = ("ratio", "max_err_over_eps", "sim_gbps")
DETERMINISTIC_LAYER = ("core.zero_block_frac", "core.mean_fixed_length",
                       "core.bound_violations", "mapping.makespan_cycles",
                       "wse.events_processed")

_cache = {}


def run(workload, seed, trace=0, corrupt=False):
    """(exit status, parsed result or None) of one 1-second run."""
    key = (workload, seed, trace, corrupt)
    if key not in _cache or corrupt:
        cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed), "--seconds", "1",
               "--trace", str(trace)]
        if corrupt:
            cmd.append("--corrupt-response")
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              timeout=900)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else None
        _cache[key] = (proc.returncode, result)
    return _cache[key]


def values(result, names):
    return {n: result["metrics"][n]["value"] for n in names}


class PerfbenchTest(unittest.TestCase):
    def test_deterministic_metrics_repeat_for_a_seed(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = run(workload, 7)
                _cache.pop((workload, 7, 0, False))
                second = run(workload, 7)
                self.assertEqual(first[0], 0)
                self.assertEqual(second[0], 0)
                self.assertEqual(values(first[1], DETERMINISTIC_E2E),
                                 values(second[1], DETERMINISTIC_E2E))

    def test_deterministic_layer_counts_repeat_for_a_seed(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = run(workload, 7, trace=1)
                _cache.pop((workload, 7, 1, False))
                second = run(workload, 7, trace=1)
                self.assertEqual(first[0], 0)
                self.assertEqual(second[0], 0)
                self.assertEqual(values(first[1], DETERMINISTIC_LAYER),
                                 values(second[1], DETERMINISTIC_LAYER))

    def test_seed_changes_inputs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                a = values(run(workload, 7)[1], DETERMINISTIC_E2E)
                b = values(run(workload, 8)[1], DETERMINISTIC_E2E)
                self.assertNotEqual(a["ratio"], b["ratio"])

    def test_metric_names_match_benchmark_json(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[section]}
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    status, result = run(workload, 7, trace=trace)
                    self.assertEqual(status, 0)
                    got = {n: m["unit"] for n, m in result["metrics"].items()}
                    self.assertEqual(got, want)
                    self.assertEqual(
                        set(result), {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertGreaterEqual(result["attempted"], 1)
        workloads = [w["name"] for w in spec["workloads"]]
        self.assertEqual(sorted(workloads), sorted(WORKLOADS))

    def test_corrupted_response_is_caught(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                status, result = run(workload, 7, corrupt=True)
                self.assertEqual(status, 1)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)


if __name__ == "__main__":
    unittest.main(verbosity=2)
