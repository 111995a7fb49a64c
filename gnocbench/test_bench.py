#!/usr/bin/env python3
"""The benchmark's own tests. Run from the root of the source tree:

    python3 gnocbench/test_bench.py

1. Every workload, run at tiny size with --trace 0 and --trace 1, emits
   every metric BENCHMARK.json declares for that mode, each with its unit,
   and passes its correctness checks. The traced run's metrics of every
   layer that runs in a workload are non-zero there.
2. A copy of goldens.json with one digest altered makes the run fail with a
   non-zero exit, and the failure names the golden; so does a goldens file
   that does not parse.

Span and self-time arithmetic is tested in the harness itself:
`cargo test --offline --manifest-path gnocbench/harness/Cargo.toml`.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
    SPEC = json.load(spec_file)


# Per-layer metrics that must be non-zero in the tiny traced run of each
# workload: the layers that workload exercises. Counts that a healthy run may
# leave at 0 (retries, crossing retries, violations, rejections) are not
# listed.
LIVE_LAYERS = {
    "noc_loaded": [
        "noc.step_s", "noc.ns_per_cycle", "noc.ns_per_flit", "noc.cycles",
        "noc.flits_delivered", "noc.latency_cycles_mean", "noc.latency_cycles_p99",
        "noc.inject_refused_ratio", "fabric.run_s", "fabric.ns_per_cycle", "fabric.hops",
        "fabric.latency_cycles_mean", "telemetry.recorded_run_s",
        "telemetry.recorder_overhead_ratio", "trace.record_overhead_ratio", "trace.replay_s",
        "trace.validate_s", "trace.events", "trace.bytes_per_event",
        "bench.trace_overhead_ratio",
    ],
    "fault_soak": [
        "health.detect_s", "health.s_per_window", "health.windows", "health.detections",
        "faults.plan_s", "chaos.iteration_ms_p50", "chaos.iteration_ms_p90",
        "par.efficiency", "bench.trace_overhead_ratio",
    ],
    "paper_analytic": [
        "engine.l2_accesses", "engine.ns_per_access", "engine.solve_s", "engine.solve_calls",
        "microbench.bandwidth_s", "sidechannel.aes_s", "sidechannel.rsa_s",
        "sidechannel.us_per_sample", "workloads.replay_s", "core.campaign_s",
        "core.row_ms_p50", "core.row_ms_p90", "par.efficiency", "bench.trace_overhead_ratio",
    ],
    "serve_mixed": [
        "serve.admit_us_p50", "serve.admit_us_p99", "serve.wait_ms_p50",
        "serve.cache_hit_ratio", "serve.queue_depth_mean", "loadgen.late_ms_p99",
        "bench.trace_overhead_ratio",
    ],
}


def run(workload, trace, *extra):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "0", "--seconds", "0",
           "--trace", str(trace), "--size", "tiny", *extra]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


class TinyRuns(unittest.TestCase):
    def check_metrics(self, trace, declared):
        for w in (x["name"] for x in SPEC["workloads"]):
            with self.subTest(workload=w, trace=trace):
                done = run(w, trace)
                self.assertEqual(done.returncode, 0, done.stdout + done.stderr)
                result = last_json(done.stdout)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                metrics = result["metrics"]
                self.assertEqual(set(metrics), {m["name"] for m in declared})
                for m in declared:
                    self.assertEqual(metrics[m["name"]]["unit"], m["unit"], m["name"])
                    self.assertIsInstance(metrics[m["name"]]["value"], (int, float))
                    if trace == 0:
                        # End-to-end metrics are never 0.
                        self.assertGreater(metrics[m["name"]]["value"], 0, m["name"])
                if trace == 1:
                    for name in LIVE_LAYERS[w]:
                        self.assertGreater(metrics[name]["value"], 0, name)

    def test_end_to_end_metrics(self):
        self.check_metrics(0, SPEC["end_to_end"])

    def test_per_layer_metrics(self):
        self.check_metrics(1, SPEC["per_layer"])


class GoldenGate(unittest.TestCase):
    def run_with_goldens(self, text):
        scratch = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
        os.makedirs(scratch, exist_ok=True)
        with tempfile.NamedTemporaryFile("w", suffix=".json", dir=scratch, delete=False) as f:
            f.write(text)
        try:
            return run("noc_loaded", 0, "--goldens", f.name)
        finally:
            os.remove(f.name)

    def test_altered_golden_fails(self):
        with open(os.path.join(HERE, "goldens.json")) as f:
            goldens = json.load(f)
        key = "noc_loaded/tiny/0"
        self.assertIn(key, goldens)
        name = sorted(goldens[key])[0]
        digest = goldens[key][name]
        goldens[key][name] = ("0" if digest[0] != "0" else "1") + digest[1:]
        done = self.run_with_goldens(json.dumps(goldens))
        self.assertNotEqual(done.returncode, 0)
        result = last_json(done.stdout)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertIn(f"golden {key} {name}", done.stdout)

    def test_malformed_goldens_fail(self):
        with open(os.path.join(HERE, "goldens.json")) as f:
            text = f.read()
        done = self.run_with_goldens(text[: len(text) // 2])
        self.assertNotEqual(done.returncode, 0)
        result = last_json(done.stdout)
        self.assertFalse(result["correct"])
        self.assertIn("goldens file unreadable", done.stdout)

    def test_unaltered_golden_passes(self):
        done = run("noc_loaded", 0)
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr)


if __name__ == "__main__":
    unittest.main(verbosity=2)
