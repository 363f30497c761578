"""Self-tests of the benchmark (about four minutes on two cores).

    python3 perfbench/selftest.py

* the metric and workload names the runner prints are those in
  BENCHMARK.json;
* every workload passes its checks, and in a traced run the layer self
  times, the per-command setup time and the shown remainder add up to the
  traced pipeline time;
* layers a workload bypasses read 0 there, and the counts repeat exactly
  from seed to seed;
* one flipped bit in one artifact makes the run incorrect.
"""

from __future__ import annotations

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from launch import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
COUNTS = (
    "patterns.grid_counts",
    "patterns.group_counts",
    "avoiders.decided_values",
    "contfrac.build_alpha_calls",
    "contfrac.verify_alpha_calls",
    "contfrac.convergent_calls",
)
BYPASSED = {
    "corner3d": ("mandache.self_s", "hypergraph.self_s", "patterns.group_count_s", "avoiders.lift_s"),
    "fivepoint": ("mandache.self_s", "hypergraph.self_s", "avoiders.verify_s", "patterns.group_count_s"),
    "triforce": ("avoiders.self_s", "contfrac.self_s", "behrend.self_s", "patterns.grid_spectrum_s"),
}
_cache: dict = {}


def bench(workload, seed, trace, *extra):
    key = (workload, seed, trace, extra)
    if key not in _cache:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
        argv += ["--seconds", "1", "--trace", str(trace), *extra]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=300, cwd=HERE.parent)
        if proc.returncode != 0:
            raise AssertionError(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr[-2000:]}")
        lines = proc.stdout.strip().splitlines()
        _cache[key] = (json.loads(lines[-2])["detail"], json.loads(lines[-1]))
    return _cache[key]


class Names(unittest.TestCase):
    def test_workloads(self):
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]], list(WORKLOADS))

    def test_printed_names(self):
        end_to_end = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
        per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
        for workload in (w["name"] for w in BENCHMARK["workloads"]):
            for trace, want in ((0, end_to_end), (1, per_layer)):
                _, result = bench(workload, 0, trace)
                got = {name: m["unit"] for name, m in result["metrics"].items()}
                self.assertEqual(got, want, f"{workload} --trace {trace}")


class Runs(unittest.TestCase):
    def test_correct(self):
        for workload in BYPASSED:
            for trace in (0, 1):
                detail, result = bench(workload, 0, trace)
                self.assertEqual(detail["failures"], [], f"{workload} --trace {trace}")
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)

    def test_self_times_add_up(self):
        for workload in BYPASSED:
            _, result = bench(workload, 0, 1)
            m = {name: v["value"] for name, v in result["metrics"].items()}
            parts = sum(m[f"{layer}.self_s"] for layer in LAYERS) + m["trace.setup_total_s"] + m["trace.remainder_s"]
            self.assertAlmostEqual(parts, m["trace.pipeline_s"], places=6)
            # spans, not the remainder, must explain the time
            self.assertLess(abs(m["trace.remainder_s"]), 0.1 * m["trace.pipeline_s"], workload)

    def test_bypassed_layers_read_zero(self):
        for workload, names in BYPASSED.items():
            _, result = bench(workload, 0, 1)
            for name in names:
                self.assertEqual(result["metrics"][name]["value"], 0, f"{name} on {workload}")

    def test_counts_repeat(self):
        _, first = bench("fivepoint", 0, 1)
        _, second = bench("fivepoint", 1, 1)
        for name in COUNTS:
            self.assertEqual(first["metrics"][name]["value"], second["metrics"][name]["value"], name)
        self.assertGreater(first["metrics"]["contfrac.convergent_calls"]["value"], 0)


class BitFlip(unittest.TestCase):
    def test_flipped_artifact_is_flagged(self):
        detail, result = bench("fivepoint", 0, 0, "--flip", "F.set")
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertGreater(detail["fail_ratio"], 0)
        self.assertTrue(any("F.set" in f for f in detail["failures"]), detail["failures"])


if __name__ == "__main__":
    unittest.main(verbosity=2)
