"""Self-test of the benchmark at a tiny size (about a minute).

Usage (from the repository root): python3 perfbench/selftest.py

Checks that each workload's oracles catch a planted wrong answer and count
it as a failed operation, that two seeds give different inputs and the
same verdicts, that a traced run reports every per-layer metric (non-zero
where the workload reaches that layer), that untraced runs record no spans,
and that the metric names match BENCHMARK.json.
"""

import json
import subprocess
import sys
import unittest

import inputs
from harness import ROOT, is_expected
from run import END_TO_END, WORKLOADS, per_layer_units

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NOTES = json.loads((ROOT / "perfbench" / "baseline.json").read_text(encoding="utf-8"))
SEEDS = (1, 2)


def bench(workload, seed, trace=0, plant=False):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd + (["--plant"] if plant else []), capture_output=True, text=True, cwd=ROOT, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), lines


def verdicts(lines) -> set:
    """The distinct printed failure lines (the first 20 failed operations)."""
    return {ln.strip() for ln in lines if ln.startswith("  expected:") or ln.startswith("  FAILED:")}


class Contract(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self):
        self.assertEqual({m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}, END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}, per_layer_units())
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]], list(WORKLOADS))

    def test_expected_failures_are_documented(self):
        documented = {(f["op"], f["input"], f["reason"]) for f in NOTES["expected_failed_operations"]}
        self.assertTrue(all(is_expected({"op": o, "input": i, "reason": r}) for o, i, r in documented))


class Inputs(unittest.TestCase):
    def test_seeds_change_inputs_not_sizes(self):
        size = inputs.TINY
        a, b = (inputs.enumerate_inputs(s, size) for s in SEEDS)
        self.assertNotEqual([g.edges for g in a["graphs"]], [g.edges for g in b["graphs"]])
        self.assertEqual(sorted(len(g.edges) for g in a["graphs"]), sorted(len(g.edges) for g in b["graphs"]))
        self.assertNotEqual(inputs.geometry_inputs(1, size), inputs.geometry_inputs(2, size))
        self.assertNotEqual(inputs.moduli_inputs(1, size), inputs.moduli_inputs(2, size))
        self.assertNotEqual(inputs.cli_inputs(1), inputs.cli_inputs(2))
        self.assertEqual(inputs.enumerate_inputs(1, size), inputs.enumerate_inputs(1, size))


class Workloads(unittest.TestCase):
    def test_two_seeds_same_verdicts(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                (ra, la), (rb, lb) = (bench(workload, s) for s in SEEDS)
                self.assertTrue(ra["correct"] and rb["correct"])
                # a run may make one repetition or two, so compare rates
                self.assertEqual(ra["failed"] / ra["attempted"], rb["failed"] / rb["attempted"])
                self.assertEqual(verdicts(la), verdicts(lb))
                self.assertIn("spans recorded by untraced repetitions: 0", la)

    def test_planted_wrong_answer_is_caught(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                clean, _ = bench(workload, 1)
                planted, lines = bench(workload, 1, plant=True)
                self.assertFalse(planted["correct"])
                self.assertGreater(planted["failed"], clean["failed"])
                self.assertTrue(any(ln.startswith("  FAILED:") for ln in lines))

    def test_traced_run_reports_every_layer(self):
        layers = NOTES["per_layer"]
        names = [m["name"] for m in BENCHMARK["per_layer"]]
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result, lines = bench(workload, 1, trace=1)
                self.assertEqual(sorted(result["metrics"]), sorted(names))
                reached = [n for n in names if workload in layers[n]["measured_on"]]
                self.assertTrue(reached)
                for name in reached:
                    self.assertNotEqual(result["metrics"][name]["value"], 0, name)
                self.assertIn("spans recorded by untraced repetitions: 0", lines)


if __name__ == "__main__":
    unittest.main()
