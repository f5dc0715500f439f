#!/usr/bin/env python3
"""Self-check of the repository benchmark on tiny inputs (about 2k tuples).

    python3 perfbench/test_perfbench.py

Runs every workload untraced and traced through run.py --tiny, so each
workload's correctness gates and layer ledger execute in seconds, and checks
the result line against BENCHMARK.json. The first test builds the benchmark
if .bench_build/ holds no build yet.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, cwd=ROOT, script=RUN):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


class TinyRuns(unittest.TestCase):
    def check(self, workload, trace):
        out = run_bench(workload, trace)
        self.assertEqual(out.returncode, 0, out.stderr)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        self.assertEqual(list(result), ["correct", "attempted", "failed", "metrics"])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        declared = {m["name"]: m["unit"]
                    for m in SPEC["per_layer" if trace else "end_to_end"]}
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, declared)
        return out.stdout, result["metrics"]

    def test_untraced(self):
        # serve_open is not among BENCHMARK.json's workloads (see README.md)
        # but stays runnable, so it is checked too.
        workloads = [w["name"] for w in SPEC["workloads"]] + ["serve_open"]
        for workload in workloads:
            with self.subTest(workload=workload):
                stdout, metrics = self.check(workload, 0)
                self.assertIn("digest: ", stdout)
                for m in SPEC["end_to_end"]:
                    self.assertGreater(metrics[m["name"]]["value"], 0)

    def test_traced_ledger(self):
        # The six-sweep in-memory engine consults the policy 6x per tuple,
        # the fused streaming sweep once.
        calls = {"eval_batch": 6, "eval_stream": 1, "serve_open": 6}
        for workload, per_tuple in calls.items():
            with self.subTest(workload=workload):
                _, metrics = self.check(workload, 1)
                self.assertEqual(
                    metrics["estimators.policy_calls_per_tuple"]["value"], per_tuple)
                self.assertEqual(metrics["loadgen.failed"]["value"], 0)
                trace_file = (ROOT / ".bench_build" / "runs" /
                              f"{workload}-s5-t1-tiny" / "trace.json")
                events = json.loads(trace_file.read_text())["traceEvents"]
                self.assertTrue(any(e["name"] == "estimators" for e in events))

    def test_refuses_without_sources(self):
        # A directory holding only BENCHMARK.json and perfbench/ has nothing
        # to build: the command must fail without printing a result.
        bare = ROOT / ".bench_build" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench")
        try:
            out = run_bench("eval_batch", 0, cwd=bare,
                            script=bare / "perfbench" / "run.py")
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"correct"', out.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
