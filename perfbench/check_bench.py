"""Self-test of the benchmark at a tiny grid size.

    python3 perfbench/check_bench.py

Run from the root of a source checkout. It checks that every metric
named in BENCHMARK.json is emitted for every workload, that a wrong
output counts as a failed command, and that the benchmark refuses to
run without the package sources. It is not part of the package's test
suite, so pytest does not collect it.
"""

import argparse
import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run

TINY = 64


class EmitsEveryMetric(unittest.TestCase):
    def test_every_workload_and_mode(self):
        bench = run.load_json(run.ROOT / "BENCHMARK.json")
        self.assertEqual([w["name"] for w in bench["workloads"]], list(run.WORKLOADS))
        for workload in run.WORKLOADS:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    args = argparse.Namespace(workload=workload, seed=1, seconds=0, trace=trace)
                    with contextlib.redirect_stdout(io.StringIO()):
                        result = json.loads(json.dumps(run.run(args, size=TINY)))
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], run.MIN_SAMPLES)
                    names = [m["name"] for m in bench[kind]]
                    self.assertEqual(list(result["metrics"]), names)
                    for name, metric in result["metrics"].items():
                        self.assertTrue(math.isfinite(metric["value"]), name)


class WrongOutputsFail(unittest.TestCase):
    def test_perturbed_metrics_reference(self):
        inputs = run.make_inputs("metrics-1024", 2, TINY)
        inputs.expected["metrics"]["rmse"] *= 1 + 1e-4
        for measure in (run.run_end_to_end, run.run_traced):
            tally = run.Tally()
            measure(inputs, 0, tally)
            self.assertGreater(tally.attempted, 0)
            self.assertEqual(tally.failed, tally.attempted)

    def test_refine_worse_than_recorded(self):
        inputs = run.make_inputs("refine-512", 2, TINY)
        recorded = run.reference_obj_ratio(TINY, 2)
        original = run.reference_obj_ratio
        run.reference_obj_ratio = lambda size, seed: recorded * 0.999
        try:
            tally = run.Tally()
            run.run_end_to_end(inputs, 0, tally)
        finally:
            run.reference_obj_ratio = original
        self.assertEqual(tally.failed, tally.attempted)

    def test_refine_checks_pass_then_catch_a_rising_trace(self):
        inputs = run.make_inputs("refine-512", 3, TINY)
        tally = run.Tally()
        run.run_traced(inputs, 0, tally)
        self.assertEqual(tally.failed, 0)
        trace = Path(inputs.outputs[1])
        lines = trace.read_text().splitlines()
        fields = lines[-1].split(",")
        fields[1] = repr(float(fields[1]) * 2)
        trace.write_text("\n".join(lines[:-1] + [",".join(fields)]) + "\n")
        self.assertTrue(any("rises" in p for p in run.check(inputs)))

    def test_crash_in_process_is_a_failure(self):
        inputs = run.make_inputs("metrics-1024", 2, TINY)
        run.import_fluxgrid()
        cli = sys.modules["fluxgrid.cli"]
        original = cli.main

        def crash(argv):
            raise TypeError("injected")

        cli.main = crash
        try:
            tally = run.Tally()
            with contextlib.redirect_stderr(io.StringIO()):
                run.run_traced(inputs, 0, tally)
        finally:
            cli.main = original
        self.assertGreaterEqual(tally.attempted, run.MIN_SAMPLES)
        self.assertEqual(tally.failed, tally.attempted)

    def test_nonfinite_report_value(self):
        doc = {"metrics": {"rmse": float("nan")}, "flux": {"r": [1.0, float("inf")]}}
        self.assertEqual(len(list(run._nonfinite(doc))), 2)


class TracedRun(unittest.TestCase):
    def test_self_times_cover_the_inprocess_total(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                layers, n = run.run_traced(run.make_inputs(workload, 4, TINY), 0, run.Tally())
                self.assertGreaterEqual(n, run.MIN_SAMPLES)
                # self times sum to the in-process total within the tracing overhead
                self.assertGreater(layers["trace.overhead_s"], 0)
                self.assertLessEqual(abs(layers["trace.unattributed_s"]),
                                     layers["trace.overhead_s"])
                self.assertEqual(layers["cli.cmd_self_calls"], 1)
                self.assertGreater(layers["formats.read_bytes"], 0)


class RefusesWithoutSources(unittest.TestCase):
    def test_benchmark_files_alone(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(run.HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "metrics-1024",
                 "--seed", "1", "--seconds", "0", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=120)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
