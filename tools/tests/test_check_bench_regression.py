"""Unit tests for the check_bench_regression.py metric validation.

The gate's failure mode before validation existed: ``json.load`` happily
parses ``NaN``/``Infinity`` literals, and every ``<`` comparison against a
NaN is False — so a bench emitting NaN metrics would PASS the regression
gate while measuring nothing. These tests pin the fixed behavior: malformed
metric values (NaN, Inf, bools, strings) fail loudly with a per-metric
message naming the offending file, for the current run AND the baseline.
A gated metric the current run no longer reports fails the same way, so a
gate cannot vanish silently when a bench stops emitting its number.

Run from the repo root (CI does both):
    python3 -m unittest discover -s tools/tests
    python3 tools/tests/test_check_bench_regression.py
"""

import json
import math
import os
import subprocess
import sys
import tempfile
import unittest

TOOLS_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(TOOLS_DIR, "check_bench_regression.py")
FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")

sys.path.insert(0, TOOLS_DIR)
from check_bench_regression import load_metrics  # noqa: E402


def fixture(name):
    return os.path.join(FIXTURES, name)


def run_gate(*argv):
    """Run the script as CI does; returns (exit_code, combined_output)."""
    proc = subprocess.run(
        [sys.executable, SCRIPT, *argv],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    return proc.returncode, proc.stdout


class LoadMetricsValidation(unittest.TestCase):
    def test_accepts_finite_numbers(self):
        metrics, errors = load_metrics(fixture("metrics_ok.json"))
        self.assertEqual(errors, [])
        self.assertEqual(metrics["throughput_ratio"], 1.25)
        self.assertEqual(metrics["allocs_per_request"], 0.0)

    def test_rejects_nan_and_inf_per_metric(self):
        metrics, errors = load_metrics(fixture("metrics_nan.json"))
        self.assertEqual(len(errors), 2)
        self.assertTrue(any("throughput_ratio" in e and "non-finite" in e
                            for e in errors))
        self.assertTrue(any("latency_ratio" in e for e in errors))
        # The healthy metric in the same file still loads.
        self.assertEqual(metrics, {"allocs_per_request": 0.0})

    def test_rejects_bools_and_strings(self):
        metrics, errors = load_metrics(fixture("metrics_non_numeric.json"))
        self.assertEqual(len(errors), 2)
        self.assertTrue(any("bit_identical" in e and "bool" in e
                            for e in errors))
        self.assertTrue(any("throughput_ratio" in e and "str" in e
                            for e in errors))
        self.assertEqual(metrics, {"speedup_vs_serial": 3.5})

    def test_masked_metrics_are_exempt_from_validation(self):
        metrics, errors = load_metrics(fixture("metrics_nan.json"),
                                       masks=("throughput_ratio",
                                              "latency_ratio"))
        self.assertEqual(errors, [])
        self.assertEqual(metrics, {"allocs_per_request": 0.0})


class GateExitStatus(unittest.TestCase):
    def test_clean_metrics_pass(self):
        code, out = run_gate(fixture("metrics_ok.json"),
                             "--baseline", fixture("metrics_baseline.json"))
        self.assertEqual(code, 0, out)
        self.assertIn("PASS", out)

    def test_nan_current_fails_naming_the_metric(self):
        code, out = run_gate(fixture("metrics_nan.json"))
        self.assertEqual(code, 1, out)
        self.assertIn("throughput_ratio", out)
        self.assertIn("non-finite", out)
        self.assertIn("FAIL", out)

    def test_non_numeric_current_fails_naming_the_metric(self):
        code, out = run_gate(fixture("metrics_non_numeric.json"))
        self.assertEqual(code, 1, out)
        self.assertIn("bit_identical", out)
        self.assertIn("non-numeric", out)

    def test_malformed_baseline_fails_naming_the_file(self):
        code, out = run_gate(fixture("metrics_ok.json"),
                             "--baseline", fixture("metrics_nan.json"))
        self.assertEqual(code, 1, out)
        self.assertIn("metrics_nan.json", out)
        self.assertIn("non-finite", out)

    def test_regression_still_detected(self):
        with tempfile.TemporaryDirectory() as tmp:
            regressed = os.path.join(tmp, "regressed.json")
            with open(regressed, "w", encoding="utf-8") as fh:
                json.dump({"metrics": {"throughput_ratio": 0.5,
                                       "allocs_per_request": 0,
                                       "speedup_vs_serial": 3.5}}, fh)
            code, out = run_gate(regressed,
                                 "--baseline", fixture("metrics_baseline.json"))
            self.assertEqual(code, 1, out)
            self.assertIn("REGRESSED", out)

    def test_nonzero_alloc_hard_gate_survives(self):
        with tempfile.TemporaryDirectory() as tmp:
            leaky = os.path.join(tmp, "leaky.json")
            with open(leaky, "w", encoding="utf-8") as fh:
                json.dump({"metrics": {"allocs_per_request": 2}}, fh)
            code, out = run_gate(leaky)
            self.assertEqual(code, 1, out)
            self.assertIn("NONZERO", out)

    def test_missing_baseline_metric_fails_naming_it(self):
        code, out = run_gate(fixture("metrics_missing.json"),
                             "--baseline", fixture("metrics_baseline.json"))
        self.assertEqual(code, 1, out)
        self.assertIn("speedup_vs_serial", out)
        self.assertIn("missing from current run", out)
        self.assertIn("FAIL", out)

    def test_masked_missing_metric_passes(self):
        code, out = run_gate(fixture("metrics_missing.json"),
                             "--baseline", fixture("metrics_baseline.json"),
                             "--mask", "speedup_vs_serial")
        self.assertEqual(code, 0, out)
        self.assertIn("PASS", out)

    def test_missing_baseline_kernel_fails_naming_it(self):
        def kernel_rows(*names):
            return {"benchmarks": [
                {"name": n, "run_type": "iteration", "time_unit": "ns",
                 "cpu_time": 100.0 if "_Scalar" in n else 50.0}
                for n in names]}
        with tempfile.TemporaryDirectory() as tmp:
            current = os.path.join(tmp, "current.json")
            baseline = os.path.join(tmp, "baseline.json")
            with open(current, "w", encoding="utf-8") as fh:
                json.dump(kernel_rows("BM_KernelDot_Scalar/64",
                                      "BM_KernelDot_Dispatch/64"), fh)
            with open(baseline, "w", encoding="utf-8") as fh:
                json.dump(kernel_rows("BM_KernelDot_Scalar/64",
                                      "BM_KernelDot_Dispatch/64",
                                      "BM_KernelAxpy_Scalar/64",
                                      "BM_KernelAxpy_Dispatch/64"), fh)
            code, out = run_gate(current, "--baseline", baseline)
            self.assertEqual(code, 1, out)
            self.assertIn("Axpy/64", out)
            self.assertIn("missing from current run", out)

    def test_fixture_nan_actually_contains_nan(self):
        # Guard the fixture itself: json.load must yield a real NaN, proving
        # the parse-accepts-NaN failure mode the gate defends against.
        with open(fixture("metrics_nan.json"), "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        self.assertTrue(math.isnan(doc["metrics"]["throughput_ratio"]))
        self.assertTrue(math.isinf(doc["metrics"]["latency_ratio"]))


if __name__ == "__main__":
    unittest.main()
