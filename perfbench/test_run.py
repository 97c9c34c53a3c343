#!/usr/bin/env python3
"""Self-test of the benchmark harness.

    python3 perfbench/test_run.py

Feeds every output check a deliberate failure and asserts that the run
still exits 0 with a result line that counts the failure (correct false,
failed >= 1) instead of aborting; that a clean run is correct; and that
the benchmark refuses to run, without a result line, in a directory that
holds only BENCHMARK.json and perfbench/.  Builds under .bench_build/ like
run.py itself; takes about a minute once the builds exist.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("perfbench", "run.py")


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, RUN, "--seed", "5", "--seconds", "1", *args],
                          cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


class InjectedFailures(unittest.TestCase):
    def assert_counted(self, workload, check):
        code, lines = bench("--workload", workload, "--inject-failure", check)
        self.assertEqual(code, 0, "%s/%s aborted" % (workload, check))
        result = json.loads(lines[-1])
        self.assertFalse(result["correct"], check)
        self.assertGreaterEqual(result["failed"], 1, check)
        self.assertLessEqual(result["failed"], result["attempted"], check)
        record = json.loads(next(l for l in lines if l.startswith("record "))[7:])
        self.assertTrue(record["failures"], check)
        self.assertGreater(record["simulated"]["error_rate"], 0.0, check)

    def test_clean_run_is_correct(self):
        code, lines = bench("--workload", "fig2_ipaq")
        self.assertEqual(code, 0)
        result = json.loads(lines[-1])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})

    def test_fig2_checks(self):
        for check in ("throw", "ledger", "watchdog", "xval"):
            with self.subTest(check=check):
                self.assert_counted("fig2_ipaq", check)

    def test_policy_sweep_throw(self):
        self.assert_counted("policy_sweep", "throw")

    def test_federation_checks(self):
        for check in ("conserved", "fingerprint"):
            with self.subTest(check=check):
                self.assert_counted("fed_city_sharded", check)


class BareDirectory(unittest.TestCase):
    def test_refuses_without_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, lines = bench("--workload", "fig2_ipaq", cwd=bare)
            self.assertNotEqual(code, 0)
            self.assertFalse(lines and lines[-1].startswith("{"))
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
