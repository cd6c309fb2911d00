"""Self-test of the benchmark: tiny passes of every workload, the
correctness gate, the trace wrappers and the refusal to run without the
program.

    PYTHONPATH=src python3 -m pytest perfbench
"""

import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import child  # noqa: E402
import gate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from shifted_tableaux import cli  # noqa: E402


def tiny_failures(workload: str, reference: dict,
                  seed: int = workloads.DEFAULT_SEED) -> tuple[int, list]:
    queries = workloads.build(workload, seed, tiny=True)
    outcomes, _ = child.run_queries(cli.main, queries)
    return len(queries), child.failures(queries, outcomes, reference)


class SelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.reference = gate.load_reference()

    def test_tiny_workloads_have_no_errors(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                attempted, problems = tiny_failures(workload, self.reference)
                self.assertGreater(attempted, 0)
                self.assertEqual(problems, [])

    def test_corrupted_reference_entry_is_an_error(self):
        query = workloads.build("verify-bk", workloads.DEFAULT_SEED, tiny=True)[0]
        for field, value in (("sha256", "0" * 64), ("exit", 1)):
            with self.subTest(field=field):
                reference = copy.deepcopy(self.reference)
                reference[gate.key(query)][field] = value
                attempted, problems = tiny_failures("verify-bk", reference)
                self.assertEqual(len(problems), 1, problems)
                self.assertGreater(len(problems) / attempted, 0)

    def test_independent_checks_reject_a_wrong_result(self):
        query = next(q for q in workloads.build("explore", 0, tiny=True)
                     if q["kind"] == "apply")
        outcomes, _ = child.run_queries(cli.main, [query])
        doc = json.loads(outcomes[0][1])
        gate.independent(query, doc)
        doc["result"] += "\n1"  # one cell more than the input has
        with self.assertRaises(ValueError):
            gate.independent(query, doc)

    def test_traced_pass_reports_every_per_layer_metric(self):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            # a seed no other test uses, so that no cache holds its results
            attempted, problems = tiny_failures("explore", self.reference, seed=1)
        finally:
            tracer.uninstall()
        self.assertEqual(problems, [])
        self.assertFalse(hasattr(cli.main, "__perfbench_wrapper__"))
        metrics = tracer.metrics()
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            declared = {m["name"] for m in json.load(fh)["per_layer"]}
        self.assertEqual(set(metrics) | {"trace.overhead_ratio"}, declared)
        self.assertEqual(metrics["cli.queries"][0], attempted)
        self.assertGreater(metrics["bender_knuth.bk.calls"][0], 0)
        self.assertGreater(metrics["switching.steps"][0], 0)
        self.assertGreater(metrics["core.construct.calls"][0], 0)

    def test_refuses_to_run_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(BENCH, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "explore",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
