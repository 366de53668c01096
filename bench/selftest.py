#!/usr/bin/env python3
"""The benchmark's own tests; rrqc is not modified.

    python3 bench/selftest.py

Runs each workload at a tiny size, untraced and traced, and checks that the
metric names match ``BENCHMARK.json``. Then makes one oracle expect a wrong
value and checks that the cases fail and the command exits nonzero. The file
name keeps it out of the repository's pytest collection, since each run
takes seconds.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

import oracles
import run
from workloads import WORKLOADS

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def invoke(workload: str, trace: int) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run.main(
            ["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)]
        )
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


class TinyRuns(unittest.TestCase):
    def test_every_metric_name_is_emitted(self):
        expected = {
            0: [(m["name"], m["unit"]) for m in SPEC["end_to_end"]],
            1: [(m["name"], m["unit"]) for m in SPEC["per_layer"]],
        }
        self.assertEqual(sorted(WORKLOADS), sorted(w["name"] for w in SPEC["workloads"]))
        for name, workload in WORKLOADS.items():
            for trace in (0, 1):
                with self.subTest(workload=name, trace=trace), mock.patch.object(
                    workload, "trace_cases", 2
                ):
                    code, result = invoke(name, trace)
                    self.assertEqual(code, 0)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = [(k, v["unit"]) for k, v in result["metrics"].items()]
                    self.assertEqual(got, expected[trace])

    def test_layers_outside_verify_cli_read_zero_for_nogo_and_cli(self):
        with mock.patch.object(WORKLOADS["narrow-sweep"], "trace_cases", 2):
            _, result = invoke("narrow-sweep", 1)
        metrics = result["metrics"]
        for name in ("nogo.cells", "nogo.fixed_bit_scan.self_ms", "cli.report_bytes",
                     "cli.command.self_ms"):
            self.assertEqual(metrics[name]["value"], 0, name)
        self.assertEqual(metrics["protocols.runs"]["value"], 4)


class WrongExpectation(unittest.TestCase):
    def test_wrong_baseline_fidelity_fails_the_run(self):
        wrong = lambda alpha, beta: abs(alpha) ** 4 + abs(beta) ** 4 + 1e-6
        with mock.patch.object(oracles, "baseline_fidelity", wrong):
            code, result = invoke("narrow-sweep", 0)
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"] / result["attempted"], 0)

    def test_wrong_entanglement_breaking_verdict_fails_the_run(self):
        flipped = lambda weights: max(weights) > 0.5
        with mock.patch.object(oracles, "pauli_entanglement_breaking", flipped), mock.patch.object(
            WORKLOADS["verify-cli"], "trace_cases", 1
        ):
            code, result = invoke("verify-cli", 1)
        self.assertNotEqual(code, 0)
        self.assertEqual(result["failed"], result["attempted"])


class Standalone(unittest.TestCase):
    def test_fails_without_rrqc_sources(self):
        """A tree holding only the benchmark exits nonzero and prints no result."""
        bench = Path(__file__).resolve().parent
        run.OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.OUT) as tree:
            shutil.copy(run.ROOT / "BENCHMARK.json", tree)
            shutil.copytree(bench, Path(tree) / bench.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = subprocess.run(
                [sys.executable, *SPEC["command"][1:], "--workload", "narrow-sweep",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tree, capture_output=True, text=True, timeout=120,
            )
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn("{", done.stdout)


if __name__ == "__main__":
    unittest.main()
