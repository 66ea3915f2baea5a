"""Tests of the benchmark itself, at tiny sizes.

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import harness  # noqa: E402
import spans  # noqa: E402
from transversals import exact  # noqa: E402
from transversals.collection import Collection  # noqa: E402
from transversals.hypergraph import complete_graph  # noqa: E402
from workloads import WORKLOADS, Answer, CheckFailed, Task, _solve_cycle_negative  # noqa: E402

TINY = {
    "pipeline_dense": dataclasses.replace(WORKLOADS["pipeline_dense"], n=40, pinned_rounds=1),
    "exact_negative": dataclasses.replace(WORKLOADS["exact_negative"], dirac_sizes=(6, 7), pinned_rounds=1, setup_repeats=2),
    "scan_random": dataclasses.replace(WORKLOADS["scan_random"], n=8, pinned_rounds=1, setup_repeats=1),
}
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def declared(kind):
    return {m["name"]: m["unit"] for m in DECLARED[kind]}


def reported(metrics):
    return {name: unit for name, (_, unit) in metrics.items()}


class SmokeTest(unittest.TestCase):
    def test_each_workload_answers_everything_and_reports_declared_metrics(self):
        self.assertEqual(sorted(w["name"] for w in DECLARED["workloads"]), sorted(WORKLOADS))
        for name, workload in TINY.items():
            with self.subTest(workload=name):
                p, metrics, _ = harness.measure(workload, seed=1, seconds=0.0, trace=False)
                self.assertEqual(p.failed, 0)
                self.assertEqual(reported(metrics), declared("end_to_end"))
                self.assertTrue(all(value > 0 for value, _ in metrics.values()))

    def test_traced_counters_repeat_at_a_seed_and_another_seed_passes(self):
        counted = ("calls", "none", "exact.nodes", "pipeline.attempts")
        for name, workload in TINY.items():
            with self.subTest(workload=name):
                runs = [harness.measure(workload, seed=3, seconds=0.0, trace=True) for _ in range(2)]
                self.assertEqual(reported(runs[0][1]), declared("per_layer"))
                first, second = (
                    {k: v for k, (v, _) in m.items() if k.endswith(counted)} for _, m, _ in runs
                )
                self.assertEqual(first, second)
                self.assertEqual(runs[0][0].digest.hexdigest(), runs[1][0].digest.hexdigest())
                harness.measure(workload, seed=4, seconds=0.0, trace=True)

    def test_wrappers_are_restored_after_the_traced_run(self):
        original = exact.find_transversal_cycle
        tracer = spans.Tracer()
        with tracer.installed():
            self.assertNotEqual(spans.wrappers_present(), [])
            self.assertIsNot(exact.find_transversal_cycle, original)
        self.assertEqual(spans.wrappers_present(), [])
        self.assertIs(exact.find_transversal_cycle, original)


class ScalingTest(unittest.TestCase):
    def test_sampler_scales_by_nearby_speeds_less_its_own_time(self):
        sampler = harness.SpeedSampler()
        sampler.starts.extend([0.0, 1.0, 2.0, 3.0])
        sampler.ends.extend([0.1, 1.1, 2.1, 3.1])
        sampler.speeds.extend([1.0, 2.0, 4.0, 8.0])
        # two samples inside, taking 0.2 s, and one on each side
        self.assertAlmostEqual(sampler.scaled(0.5, 2.5), (2.0 - 0.2) * 15 / 4)
        # no sample inside: the nearest one on each side
        self.assertAlmostEqual(sampler.scaled(1.2, 1.8), 0.6 * 3.0)


class GateTest(unittest.TestCase):
    def test_a_cycle_found_on_an_expected_negative_aborts(self):
        positive = Collection(5, 2, (complete_graph(5),) * 5)
        with self.assertRaises(CheckFailed):
            _solve_cycle_negative(positive)

    def test_a_later_pass_that_answers_differently_aborts(self):
        C = Collection(5, 2, (complete_graph(5),) * 5)
        statuses = iter(["none", "exhausted"])

        class Flaky:
            name = "flaky"
            pinned_rounds = 1
            setup_repeats = 1

            def round(self, seed, r):
                return [Task("flaky", lambda _: (C, Answer(next(statuses))))]

        with self.assertRaises(CheckFailed):
            harness.run_pass(Flaky(), seed=1, seconds=60.0)

    def test_run_without_library_sources_fails_without_a_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH, Path(tmp) / "bench", ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "scan_random", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
