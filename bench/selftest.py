"""Tests of the benchmark itself (about two minutes on two cores).

    python3 bench/selftest.py

They check that the benchmark keeps its contract with ``BENCHMARK.json``,
that the exact counters repeat between runs with one seed, that the
tracer sees callers that imported a function by name, that each request
keeps its best time over the rounds, that the output checks reject
wrong values, and that a directory holding only the benchmark fails
without printing a result.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
from layers import EXACT_COUNTS, HOOKS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

_RESULTS: dict[tuple, dict] = {}


def bench(workload: str, trace: int, seed: int = 7, seconds: int = 1,
          cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=180)


def result(workload: str, trace: int, run_index: int = 0) -> dict:
    key = (workload, trace, run_index)
    if key not in _RESULTS:
        proc = bench(workload, trace)
        if proc.returncode != 0:
            raise AssertionError(proc.stderr)
        _RESULTS[key] = json.loads(proc.stdout.splitlines()[-1])
    return _RESULTS[key]


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


class ContractTest(unittest.TestCase):
    def test_benchmark_json_shape(self):
        s = spec()
        self.assertEqual(set(s), {"command", "paths", "run_seconds", "workloads",
                                  "end_to_end", "per_layer"})
        self.assertEqual(s["command"], ["python3", "bench/run.py"])
        self.assertEqual(s["paths"], ["bench"])
        self.assertEqual([w["name"] for w in s["workloads"]], list(run.WORKLOADS))
        names = [m["name"] for m in s["end_to_end"] + s["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for m in s["end_to_end"] + s["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
        for m in s["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in s["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in s["end_to_end"]))

    def test_every_workload_reports_every_metric_and_passes_its_checks(self):
        for workload in run.WORKLOADS:
            for trace in (0, 1):
                units = run.metric_units(trace)
                with self.subTest(workload=workload, trace=trace):
                    r = result(workload, trace)
                    self.assertEqual(set(r), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(r["correct"])
                    self.assertEqual(r["failed"], 0)
                    self.assertGreaterEqual(r["attempted"], 1)
                    self.assertEqual({k: m["unit"] for k, m in r["metrics"].items()}, units)
            for name, m in result(workload, 0)["metrics"].items():
                self.assertGreater(m["value"], 0.0, f"{workload} {name}")

    def test_directory_without_the_program_fails_without_a_result(self):
        os.makedirs(run.WORKDIR, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.WORKDIR) as d:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
            shutil.copytree(HERE, os.path.join(d, "bench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench("cli", 0, cwd=d)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


class CountsTest(unittest.TestCase):
    def test_exact_counts_repeat_between_runs_with_one_seed(self):
        for workload in run.WORKLOADS:
            first, second = result(workload, 1, 0), result(workload, 1, 1)
            for name in EXACT_COUNTS:
                with self.subTest(workload=workload, counter=name):
                    self.assertEqual(first["metrics"][name], second["metrics"][name])

    def test_counts_where_the_work_happens(self):
        queries = result("point_queries", 1)["metrics"]
        self.assertGreater(queries["design.candidates"]["value"], 0)
        self.assertGreater(queries["transmission.transmission_pair_calls"]["value"],
                           queries["design.candidates"]["value"])
        self.assertGreater(queries["steady.iterations_per_solve"]["value"], 0)
        dense = result("dense_sweep", 1)["metrics"]
        self.assertEqual(dense["transmission.transmission_pair_calls"]["value"], 0)
        self.assertGreater(dense["sweep.points_per_s_1thread"]["value"], 0)
        cli = result("cli", 1)["metrics"]
        # the spectrum and fig3c CSVs; the phase map goes out as JSON
        self.assertEqual(cli["sweep.rows"]["value"], 2 * 1001)
        self.assertGreater(cli["sweep.csv_bytes"]["value"], 0)
        self.assertGreater(cli["sweep.table_to_json_s"]["value"], 0)
        self.assertGreater(cli["cli.cli_main_self_s"]["value"], 0)


class TracerTest(unittest.TestCase):
    def test_callers_that_imported_by_name_are_traced(self):
        import nonrecip
        import nonrecip.design
        from tracer import Tracer, install, summarize

        tracer = Tracer()
        bound = install(tracer, HOOKS)
        transmission = sys.modules["nonrecip.transmission"]
        self.assertIs(nonrecip.design.transmission_pair,
                      transmission.transmission_pair)
        self.assertIs(sys.modules["nonrecip.sweep"].sweep, nonrecip.sweep)
        self.assertGreaterEqual(bound["transmission.transmission_pair"], 4)
        tracer.active = True
        with tracer.span("bench.design") as root:
            nonrecip.design_isolator(10.0, 1.0, 0.01, 1.0)
        tracer.active = False
        self_s, durations, calls = summarize(tracer)
        self.assertEqual(calls["transmission.transmission_pair"],
                         tracer.counts["transmission.transmission_pair_calls"])
        self.assertEqual(calls["transmission.transmission_pair"],
                         tracer.counts["design.candidates"])
        self.assertAlmostEqual(sum(self_s.values()), root.duration, delta=1e-9)


class BestTimesTest(unittest.TestCase):
    def test_each_request_keeps_its_shortest_time(self):
        from worker import keep_best

        first = [("a", 3.0), ("b", 1.0), ("a", 2.0)]
        second = [("a", 1.0), ("b", 2.0), ("a", 2.0)]
        self.assertEqual(keep_best(first, second), [("a", 1.0), ("b", 1.0), ("a", 2.0)])
        with self.assertRaises(RuntimeError):
            keep_best(first, [("b", 1.0), ("a", 1.0), ("a", 1.0)])


class ChecksTest(unittest.TestCase):
    def test_checks_reject_wrong_values(self):
        import workloads
        class Runner:
            @staticmethod
            def timed(kind):
                return contextlib.nullcontext()

        w = workloads.Workload(0)
        p = workloads.figure_preset("fig4d").fixed
        t12, t21 = workloads.lu_pair(p, 0.3)
        w.attempt(Runner, "exact", lambda: (t12, t21),
                  lambda t: w.check_point("exact", p, 0.3, *t))
        self.assertEqual((w.attempted, w.failed), (1, 0))
        w.attempt(Runner, "off", lambda: (t12 * (1 + 1e-9), t21 * (1 + 1e-9)),
                  lambda t: w.check_point("off by 1e-9", p, 0.3, *t))
        self.assertEqual((w.attempted, w.failed), (2, 1))
        self.assertEqual(len(w.failures), 1)
        ref = {"max_T12": {"y": 0.1, "value": 0.5}, "singular_points": 0}
        self.assertEqual(workloads.compare_landmarks(ref, ref), [])
        self.assertEqual(len(workloads.compare_landmarks(
            ref, {"max_T12": {"y": 0.2, "value": 0.5 + 1e-6},
                  "singular_points": 1})), 2)


if __name__ == "__main__":
    unittest.main()
