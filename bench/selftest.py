"""Self-tests of the benchmark itself.

    python3 bench/selftest.py

The smoke tests run one pass of every workload, untraced and traced, in
fresh processes (about two minutes on two cores); the tracer tests run in
process.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (bench/run.py)

run.os.environ.update(run.THREADS)
workloads = run.import_package()

from lagdpw import dpw, factorization, loops, periodicity, potentials  # noqa: E402
from tracer import Span, Tracer  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, cwd=run.ROOT, timeout=300)
    assert proc.returncode == 0, proc.stdout
    return json.loads(proc.stdout.strip().splitlines()[-1])


class BenchmarkSpec(unittest.TestCase):
    def test_metric_tables_match_benchmark_json(self):
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["per_layer"]},
                         {k: v[0] for k, v in run.PER_LAYER.items()})
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(workloads.WORKLOADS))

    def test_tail_is_highest_percentile_with_ten_beyond(self):
        for n, p in ((5, 50.0), (25, 50.0), (40, 75.0), (99, 75.0), (100, 90.0),
                     (200, 95.0), (1000, 99.0)):
            self.assertEqual(run.tail_percentile(list(range(n)))[0], p, n)


class Smoke(unittest.TestCase):
    """One pass of each workload emits every named metric with its unit."""

    def check(self, workload: str, trace: int):
        result = run_once(workload, trace)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                         {m["name"]: m["unit"] for m in expected})
        for name, metric in result["metrics"].items():
            self.assertTrue(math.isfinite(metric["value"]), name)
            if not trace:
                self.assertGreater(metric["value"], 0.0, name)
        # radial_k1's crosscheck raises SeedTooLarge on each piece: attempted, and failed
        self.assertEqual(result["failed"],
                         workloads.CROSSCHECK_PIECES * (1 + trace) if workload == "crosscheck"
                         else 0)
        return result

    def test_build(self):
        for trace in (0, 1):
            self.check("build", trace)

    def test_validate(self):
        for trace in (0, 1):
            self.check("validate", trace)

    def test_crosscheck(self):
        for trace in (0, 1):
            self.check("crosscheck", trace)


class TracerTests(unittest.TestCase):
    def setUp(self):
        self.tracer = Tracer()
        self.spec, _ = potentials.spec_from_dict(workloads._bundled("clifford"))

    def test_one_frame_point_counts_one_integration_and_one_split(self):
        with self.tracer.installed(), self.tracer.job("frame_point") as trace:
            dpw.frame_point(self.spec, 0.5)
        self.assertEqual(trace.calls["dpw.frame_point"], 1)
        self.assertEqual(trace.calls["dpw.integrate_frame"], 1)
        self.assertEqual(trace.calls["factorization.iwasawa"], 1)
        self.assertGreater(trace.calls["potentials.PotentialSpec.coefficient_matrix"], 0)
        self.assertEqual(trace.nesting_errors(), [])
        parents = {s.name: s.parent.name for s in trace.spans[1:]}
        self.assertEqual(parents["dpw.integrate_frame"], "dpw.frame_point")
        self.assertEqual(parents["factorization.iwasawa"], "dpw.frame_point")
        selfs = trace.self_times()
        self.assertTrue(all(v >= 0.0 for v in selfs.values()), selfs)
        self.assertLessEqual(sum(selfs.values()), trace.wall_s)

    def test_exact_counts_repeat(self):
        with self.tracer.installed():
            for _ in range(2):
                with self.tracer.job("frame_point"):
                    dpw.frame_point(self.spec, 0.5)
        first, second = self.tracer.jobs
        self.assertEqual(first.calls, second.calls)

    def test_span_outside_its_parent_is_caught(self):
        with self.tracer.installed(), self.tracer.job("frame_point") as trace:
            dpw.frame_point(self.spec, 0.5)
        # a span recorded from another thread: it starts before the job and
        # ends inside the job's frame_point span
        root = trace.spans[0]
        sibling = next(s for s in trace.spans if s.parent is root)
        stray = Span("dpw.integrate_frame", root.start - 1.0, root, trace.job_id)
        stray.end = 0.5 * (sibling.start + sibling.end)
        trace.spans.append(stray)
        errors = trace.nesting_errors()
        self.assertTrue(any("outside its parent" in e for e in errors), errors)
        self.assertTrue(any("overlaps its sibling" in e for e in errors), errors)

    def test_name_imported_bindings_are_patched_and_restored(self):
        original = factorization.iwasawa
        with self.tracer.installed():
            self.assertIsNot(factorization.iwasawa, original)
            self.assertIs(dpw.iwasawa, factorization.iwasawa)
            self.assertIs(periodicity.iwasawa, factorization.iwasawa)
            self.assertIs(factorization.max_distance_on_circle,
                          loops.max_distance_on_circle)
        self.assertIs(factorization.iwasawa, original)
        self.assertIs(dpw.iwasawa, original)

    def test_calls_outside_a_job_are_not_recorded(self):
        with self.tracer.installed():
            dpw.frame_point(self.spec, 0.5)
        self.assertEqual(self.tracer.jobs, [])

    def test_removed_function_reports_absent(self):
        saved = dpw.grid_sample
        del dpw.grid_sample
        try:
            tracer = Tracer()
        finally:
            dpw.grid_sample = saved
        self.assertNotIn("dpw.grid_sample", tracer.targets)
        self.assertEqual(run.absent_metrics(tracer.targets), ["dpw.grid_sample.self_s"])
        self.assertEqual(run.absent_metrics(self.tracer.targets), [])


if __name__ == "__main__":
    unittest.main()
