#!/usr/bin/env python3
"""Self-tests of the dtrank benchmark.

    python3 perfbench/test_perfbench.py            # statistics rules
    PERFBENCH_SMOKE=1 python3 perfbench/test_perfbench.py   # + smoke runs

The unit tests cover the percentile rule, whole-window tails, the
window lengths, the SLO ladder's backlog detection, lateness accounting
and the agreement check. The smoke tests (opt-in: they build the program) run
every workload for a few seconds, plain and traced, check the result
line against BENCHMARK.json, and check that the benchmark refuses to run
without a source tree.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import pbstats  # noqa: E402

ROOT = HERE.parent


def records(latencies, start=0.0, period=0.001, status=0, lateness=0.0):
    return [(start + i * period, lateness, lat, status)
            for i, lat in enumerate(latencies)]


class PercentileRule(unittest.TestCase):
    def test_min_samples(self):
        self.assertEqual(pbstats.min_samples(0.99), 1000)
        self.assertEqual(pbstats.min_samples(0.9), 100)
        self.assertEqual(pbstats.min_samples(0.96), 250)

    def test_tail_refuses_short_samples(self):
        values = sorted(float(i) for i in range(999))
        with self.assertRaises(pbstats.InsufficientSamples):
            pbstats.tail(values, 0.99)
        values.append(999.0)
        # Ten samples (990..999) lie beyond the reported value.
        self.assertEqual(pbstats.tail(values, 0.99), 989.0)
        self.assertEqual(sum(v > 989.0 for v in values), 10)

    def test_median_is_exempt(self):
        self.assertEqual(pbstats.tail([3.0], 0.5), 3.0)

    def test_nearest_rank(self):
        self.assertEqual(pbstats.nearest_rank([1, 2, 3, 4], 0.5), 2)
        self.assertEqual(pbstats.nearest_rank([1, 2, 3, 4], 1.0), 4)
        self.assertEqual(pbstats.nearest_rank([1, 2, 3, 4], 0.0), 1)


class WholeWindowTails(unittest.TestCase):
    def test_bursts_in_part_of_the_window_move_the_tail(self):
        # Slow requests in 30% of the window, in bursts: a tail over the
        # whole window must show them.
        lat = [0.001] * 10000
        for start in range(0, 10000, 1000):
            for i in range(start, start + 300):
                lat[i] = 0.020
        s = pbstats.summarize(records(lat), 0.9)
        self.assertEqual(s["tail_s"], 0.020)
        self.assertEqual(s["p50_s"], 0.001)

    def test_too_short_a_window_has_no_tail(self):
        s = pbstats.summarize(records([0.001] * 99), 0.9)
        self.assertEqual(s["tail_s"], float("inf"))

    def test_every_window_satisfies_the_rule(self):
        import run
        for cfg in (run.WARM, run.COLD):
            for seconds in (1, 3, 50):
                for trace in (False, True):
                    for name, rate, length in run.serve_phases(
                            cfg, seconds, trace):
                        if name != "ramp":
                            self.assertGreaterEqual(
                                rate * length,
                                pbstats.min_samples(cfg["q"]))


class LadderAndLateness(unittest.TestCase):
    def test_backlog_detected_when_lateness_grows(self):
        dues = [i * 0.001 for i in range(1000)]
        growing = [i * 0.00001 for i in range(1000)]  # 0 -> 10 ms
        self.assertTrue(pbstats.lateness_growing(dues, growing))

    def test_noisy_flat_lateness_is_no_backlog(self):
        dues = [i * 0.001 for i in range(1000)]
        flat = [0.0005 if i % 7 else 0.004 for i in range(1000)]
        self.assertFalse(pbstats.lateness_growing(dues, flat))

    def test_lateness_accounting(self):
        recs = records([0.002] * 200, lateness=0.0001)
        recs += [(1.0, -1.0, -1.0, 3)]  # never sent, never answered
        s = pbstats.summarize(recs, 0.9)
        self.assertAlmostEqual(s["lateness_mean_s"], 0.0001)
        self.assertAlmostEqual(s["lateness_p99_s"], 0.0001)
        self.assertEqual((s["sent"], s["ok"], s["failed"]), (201, 200, 1))
        self.assertFalse(s["backlog"])

    def test_rung_verdicts(self):
        ok = pbstats.summarize(records([0.002] * 2000), 0.99)
        self.assertEqual(pbstats.rung_passes(ok, 0.010), (True, []))
        slow = pbstats.summarize(records([0.020] * 2000), 0.99)
        passed, why = pbstats.rung_passes(slow, 0.010)
        self.assertFalse(passed)
        self.assertIn("tail", why[0])
        shed = records([0.002] * 2000)
        shed = [(d, l, lat, 2 if i % 10 == 0 else 0)
                for i, (d, l, lat, _) in enumerate(shed)]
        passed, why = pbstats.rung_passes(pbstats.summarize(shed, 0.9),
                                          0.010)
        self.assertFalse(passed)
        self.assertIn("fail share", why[0])
        late = [(i * 0.001, i * 0.00001, 0.002, 0) for i in range(2000)]
        passed, why = pbstats.rung_passes(pbstats.summarize(late, 0.99),
                                          0.010)
        self.assertFalse(passed)
        self.assertIn("lateness", why[0])

    def test_ladder_max_takes_the_highest_passing_rung(self):
        self.assertEqual(pbstats.ladder_max(
            [(1000, True), (2000, False), (4000, True), (8000, False)]),
            4000)
        self.assertEqual(pbstats.ladder_max([(1000, False)]), 0.0)


class Agreement(unittest.TestCase):
    HOST = {"nproc": 4, "cpu_model": "x", "simd_tier": "avx2",
            "compiler": "12", "build_type": "Release"}
    METRICS = [{"name": "wall_s", "better": "lower", "bound": 0.1}]

    def doc(self, wall, **host):
        return {"host": dict(self.HOST, **host),
                "workloads": {"w": {"wall_s": {"median": wall}}}}

    def test_refuses_other_host_or_tier(self):
        with self.assertRaises(ValueError):
            pbstats.agreement(self.doc(1.0), self.doc(1.0, simd_tier="avx512"),
                              self.METRICS)
        with self.assertRaises(ValueError):
            pbstats.agreement(self.doc(1.0), self.doc(1.0, nproc=1),
                              self.METRICS)

    def test_bounds(self):
        rows = pbstats.agreement(self.doc(1.0), self.doc(1.05), self.METRICS)
        self.assertEqual(rows[0][4], True)
        rows = pbstats.agreement(self.doc(1.0), self.doc(1.2), self.METRICS)
        self.assertEqual(rows[0][4], False)
        self.assertAlmostEqual(rows[0][2], 0.2)

    def test_spread_matches_quantiles(self):
        vals = [1.0, 1.1, 0.9, 1.3, 1.0, 1.2, 0.95, 1.05, 1.15, 0.85]
        q1, _, q3 = statistics.quantiles(vals, n=4)
        self.assertAlmostEqual(pbstats.spread(vals),
                               (q3 - q1) / statistics.median(vals))


@unittest.skipUnless(os.environ.get("PERFBENCH_SMOKE") == "1",
                     "set PERFBENCH_SMOKE=1 to build and run the workloads")
class Smoke(unittest.TestCase):
    SECONDS = "3"

    @classmethod
    def setUpClass(cls):
        with open(ROOT / "BENCHMARK.json") as f:
            cls.spec = json.load(f)

    def run_bench(self, workload, trace):
        res = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", "5", "--seconds", self.SECONDS, "--trace", str(trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        self.assertEqual(res.returncode, 0, res.stdout[-2000:])
        result = json.loads(res.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        names = [m["name"] for m in
                 self.spec["per_layer" if trace else "end_to_end"]]
        self.assertEqual(sorted(result["metrics"]), sorted(names))
        for m in self.spec["per_layer" if trace else "end_to_end"]:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
        return result

    def test_workloads(self):
        # Every workload run.py knows, including serve_warm_mlp, which
        # BENCHMARK.json does not list.
        import run
        self.assertLessEqual({w["name"] for w in self.spec["workloads"]},
                             set(run.WORKLOADS))
        for name in run.WORKLOADS:
            with self.subTest(workload=name):
                result = self.run_bench(name, 0)
                for m in self.spec["end_to_end"]:
                    self.assertGreater(result["metrics"][m["name"]]["value"],
                                       0)

    def test_traced(self):
        self.run_bench("table2_offline", 1)

    def test_refuses_without_source_tree(self):
        bare = ROOT / ".bench_build" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        res = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             "table2_offline", "--seed", "1", "--seconds", "1", "--trace",
             "0"], cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=180)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(res.returncode, 0)
        self.assertNotIn('"correct"', res.stdout)


if __name__ == "__main__":
    unittest.main()
