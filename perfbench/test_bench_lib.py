"""Unit tests for the benchmark's own logic (bench_lib.py).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import math
import random
import statistics
import unittest

import bench_lib as lib


class PercentileTest(unittest.TestCase):
    def test_interpolates_and_reports_count(self):
        self.assertEqual(lib.percentile([3, 1, 2], 50), (2, 3))
        self.assertEqual(lib.percentile([1, 2, 3, 4], 50), (2.5, 4))
        value, n = lib.percentile(list(range(11)), 90)
        self.assertAlmostEqual(value, 9.0)
        self.assertEqual(n, 11)

    def test_single_sample_and_empty(self):
        self.assertEqual(lib.percentile([7.5], 90), (7.5, 1))
        with self.assertRaises(ValueError):
            lib.percentile([], 50)

    def test_infinite_misses_push_the_tail(self):
        values = [10.0] * 9 + [math.inf]
        self.assertLess(lib.percentile(values, 80)[0], math.inf)
        self.assertEqual(lib.percentile(values + [math.inf], 90)[0], math.inf)

    def test_harrell_davis(self):
        self.assertEqual(lib.hd_quantile([4.0] * 9, 90), (4.0, 9))
        self.assertAlmostEqual(lib.hd_quantile([1, 2, 3, 4, 5], 50)[0], 3.0)
        self.assertAlmostEqual(lib.beta_cdf(0.5, 2.0, 2.0), 0.5)
        self.assertAlmostEqual(lib.beta_cdf(0.3, 1.0, 1.0), 0.3)
        # Two latency levels: the estimate moves with their proportions
        # instead of jumping from one level to the other.
        lo = lib.hd_quantile([100.0] * 26 + [120.0] * 24, 50)[0]
        hi = lib.hd_quantile([100.0] * 24 + [120.0] * 26, 50)[0]
        self.assertTrue(100.0 < lo < hi < 120.0)
        self.assertLess(hi - lo, 10.0)

    def test_samples_beyond(self):
        self.assertEqual(lib.samples_beyond(100, 90), 10)
        self.assertEqual(lib.samples_beyond(55, 90), 5)
        self.assertEqual(lib.samples_beyond(5, 90), 0)

    def test_spread_matches_statistics_quantiles(self):
        values = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(lib.spread(values), (q3 - q1) / q2)


class ScheduleTest(unittest.TestCase):
    def test_jittered_is_seeded_sorted_and_near_rate(self):
        a = lib.jittered_schedule(random.Random(5), 50.0, 2000, 0.5)
        self.assertEqual(a, lib.jittered_schedule(random.Random(5), 50.0,
                                                  2000, 0.5))
        self.assertEqual(len(a), 2000)
        self.assertEqual(a, sorted(a))
        self.assertGreaterEqual(a[0], 0.0)
        self.assertAlmostEqual(a[-1], 40.0, delta=1.0)
        self.assertNotEqual(a, lib.jittered_schedule(random.Random(6), 50.0,
                                                     2000, 0.5))

    def test_jittered_gaps_stay_in_band(self):
        times = lib.jittered_schedule(random.Random(1), 10.0, 50, 0.2)
        gaps = [b - a for a, b in zip(times, times[1:])]
        self.assertTrue(all(0.08 - 1e-12 <= g <= 0.12 + 1e-12 for g in gaps))
        self.assertLess(times[0], 0.1)

    def test_cycles_cover_the_grid_with_baselines_spread(self):
        grid, base = list(range(12)), ["x", "y"]
        cycle = lib.request_cycle(random.Random(3), grid, base)
        self.assertEqual(sorted(c for c in cycle if c in grid), grid)
        self.assertEqual([c for c in cycle if c in base], base)
        self.assertNotEqual(cycle[-1], "y")  # not all bunched at the end
        stream = lib.request_stream(9, grid, base, 40)
        self.assertEqual(len(stream), 40)
        self.assertEqual(stream, lib.request_stream(9, grid, base, 40))
        self.assertEqual(sorted(c for c in stream[:14] if c in grid), grid)


class GoodputTest(unittest.TestCase):
    def test_backlog_detection(self):
        flat = [(i * 0.1, i % 3) for i in range(30)]
        self.assertFalse(lib.backlog_grows(flat, workers=4))
        rising = [(i * 0.1, i // 2) for i in range(30)]
        self.assertTrue(lib.backlog_grows(rising, workers=4))
        self.assertFalse(lib.backlog_grows(rising[:5], workers=4))

    def test_step_passes(self):
        fast = [100.0] * 20
        self.assertTrue(lib.step_passes(fast, 0, 500.0, False))
        self.assertFalse(lib.step_passes(fast, 0, 500.0, True))
        self.assertTrue(lib.step_passes(fast, 1, 500.0, False))
        self.assertFalse(lib.step_passes(fast, 3, 500.0, False))
        self.assertFalse(lib.step_passes([], 0, 500.0, False))
        self.assertFalse(lib.step_passes([900.0] * 20, 0, 500.0, False))

    def test_good_rate(self):
        sent = [i * 0.1 for i in range(11)]
        self.assertAlmostEqual(lib.good_rate(sent, 0), 10.0)
        self.assertAlmostEqual(lib.good_rate(sent, 11), 0.0)
        self.assertEqual(lib.good_rate([1.0], 0), 0.0)

    @staticmethod
    def search(capacity, climb=1.5, bisections=3, top=64.0):
        """Runs a RateSearch against a server that passes every rate up to
        `capacity`; returns (offered rates, goodput)."""
        s = lib.RateSearch(climb, bisections, top)
        rates = [5.0, 8.0]
        for r in rates:
            s.record({"rate": r, "passed": r <= capacity, "good_rps": r})
        while (r := s.next_rate()) is not None:
            rates.append(r)
            s.record({"rate": r, "passed": r <= capacity, "good_rps": r})
        return rates, s.goodput()

    def test_search_climbs_then_bisects(self):
        rates, gp = self.search(16.5)
        self.assertEqual(rates[:4], [5.0, 8.0, 12.0, 18.0])
        self.assertEqual(len(rates), 7)  # three bisections after the failure
        self.assertAlmostEqual(rates[4], math.sqrt(12.0 * 18.0))
        # Known to within climb ** (1 / 8): about 5%.
        self.assertLessEqual(gp, 16.5)
        self.assertGreater(gp, 16.5 / 1.5 ** 0.125)

    def test_search_resolves_small_changes(self):
        # A capacity drop of 15% must show as a goodput drop of at least
        # 15% minus the search's resolution.
        for capacity in (13.0, 15.0, 17.0, 19.0):
            before = self.search(capacity)[1]
            after = self.search(capacity * 0.85)[1]
            self.assertLess(after / before, 0.85 * 1.5 ** 0.125)
        # And a 2x faster server reads about 2x.
        self.assertGreater(self.search(34.0)[1] / self.search(17.0)[1], 1.8)

    def test_search_stops_at_top_and_on_early_failure(self):
        rates, gp = self.search(1000.0, top=30.0)
        self.assertEqual(rates, [5.0, 8.0, 12.0, 18.0, 27.0])
        self.assertEqual(gp, 27.0)
        rates, gp = self.search(3.0)  # lo fails: no goodput at all
        self.assertEqual(rates, [5.0, 8.0])
        self.assertIsNone(gp)
        rates, gp = self.search(6.0)  # hi fails: bisect between lo and hi
        self.assertEqual(len(rates), 5)
        self.assertTrue(5.0 <= gp <= 6.0)


class QuietestTest(unittest.TestCase):
    def test_keeps_quiet_values_in_order(self):
        values = [10, 20, 30, 40]
        steals = [0.0, 0.05, 0.01, 0.0]
        self.assertEqual(lib.quietest(values, steals, 0.02), [10, 30, 40])

    def test_never_fewer_than_the_quietest_share(self):
        values = [10, 20, 30, 40, 50]
        steals = [0.09, 0.05, 0.30, 0.04, 0.20]
        self.assertEqual(lib.quietest(values, steals, 0.02), [10, 20, 40])
        self.assertEqual(lib.quietest([7], [0.5], 0.02), [7])
        with self.assertRaises(ValueError):
            lib.quietest([1, 2], [0.0], 0.02)


class LayerSumTest(unittest.TestCase):
    def test_fraction_and_tolerance(self):
        self_s = {"a": 0.5, "b": 0.3, "c": 0.15, "other": 9.0}
        frac, ok = lib.layer_sum_check(self_s, ["a", "b", "c"], 1.0)
        self.assertAlmostEqual(frac, 0.95)
        self.assertTrue(ok)
        frac, ok = lib.layer_sum_check(self_s, ["a"], 1.0)
        self.assertAlmostEqual(frac, 0.5)
        self.assertFalse(ok)
        self.assertEqual(lib.layer_sum_check(self_s, ["zz"], 1.0), (0.0,
                                                                    False))


class ContractTest(unittest.TestCase):
    """BENCHMARK.json names exactly the metrics the runs print."""

    def test_metric_names_match(self):
        import json
        from pathlib import Path

        import run
        import trace_layers
        spec = json.loads((Path(__file__).resolve().parent.parent /
                           "BENCHMARK.json").read_text())
        e2e = run.e2e(setup_s=1.0, ops_ms=[1.0, 2.0], lo_ms=[1.0],
                      goodput_rps=1.0, cold_ms=1.0, rss_mb=1.0, regret=1.0,
                      attempted=1, failed=0)
        self.assertEqual([m["name"] for m in spec["end_to_end"]], list(e2e))
        for m in spec["end_to_end"]:
            self.assertEqual(m["unit"], e2e[m["name"]]["unit"])
            self.assertLessEqual(m["bound"],
                                 [x for x in spec["end_to_end"]
                                  if x["name"] == "setup_s"][0]["bound"])
        self.assertEqual([(m["name"], m["unit"], m["better"])
                          for m in spec["per_layer"]],
                         trace_layers.PER_LAYER)
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]),
                         sorted(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
