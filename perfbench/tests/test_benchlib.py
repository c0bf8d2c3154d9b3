"""Self-checks for the benchmark's own arithmetic.

Run: python3 -m unittest discover -s perfbench/tests
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))
import benchlib as bl  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(bl.percentile(values, 0.5), 50)
        self.assertEqual(bl.percentile(values, 0.99), 99)
        self.assertEqual(bl.percentile(values, 1.0), 100)
        self.assertEqual(bl.percentile(values, 0.001), 1)

    def test_order_does_not_matter(self):
        self.assertEqual(bl.percentile([5, 1, 4, 2, 3], 0.5), 3)
        self.assertEqual(bl.median([2.0, 1.0]), 1.0)

    def test_rejects_bad_input(self):
        with self.assertRaises(ValueError):
            bl.percentile([], 0.5)
        with self.assertRaises(ValueError):
            bl.percentile([1], 0)

    def test_supported_tail_needs_ten_beyond(self):
        self.assertEqual(bl.supported_tail(10000), 0.999)
        self.assertEqual(bl.supported_tail(1000), 0.99)
        self.assertEqual(bl.supported_tail(999), 0.95)
        self.assertEqual(bl.supported_tail(200), 0.95)
        self.assertEqual(bl.supported_tail(20), 0.5)
        self.assertIsNone(bl.supported_tail(19))

    def test_tail_metric_falls_back(self):
        values = list(range(1, 201))
        self.assertEqual(bl.tail_metric(values), 190)  # p95 of 200
        self.assertEqual(bl.tail_metric(list(range(1, 1001))), 990)
        self.assertEqual(bl.tail_metric([3, 1, 2]), 3)

    def test_summarize(self):
        sm = bl.summarize(list(range(1, 1001)))
        self.assertEqual((sm["n"], sm["p50"], sm["tail_q"], sm["tail"]),
                         (1000, 500, 0.99, 990))


class GeomeanTest(unittest.TestCase):
    def test_values(self):
        self.assertAlmostEqual(bl.geomean([1, 100]), 10)
        self.assertAlmostEqual(bl.geomean([2, 8, 4]), 4)
        self.assertAlmostEqual(bl.geomean([7.5]), 7.5)

    def test_scale_invariant_ratio(self):
        a, b = [1.0, 3.0, 9.0], [2.0, 6.0, 18.0]
        self.assertAlmostEqual(bl.geomean(b) / bl.geomean(a), 2.0)

    def test_rejects_nonpositive(self):
        with self.assertRaises(ValueError):
            bl.geomean([1, 0])
        with self.assertRaises(ValueError):
            bl.geomean([])

    def test_rate(self):
        self.assertAlmostEqual(bl.rate([0.5, 0.5, 1.0]), 1500.0)
        self.assertEqual(bl.rate([]), 0.0)


class ReferenceSpeedTest(unittest.TestCase):
    def test_slow_host_times_shrink_rates_grow(self):
        # The host ran the calibration task at half the reference speed.
        self.assertAlmostEqual(bl.to_reference(10.0, "time", 13.0, 6.5), 5.0)
        self.assertAlmostEqual(bl.to_reference(100.0, "rate", 13.0, 6.5),
                               200.0)

    def test_reference_host_is_unchanged(self):
        self.assertEqual(bl.to_reference(3.0, "time", 6.5, 6.5), 3.0)
        self.assertEqual(bl.to_reference(3.0, "rate", 6.5, 6.5), 3.0)

    def test_rejects_bad_input(self):
        with self.assertRaises(ValueError):
            bl.to_reference(1.0, "time", 0.0, 6.5)
        with self.assertRaises(ValueError):
            bl.to_reference(1.0, "speed", 6.5, 6.5)


class StatsDiffTest(unittest.TestCase):
    def stats(self, hits, misses, queue_count, queue_sum_us, shed):
        shard = {"metrics": {
            "cache": {"hits": hits, "misses": misses},
            "sandbox": {"crashes": 0, "respawns": 0},
            "latency": {"queue": {"count": queue_count,
                                  "sum_us": queue_sum_us,
                                  "buckets_us": [queue_count, 0]}},
            "simd": {"isa": "avx2", "dispatch": {"matmul": hits}}}}
        return {"daemon": {"isolation": "inproc", "shed_qos": shed,
                           "shed_queue": 0,
                           "disk_store": {"hits": hits, "misses": misses},
                           "shards": [shard, shard]}}

    def test_numeric_leaves_subtract(self):
        d = bl.stats_diff(self.stats(10, 5, 4, 400, 1),
                          self.stats(30, 6, 14, 2400, 3))
        self.assertEqual(d["daemon"]["shed_qos"], 2)
        self.assertEqual(d["daemon"]["isolation"], "inproc")
        self.assertEqual(d["daemon"]["disk_store"], {"hits": 20, "misses": 1})
        m = d["daemon"]["shards"][0]["metrics"]
        self.assertEqual(m["latency"]["queue"]["buckets_us"], [10, 0])
        self.assertEqual(m["simd"]["isa"], "avx2")

    def test_shard_helpers(self):
        d = bl.stats_diff(self.stats(10, 5, 4, 400, 1),
                          self.stats(30, 6, 14, 2400, 3))
        self.assertEqual(bl.shard_sum(d, "cache", "hits"), 40)
        # 2 shards x (2000 us over 10 samples) -> 0.2 ms mean.
        self.assertAlmostEqual(bl.hist_mean_ms(d, "queue"), 0.2)

    def test_new_keys_and_shards_keep_after_value(self):
        before = {"a": 1, "l": [1]}
        after = {"a": 3, "b": 7, "l": [4, 5]}
        self.assertEqual(bl.stats_diff(before, after),
                         {"a": 2, "b": 7, "l": [3, 5]})

    def test_empty_interval(self):
        s = self.stats(1, 1, 0, 0, 0)
        self.assertEqual(bl.hist_mean_ms(bl.stats_diff(s, s), "queue"), 0.0)
        self.assertEqual(bl.ratio(0, 0), 0.0)


if __name__ == "__main__":
    unittest.main()
