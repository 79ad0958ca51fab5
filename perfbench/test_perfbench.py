"""Tests of the benchmark's own helpers.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The inject-trace replay is tested on the Rust side:
`cargo test --manifest-path perfbench/Cargo.toml`.
"""

import collections
import unittest

import serve_stream
import stats


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(stats.percentile(values, 50), 50)
        self.assertEqual(stats.percentile(values, 90), 90)
        self.assertEqual(stats.percentile(list(reversed(values)), 90), 90)

    def test_p90_needs_ten_samples_beyond(self):
        self.assertEqual(stats.percentile(range(100), 90), 89)
        self.assertEqual(stats.percentile(range(150), 90), 134)
        for n in (0, 1, 30, 99):
            with self.assertRaises(ValueError):
                stats.percentile(range(n), 90)

    def test_median(self):
        self.assertEqual(stats.median([3.0, 1.0, 2.0]), 2.0)
        with self.assertRaises(ValueError):
            stats.median([])


class ServeStreamTest(unittest.TestCase):
    def test_same_seed_same_stream(self):
        self.assertEqual(serve_stream.generate(7), serve_stream.generate(7))
        self.assertEqual(
            [s.request(f"r{i}") for i, s in enumerate(serve_stream.generate(7))],
            [s.request(f"r{i}") for i, s in enumerate(serve_stream.generate(7))],
        )

    def test_seed_changes_order_and_popularity(self):
        a, b = serve_stream.generate(1), serve_stream.generate(2)
        self.assertNotEqual(a, b)
        self.assertNotEqual(collections.Counter(a), collections.Counter(b))

    def test_composition_is_fixed(self):
        primary, second = serve_stream.scenarios()
        for seed in range(20):
            stream = serve_stream.generate(seed)
            self.assertEqual(len(stream), 150)
            self.assertEqual(set(stream), set(primary) | set(second))
            classes = collections.Counter(serve_stream.expected_classes(stream))
            self.assertEqual(classes, {"hit": 126, "cold": 16, "warm": 8})
            topologies = collections.Counter(s.topology for s in stream)
            self.assertEqual(topologies, {"cube": 89, "mesh": 61})
            second_window = sum(s.window == serve_stream.SECOND_WINDOW for s in stream)
            self.assertEqual(second_window, serve_stream.SECOND_REQUESTS)

    def test_warm_prefixes_fit_the_daemon(self):
        primary, _ = serve_stream.scenarios()
        self.assertLessEqual(len({s.prefix for s in primary}), 16)

    def test_zipf_counts(self):
        counts = serve_stream.zipf_counts(16, 128)
        self.assertEqual(sum(counts), 128)
        self.assertEqual(counts, sorted(counts, reverse=True))
        self.assertGreaterEqual(min(counts), 1)


if __name__ == "__main__":
    unittest.main()
