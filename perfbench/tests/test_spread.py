#!/usr/bin/env python3
"""Self-test of the spread rule the benchmark is held to (spread.py)."""

import os
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
from spread import parse_seeds, relative_iqr  # noqa: E402


class SpreadTest(unittest.TestCase):
    def test_relative_iqr_matches_exclusive_quartiles(self):
        # statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        self.assertAlmostEqual(relative_iqr(list(range(1, 11))), (8.25 - 2.75) / 5.5)

    def test_relative_iqr_ignores_order_and_scale(self):
        values = [10.2, 9.8, 10.0, 10.4, 9.6]
        self.assertAlmostEqual(relative_iqr(values), relative_iqr(sorted(values)))
        self.assertAlmostEqual(relative_iqr(values), relative_iqr([v * 3 for v in values]))

    def test_identical_runs_have_no_spread(self):
        self.assertEqual(relative_iqr([4.0] * 10), 0.0)

    def test_parse_seeds(self):
        self.assertEqual(parse_seeds("1-4"), [1, 2, 3, 4])
        self.assertEqual(parse_seeds("3,3,7"), [3, 3, 7])


if __name__ == "__main__":
    unittest.main()
