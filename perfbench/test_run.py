#!/usr/bin/env python3
"""Tests of run.py's steadiness summary (run.py --test runs them)."""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class Summarize(unittest.TestCase):
    def test_quartiles_and_spread(self):
        s = run.summarize([10, 1, 9, 2, 8, 3, 7, 4, 6, 5])
        self.assertEqual(s["median"], 5.5)
        self.assertEqual(s["q1"], 2.75)
        self.assertEqual(s["q3"], 8.25)
        self.assertAlmostEqual(s["iqr_over_median"], 5.5 / 5.5)
        self.assertEqual((s["min"], s["max"], s["n"]), (1, 10, 10))

    def test_two_values(self):
        s = run.summarize([2.0, 8.0])
        self.assertEqual((s["q1"], s["median"], s["q3"]), (0.5, 5.0, 9.5))
        self.assertAlmostEqual(s["iqr_over_median"], 9.0 / 5.0)

    def test_one_value_has_no_spread(self):
        s = run.summarize([4.0])
        self.assertEqual((s["q1"], s["q3"], s["iqr_over_median"]),
                         (4.0, 4.0, 0.0))


if __name__ == "__main__":
    unittest.main()
