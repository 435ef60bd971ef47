#!/usr/bin/env python3
"""Tests of the serve gate in check_regression.py, on synthetic reports.

    python3 bench/test_check_regression.py
"""

import copy
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from check_regression import check_serve  # noqa: E402


def point(name, busy_threads, median, config=None):
    return {"name": name, "busy_threads": busy_threads,
            "config": config or {}, "median": median, "blocks": [median]}


BASELINE = {
    "scale": "fast",
    "hardware_concurrency": 4,
    "points": [
        point("sequential", 1, {"rows_per_s": 200000}),
        point("closed_loop[workers=1]", 2,
              {"speedup_vs_sequential": 0.2, "e2e_p95_us": 31.0}),
        point("closed_loop[workers=4]", 8,
              {"speedup_vs_sequential": 0.9, "e2e_p95_us": 30.0}),
        point("overload", 3,
              {"goodput_ratio": 1.6, "e2e_p95_us": 5600.0,
               "e2e_p99_us": 5900.0},
              {"deadline_ms": 100}),
        point("http", 3,
              {"http_vs_inproc_ratio": 0.99, "requests_per_connection": 500,
               "http_p95_us": 1600.0},
              {"deadline_ms": 100}),
    ],
}


def with_median(report, name, **changes):
    """A copy of `report` with the named point's medians changed."""
    fresh = copy.deepcopy(report)
    for p in fresh["points"]:
        if p["name"] == name:
            p["median"].update(changes)
    return fresh


class CheckServeTest(unittest.TestCase):
    def gate(self, fresh):
        return check_serve(BASELINE, fresh, tolerance=0.25)

    def test_copy_of_the_baseline_passes(self):
        comparison = self.gate(copy.deepcopy(BASELINE))
        self.assertEqual(comparison.regressions, [])

    def test_speedup_drop_of_forty_percent_fails(self):
        comparison = self.gate(with_median(
            BASELINE, "closed_loop[workers=1]", speedup_vs_sequential=0.12))
        self.assertEqual(len(comparison.regressions), 1)
        self.assertIn("closed_loop[workers=1].speedup_vs_sequential",
                      comparison.regressions[0])

    def test_http_ratio_below_floor_fails(self):
        comparison = self.gate(
            with_median(BASELINE, "http", http_vs_inproc_ratio=0.4))
        self.assertTrue(any("http.http_vs_inproc_ratio" in line
                            and "floor" in line
                            for line in comparison.regressions))

    def test_one_request_per_connection_fails(self):
        comparison = self.gate(
            with_median(BASELINE, "http", requests_per_connection=1))
        self.assertEqual(len(comparison.regressions), 1)
        self.assertIn("http.requests_per_connection",
                      comparison.regressions[0])

    def test_p95_rise_of_forty_percent_fails(self):
        for name, metric in (("closed_loop[workers=1]", "e2e_p95_us"),
                             ("http", "http_p95_us")):
            base = next(p for p in BASELINE["points"] if p["name"] == name)
            comparison = self.gate(with_median(
                BASELINE, name, **{metric: 1.4 * base["median"][metric]}))
            self.assertEqual(len(comparison.regressions), 1)
            self.assertIn(f"{name}.{metric}", comparison.regressions[0])

    def test_over_provisioned_point_is_skipped_not_failed(self):
        fresh = with_median(BASELINE, "closed_loop[workers=4]",
                            speedup_vs_sequential=0.1, e2e_p95_us=3000.0)
        comparison = self.gate(fresh)
        self.assertEqual(comparison.regressions, [])
        self.assertTrue(any(line.startswith("closed_loop[workers=4] (8 busy")
                            for line in comparison.skipped))


if __name__ == "__main__":
    unittest.main()
