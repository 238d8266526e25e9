#!/usr/bin/env python3
"""Unit tests for scripts/perf_pairs.py (run by ctest as test_perf_pairs).

Canned pairs cover the summary contract: medians and the parent's
interquartile range, the change in percent, pairs won in each metric's
"better" direction with ties won by neither side, the bound check on
both sides, the alternating run order, and the rejection of a run that
is not correct or has failures.
"""

import importlib.util
import json
import pathlib
import unittest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

spec = importlib.util.spec_from_file_location(
    "perf_pairs", REPO_ROOT / "scripts" / "perf_pairs.py")
perf_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(perf_pairs)

METRICS = [
    {"name": "perms_per_s", "better": "higher", "bound": 0.25},
    {"name": "window_p50_us", "better": "lower", "bound": 0.25},
]


def runs(**columns):
    """Metric dicts, one per pair, from one list of values per metric."""
    names = list(columns)
    return [dict(zip(names, values)) for values in zip(*columns.values())]


class SummaryTest(unittest.TestCase):
    def summary(self, parent, change):
        rows = perf_pairs.summarize(parent, change, METRICS)
        return {row["name"]: row for row in rows}

    def test_medians_iqr_and_percent(self):
        parent = runs(perms_per_s=[100, 110, 90, 120, 80],
                      window_p50_us=[10, 10, 10, 10, 10])
        change = runs(perms_per_s=[105, 115, 95, 125, 85],
                      window_p50_us=[9, 9, 9, 9, 9])
        rows = self.summary(parent, change)
        self.assertEqual(rows["perms_per_s"]["parent_median"], 100)
        self.assertEqual(rows["perms_per_s"]["change_median"], 105)
        # Quartiles of 80, 90, 100, 110, 120 are 90 and 110.
        self.assertEqual(rows["perms_per_s"]["parent_iqr"], 20)
        self.assertAlmostEqual(rows["perms_per_s"]["change_pct"], 5.0)
        self.assertAlmostEqual(rows["window_p50_us"]["change_pct"], -10.0)
        self.assertEqual(rows["window_p50_us"]["parent_iqr"], 0)

    def test_even_count_median_interpolates(self):
        self.assertEqual(perf_pairs.quantile([4, 1, 3, 2], 0.5), 2.5)
        self.assertEqual(perf_pairs.quantile([7], 0.25), 7)

    def test_pairs_won_follow_the_better_direction(self):
        parent = runs(perms_per_s=[100, 100, 100, 100],
                      window_p50_us=[10, 10, 10, 10])
        change = runs(perms_per_s=[101, 99, 100, 120],
                      window_p50_us=[9, 11, 10, 8])
        rows = self.summary(parent, change)
        # Higher is better: 101 and 120 win; the tie wins for neither.
        self.assertEqual(rows["perms_per_s"]["won"], 2)
        # Lower is better: 9 and 8 win.
        self.assertEqual(rows["window_p50_us"]["won"], 2)
        self.assertEqual(rows["window_p50_us"]["pairs"], 4)

    def test_bound_holds_on_the_worse_side_only(self):
        parent = runs(perms_per_s=[100, 100], window_p50_us=[10, 10])
        inside = runs(perms_per_s=[76, 76], window_p50_us=[12.4, 12.4])
        rows = self.summary(parent, inside)
        self.assertTrue(rows["perms_per_s"]["within_bound"])
        self.assertTrue(rows["window_p50_us"]["within_bound"])
        outside = runs(perms_per_s=[74, 74], window_p50_us=[12.6, 12.6])
        rows = self.summary(parent, outside)
        self.assertFalse(rows["perms_per_s"]["within_bound"])
        self.assertFalse(rows["window_p50_us"]["within_bound"])
        # Any gain is inside the bound.
        better = runs(perms_per_s=[300, 300], window_p50_us=[1, 1])
        rows = self.summary(parent, better)
        self.assertTrue(rows["perms_per_s"]["within_bound"])
        self.assertTrue(rows["window_p50_us"]["within_bound"])

    def test_zero_parent_median_has_no_percent(self):
        rows = self.summary(runs(perms_per_s=[0], window_p50_us=[0]),
                            runs(perms_per_s=[0], window_p50_us=[0]))
        self.assertIsNone(rows["perms_per_s"]["change_pct"])
        self.assertTrue(rows["window_p50_us"]["within_bound"])
        self.assertIn("n/a", perf_pairs.format_rows(
            "w", list(rows.values())))

    def test_run_order_alternates(self):
        self.assertEqual(perf_pairs.run_order(0), ("parent", "change"))
        self.assertEqual(perf_pairs.run_order(1), ("change", "parent"))
        self.assertEqual(perf_pairs.run_order(2), ("parent", "change"))

    def test_incorrect_or_failed_runs_are_rejected(self):
        metrics = {"perms_per_s": {"value": 1.5, "unit": "1/s"}}
        self.assertEqual(perf_pairs.check_result(
            {"correct": True, "failed": 0, "metrics": metrics}, "ok"),
            {"perms_per_s": 1.5})
        for bad in ({"correct": False, "failed": 0, "metrics": metrics},
                    {"correct": True, "failed": 2, "metrics": metrics},
                    {"correct": True, "metrics": metrics}):
            with self.assertRaises(perf_pairs.RunFailed):
                perf_pairs.check_result(bad, "bad")

    def test_declared_metrics_are_summarized(self):
        # The script reads the end_to_end list of BENCHMARK.json; each
        # entry names a direction and a bound.
        with open(REPO_ROOT / "BENCHMARK.json") as spec_file:
            declared = json.load(spec_file)["end_to_end"]
        for metric in declared:
            self.assertIn(metric["better"], ("higher", "lower"))
            self.assertGreater(metric["bound"], 0)
        one = {m["name"]: 1.0 for m in declared}
        rows = perf_pairs.summarize([one], [one], declared)
        self.assertEqual([r["name"] for r in rows],
                         [m["name"] for m in declared])
        self.assertTrue(all(r["within_bound"] for r in rows))


if __name__ == "__main__":
    unittest.main()
