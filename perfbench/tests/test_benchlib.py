"""Tests of the benchmark's own arithmetic and checks.

    python3 -m unittest discover -s perfbench/tests
"""

import os
import shutil
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
import benchlib  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_tail_is_the_highest_ladder_percentile_with_ten_samples_beyond(self):
        cases = {1: 100.0, 19: 100.0, 20: 50.0, 39: 50.0, 40: 75.0, 99: 75.0, 100: 90.0,
                 199: 90.0, 200: 95.0, 999: 95.0, 1000: 99.0, 9999: 99.0, 10000: 99.9}
        for n, pct in cases.items():
            self.assertEqual(benchlib.tail_pct(n), pct, n)

    def test_every_reported_tail_has_ten_samples_beyond_it(self):
        for n in range(1, 2500):
            pct = benchlib.tail_pct(n)
            if pct == 100.0:
                continue
            values = list(range(n))
            tail = benchlib.nearest_rank(values, pct)
            self.assertGreaterEqual(sum(v > tail for v in values), benchlib.TAIL_BEYOND, n)

    def test_summary_reports_median_tail_and_sample_count(self):
        got = benchlib.summarize("x", [float(v) for v in range(100, 0, -1)])
        self.assertEqual(got, {"x.p50": 50.0, "x.tail": 90.0, "x.tail_pct": 90.0, "x.n": 100})

    def test_few_samples_report_the_maximum(self):
        got = benchlib.summarize("x", [3.0, 1.0, 2.0])
        self.assertEqual((got["x.p50"], got["x.tail"], got["x.tail_pct"], got["x.n"]), (2.0, 3.0, 100.0, 3))

    def test_a_layer_that_did_not_run_reports_zero_samples(self):
        got = benchlib.summarize("x", [])
        self.assertEqual(got["x.n"], 0)
        self.assertEqual(got["x.p50"], 0.0)


class SelfTime(unittest.TestCase):
    ROWS = [
        ["pass", -1, 0, 100, 0],          # 0
        ["a", 0, 10, 40, 0],              # 1
        ["a.inner", 1, 15, 20, 0],        # 2
        ["b", 0, 30, 60, 0],              # 3: overlaps a (parallel children)
        ["c", 0, 90, 120, 0],             # 4: runs past its parent's end
        ["probe", -1, 200, 300, 7],       # 5: a second root
        ["a", 5, 210, 250, 0],            # 6
    ]

    def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent(self):
        spans = benchlib.load_spans(self.ROWS)
        self.assertEqual(benchlib.self_times(spans), [40, 25, 5, 30, 30, 60, 40])

    def test_spans_learn_their_root(self):
        spans = benchlib.load_spans(self.ROWS)
        self.assertEqual([s.root for s in spans], ["pass"] * 5 + ["probe"] * 2)

    def test_table_sums_per_name(self):
        table = benchlib.self_time_table(benchlib.load_spans(self.ROWS))
        self.assertEqual(table["a"]["count"], 2)
        self.assertAlmostEqual(table["a"]["total_s"], 70e-9)
        self.assertAlmostEqual(table["a"]["self_s"], 65e-9)

    def test_union_of_intervals(self):
        self.assertEqual(benchlib.covered([]), 0)
        self.assertEqual(benchlib.covered([(0, 10), (5, 15), (20, 30), (30, 31)]), 26)


class OutputCheck(unittest.TestCase):
    STDOUT = (
        "=== Figure A ===\nrow 1\n\n[figa] artifacts: a.csv a.json\n[figa] done\n"
        "=== Figure B ===\nrow 2\n[figb] artifacts: b.csv\n[figb] done\n"
    )

    def setUp(self):
        self.dir = tempfile.mkdtemp()
        for name, text in (("a.csv", "1,2\n"), ("a.json", "{}\n"), ("b.csv", "3,4\n")):
            with open(os.path.join(self.dir, name), "w") as f:
                f.write(text)
        self.reference = benchlib.reference_of(self.STDOUT, self.dir)

    def tearDown(self):
        shutil.rmtree(self.dir)

    def test_an_unchanged_run_passes(self):
        self.assertEqual(benchlib.check_run(self.reference, self.STDOUT, self.dir), ([], []))

    def test_an_altered_artifact_fails_its_experiment_only(self):
        with open(os.path.join(self.dir, "a.json"), "w") as f:
            f.write("{ }\n")
        failed, problems = benchlib.check_run(self.reference, self.STDOUT, self.dir)
        self.assertEqual(failed, ["figa"])
        self.assertEqual(problems, ["figa: artifact a.json differs"])

    def test_missing_and_unexpected_artifacts_fail(self):
        os.remove(os.path.join(self.dir, "b.csv"))
        with open(os.path.join(self.dir, "stray.csv"), "w") as f:
            f.write("x\n")
        failed, problems = benchlib.check_run(self.reference, self.STDOUT, self.dir)
        self.assertEqual(failed, ["figb"])
        self.assertIn("figb: artifact b.csv missing", problems)
        self.assertIn("unexpected artifact stray.csv", problems)

    def test_altered_report_text_fails(self):
        stdout = self.STDOUT.replace("row 2", "row 3")
        failed, _ = benchlib.check_run(self.reference, stdout, self.dir)
        self.assertEqual(failed, ["figb"])

    def test_bookkeeping_lines_are_not_report_text(self):
        # `repro` prints timings and paths on `[name] ...` lines.
        stdout = self.STDOUT.replace("[figb] done", "[figb] CSVs written to /x\n[figb] done in 1.2s")
        self.assertEqual(benchlib.check_run(self.reference, stdout, self.dir), ([], []))

    def test_byte_diff_names_changed_and_one_sided_files(self):
        other = tempfile.mkdtemp()
        try:
            for name in ("a.csv", "a.json", "b.csv"):
                shutil.copy(os.path.join(self.dir, name), other)
            os.makedirs(os.path.join(other, "checkpoints"))
            with open(os.path.join(other, "metrics.json"), "w") as f:
                f.write("{}")
            self.assertEqual(benchlib.diff_dirs(self.dir, other), [])
            with open(os.path.join(other, "b.csv"), "a") as f:
                f.write("5,6\n")
            os.remove(os.path.join(other, "a.json"))
            self.assertEqual(benchlib.diff_dirs(self.dir, other), ["a.json", "b.csv"])
        finally:
            shutil.rmtree(other)


class FailureAccounting(unittest.TestCase):
    def test_failed_frac_is_failed_over_attempted_across_repetitions(self):
        tally = benchlib.Tally()
        tally.add(30, 0)
        tally.add(30, 3, ["x"])
        self.assertEqual((tally.attempted, tally.failed), (60, 3))
        self.assertAlmostEqual(tally.failed_frac, 0.05)
        self.assertAlmostEqual(tally.ok_frac, 0.95)
        self.assertEqual(tally.problems, ["x"])

    def test_nothing_attempted_counts_as_failed(self):
        self.assertEqual(benchlib.Tally().failed_frac, 1.0)

    def test_more_failures_than_attempts_is_an_error(self):
        with self.assertRaises(ValueError):
            benchlib.Tally().add(1, 2)

    def test_serve_run_charges_reissues_rejections_and_artifact_mismatch(self):
        self.assertEqual(benchlib.serve_tally(False, 128, 128, 0, True), (129, 0))
        self.assertEqual(benchlib.serve_tally(True, 128, 127, 2, True), (129, 4))
        self.assertEqual(benchlib.serve_tally(False, 3, 0, 0, False), (4, 4))
        self.assertEqual(benchlib.serve_tally(True, 0, 0, 5, False), (1, 1))


class Spread(unittest.TestCase):
    def test_quartile_spread_matches_statistics_quantiles(self):
        values = [10.0, 10.5, 9.5, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.4]
        spread = benchlib.quartile_spread(values)
        self.assertAlmostEqual(spread, (10.325 - 9.875) / 10.05)


if __name__ == "__main__":
    unittest.main()
