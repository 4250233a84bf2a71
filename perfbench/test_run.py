"""Tests of the runner's order statistics and of how it judges runs.

    python3 -m unittest discover -s perfbench
"""

import unittest

import run
import stats


class Stats(unittest.TestCase):
    def test_median_of_odd_and_even_counts(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_quartiles_match_exclusive_method(self):
        # statistics.quantiles(n=4), default 'exclusive' method:
        # positions (n+1)/4 and 3(n+1)/4 of the sorted values.
        values = [7, 1, 5, 3, 9, 11, 13, 15, 17, 19]
        q1, q3 = stats.quartiles(values)
        self.assertAlmostEqual(q1, 4.5)
        self.assertAlmostEqual(q3, 15.5)
        self.assertAlmostEqual(stats.spread(values), (15.5 - 4.5) / 10)

    def test_high_percentile_needs_ten_samples_beyond(self):
        self.assertIsNone(stats.high_percentile(list(range(10))))
        # 20 samples: p50 would leave 10 beyond, but only listed
        # percentiles qualify; p75 leaves 5.
        self.assertIsNone(stats.high_percentile(list(range(20))))
        # 100 samples: p90 leaves exactly 10 beyond, p95 only 5.
        self.assertEqual(stats.high_percentile(list(range(1, 101))), (90.0, 90))
        # 1000 samples: p99 leaves 10 beyond.
        self.assertEqual(stats.high_percentile(list(range(1, 1001))), (99.0, 990))


def rep(artifacts, traced=False, counts=None, attempted=None, seed=0):
    counts = counts or {"core.records": 10.0}
    return {
        "seed": seed,
        "traced": traced,
        "attempted": attempted if attempted is not None else len(artifacts),
        "artifacts": {n: [d, v] for n, (d, v) in artifacts.items()},
        "per_layer": {k: {"value": v, "unit": "count"} for k, v in counts.items()},
    }


class Judge(unittest.TestCase):
    ARTS = {"table2.txt": ("aa", "ok"), "table2.csv": ("bb", "ok"), "fig9.txt": ("cc", "ok")}

    def test_identical_runs_pass(self):
        attempted, failed, problems = run.judge_reps([rep(self.ARTS), rep(self.ARTS)])
        self.assertEqual((attempted, failed, problems), (6, 0, []))

    def test_one_changed_artifact_in_one_run_is_one_failure(self):
        changed = dict(self.ARTS, **{"table2.csv": ("bX", "unpinned")})
        attempted, failed, _ = run.judge_reps([rep(self.ARTS), rep(changed)])
        self.assertEqual((attempted, failed), (6, 1))

    def test_reference_failures_and_lost_artifacts_count(self):
        bad = dict(self.ARTS, **{"fig9.txt": (None, "missing")})
        attempted, failed, _ = run.judge_reps([rep(bad)])
        self.assertEqual((attempted, failed), (3, 1))

    def test_runs_are_compared_within_their_seed(self):
        other = {"table2.txt": ("xx", "unpinned"), "table2.csv": ("yy", "unpinned")}
        attempted, failed, problems = run.judge_reps(
            [rep(self.ARTS), rep(other, seed=1, counts={"core.records": 12.0}), rep(other, seed=1)]
        )
        self.assertEqual((attempted, failed), (7, 0))
        self.assertEqual(len(problems), 1)

    def test_count_drift_between_runs_is_a_problem(self):
        _, _, problems = run.judge_reps(
            [rep(self.ARTS), rep(self.ARTS, counts={"core.records": 11.0})]
        )
        self.assertEqual(len(problems), 1)
        self.assertIn("core.records", problems[0])


if __name__ == "__main__":
    unittest.main()


class Schedule(unittest.TestCase):
    def test_untraced_runs_every_seed_once(self):
        self.assertEqual(run.schedule([4, 5], False), [(4, False), (5, False)])

    def test_traced_runs_start_untraced_and_trace_every_seed(self):
        plan = run.schedule([8, 9, 10], True)
        self.assertEqual(plan[0], (8, False))
        self.assertEqual(sorted(s for s, t in plan if t), [8, 9, 10])
        self.assertEqual(sorted(s for s, t in plan if not t), [8, 9][: run.UNTRACED_IN_TRACE])


class EndToEnd(unittest.TestCase):
    def test_batch_means_of_seed_medians(self):
        def r(seed, wall, records):
            return {
                "seed": seed,
                "traced": False,
                "end_to_end": {
                    "wall_s": {"value": wall, "unit": "s"},
                    "cpu_s": {"value": 2 * wall, "unit": "s"},
                    "records_per_s": {"value": records / wall, "unit": "1/s"},
                    "peak_rss_mb": {"value": 100.0, "unit": "MiB"},
                    "setup_s": {"value": wall / 1000, "unit": "s"},
                },
                "per_layer": {"core.records": {"value": records, "unit": "count"}},
            }

        # Seed 0 ran three times (median 2 s), seed 1 once (4 s).
        m = run.end_to_end([r(0, 1.0, 100), r(0, 2.0, 100), r(0, 9.0, 100), r(1, 4.0, 300)])
        self.assertAlmostEqual(m["wall_s"]["value"], 3.0)
        self.assertAlmostEqual(m["cpu_s"]["value"], 6.0)
        self.assertAlmostEqual(m["records_per_s"]["value"], 400 / 6.0)
        self.assertAlmostEqual(m["setup_s"]["value"], 0.003)
        self.assertEqual(m["peak_rss_mb"]["unit"], "MiB")
