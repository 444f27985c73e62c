"""Tests of the benchmark's own arithmetic and checks.

    python3 -m unittest discover -s perfbench/tests

No build needed: perfbench_runner is replaced by canned outputs.
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))

import benchlib  # noqa: E402
import run  # noqa: E402


def span(name, start, end, parent=-1, request=-1):
    return {"n": name, "s": start, "e": end, "p": parent, "r": request}


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(benchlib.percentile(values, 50), 50)
        self.assertEqual(benchlib.percentile(values, 99), 99)
        self.assertEqual(benchlib.percentile(values, 100), 100)
        self.assertEqual(benchlib.percentile(values, 0), 1)
        self.assertEqual(benchlib.percentile([7.0], 99), 7.0)

    def test_order_does_not_matter(self):
        self.assertEqual(benchlib.percentile([5, 1, 4, 2, 3], 60), 3)

    def test_p99_of_1000_has_ten_beyond(self):
        values = list(range(1000))
        self.assertEqual(benchlib.percentile(values, 99), 989)
        self.assertEqual(benchlib.samples_beyond(1000, 99), 10)
        self.assertEqual(sum(1 for v in values if v > 989), 10)

    def test_ten_beyond_rule(self):
        benchlib.check_tail(1000, 99)
        with self.assertRaises(ValueError):
            benchlib.check_tail(999, 99)
        benchlib.check_tail(100, 90)
        with self.assertRaises(ValueError):
            benchlib.check_tail(99, 90)

    def test_no_samples(self):
        with self.assertRaises(ValueError):
            benchlib.percentile([], 50)

    def test_spread_matches_acceptance_formula(self):
        values = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]
        # statistics.quantiles(n=4, exclusive): q1=11.75, q3=17.25, median 14.5
        self.assertAlmostEqual(benchlib.spread(values), 5.5 / 14.5)


class HostIndexTest(unittest.TestCase):
    def test_nominal_speed_leaves_time_unchanged(self):
        n = benchlib.REF_NOMINAL_S
        index = {"ref": [n, n, n], "cpu": [1.0, 2.0], "wall": [1.5, 2.5]}
        self.assertAlmostEqual(benchlib.normalized_total(index), 3.0)
        self.assertAlmostEqual(benchlib.normalized_total(index, "wall"), 4.0)
        index["ref"] = [n / 2] * 3  # host twice as fast
        self.assertAlmostEqual(benchlib.normalized_total(index), 6.0)

    def test_each_segment_scaled_by_the_samples_around_it(self):
        n = benchlib.REF_NOMINAL_S
        # the host ran twice as slow for the first three segments; the
        # median of the samples around a segment ignores one outlier
        index = {"ref": [2 * n, 2 * n, 9 * n, 2 * n, n, n, n],
                 "cpu": [2.0, 2.0, 2.0, 1.0, 1.0, 1.0],
                 "wall": [2.0] * 6}
        factors = benchlib.segment_factors(index, window=2)
        self.assertEqual(factors[0], 0.5)  # samples 2n 2n 9n
        self.assertEqual(factors[5], 1.0)  # samples n n n
        # window 1: the samples just before and after the segment
        self.assertAlmostEqual(benchlib.segment_factors(index, 1)[3], 2 / 3)

    def test_sample_factor_uses_the_median(self):
        n = benchlib.REF_NOMINAL_S
        self.assertAlmostEqual(benchlib.sample_factor([n, 2 * n, 2 * n, 9 * n]),
                               0.5)


class SelfTimeTest(unittest.TestCase):
    def test_leaf_self_time_is_duration(self):
        self.assertEqual(benchlib.self_times([span("a", 10, 30)]), [20])

    def test_nested_children(self):
        spans = [span("root", 0, 100),
                 span("child", 10, 40, parent=0),
                 span("grandchild", 20, 30, parent=1),
                 span("child", 50, 60, parent=0)]
        self.assertEqual(benchlib.self_times(spans), [60, 20, 10, 10])

    def test_overlapping_children_count_once(self):
        spans = [span("stream", 0, 100),
                 span("request", 10, 50, parent=0, request=1),
                 span("request", 30, 70, parent=0, request=2),
                 span("request", 60, 65, parent=0, request=3)]
        # children cover [10, 70): 60 of the parent's 100
        self.assertEqual(benchlib.self_times(spans)[0], 40)

    def test_child_outside_parent_is_clipped(self):
        spans = [span("p", 10, 20), span("c", 15, 40, parent=0)]
        self.assertEqual(benchlib.self_times(spans), [5, 25])

    def test_layer_totals(self):
        spans = [span("nas.tables", 0, 3_000_000_000),
                 span("build_nas_table", 0, 2_000_000_000, parent=0)]
        totals = benchlib.layer_self_seconds(spans)
        self.assertAlmostEqual(totals["nas.sims"], 2.0)
        self.assertAlmostEqual(totals["harness"], 1.0)
        self.assertEqual(totals["cache"], 0.0)


class ScheduleTest(unittest.TestCase):
    def test_deterministic_from_seed(self):
        self.assertEqual(benchlib.serve_schedule(7, 10),
                         benchlib.serve_schedule(7, 10))
        self.assertNotEqual(benchlib.serve_schedule(7, 10)[0],
                            benchlib.serve_schedule(8, 10)[0])

    def test_open_loop_shape(self):
        timed, warmup = benchlib.serve_schedule(3, 10)
        offsets = [t for t, _ in timed]
        self.assertEqual(offsets, sorted(offsets))
        self.assertGreaterEqual(offsets[0], 0)
        self.assertLess(offsets[-1], 10 * 10**9 + 2_000_000)
        # enough requests for a p99 with ten samples beyond it
        benchlib.check_tail(len(timed), 99)
        lines = [line for _, line in timed]
        self.assertFalse(set(lines) & set(warmup))
        for kind in ("ring", "nas", "convolve", "unixbench"):
            self.assertTrue(any('"%s"' % kind in line for line in lines), kind)

    def test_repeat_share_and_double_submits(self):
        timed, _ = benchlib.serve_schedule(5, 10)
        total = benchlib.SERVE_REQUESTS_PER_S * 10
        doubles = benchlib.SERVE_DOUBLE_SUBMITS_PER_S * 10
        self.assertEqual(len(timed), total)
        sends = {}
        for t, line in timed:
            sends.setdefault(line, []).append(t)
        # hot keys are the ones requested more than twice
        hot = {line for line, ts in sends.items() if len(ts) > 2}
        fresh = [line for line in sends if line not in hot]
        self.assertLessEqual(len(hot), benchlib.SERVE_HOT_KEYS)
        self.assertEqual(len(fresh), total // 4)
        self.assertEqual(sum(len(sends[line]) for line in hot),
                         total - total // 4 - doubles)
        # a double submit is the same fresh key again 1 ms later
        gaps = [ts[1] - ts[0] for line, ts in sends.items()
                if line not in hot and len(ts) == 2]
        self.assertEqual(gaps, [1_000_000] * doubles)

    def test_every_seed_simulates_the_same_shapes(self):
        def fresh_shapes(seed):
            timed, _ = benchlib.serve_schedule(seed, 10)
            counts = {}
            for _, line in timed:
                counts[line] = counts.get(line, 0) + 1
            return sorted(line.rsplit('"seed"', 1)[0] for line, n in
                          counts.items() if n <= 2)
        self.assertEqual(fresh_shapes(1), fresh_shapes(2))

    def test_lateness_accounting(self):
        reqs = [{"sched_ns": 0, "sent_ns": 0, "recv_ns": 5_000_000},
                {"sched_ns": 1_000_000, "sent_ns": 3_500_000,
                 "recv_ns": 4_000_000}]
        self.assertEqual(benchlib.lateness_ms(reqs), [0.0, 2.5])
        # latency runs from the scheduled time, so lateness is inside it
        self.assertEqual(benchlib.latencies_ms(reqs), [5.0, 3.0])


class ResponseClassTest(unittest.TestCase):
    def test_hits_misses_and_waits(self):
        def req(key, sent, recv, cached):
            return {"key": key, "sched_ns": sent, "sent_ns": sent,
                    "recv_ns": recv, "cached": cached}
        reqs = [req("a", 0, 100, False),    # simulated
                req("a", 1, 100, True),     # sent before a's first reply
                req("a", 150, 160, True),   # a had a reply: a hit
                req("b", 10, 20, True),     # a follower whose leader...
                req("b", 15, 30, False)]    # ...replied after it
        self.assertEqual(benchlib.response_classes(reqs),
                         ["miss", "coalesced", "hit", "coalesced", "miss"])

    def test_busy_time_is_the_union_of_outstanding_intervals(self):
        reqs = [{"sched_ns": 0, "recv_ns": 2_000_000_000},
                {"sched_ns": 1_000_000_000, "recv_ns": 3_000_000_000},
                {"sched_ns": 5_000_000_000, "recv_ns": 5_500_000_000}]
        self.assertAlmostEqual(benchlib.busy_s(reqs), 3.5)


class GoodputTest(unittest.TestCase):
    def request(self, latency_ms, **flags):
        r = {"sched_ns": 0, "sent_ns": 0, "recv_ns": int(latency_ms * 1e6),
             "ok": True, "key_match": True, "bytes_match": True}
        r.update(flags)
        return r

    def test_failures_count_as_over_the_limit(self):
        reqs = [self.request(1), self.request(2),
                self.request(1, ok=False),          # error or refusal
                self.request(1, key_match=False),
                self.request(1, bytes_match=False),
                self.request(600)]                   # over the limit
        self.assertEqual(benchlib.goodput_rps(reqs, 500, 2.0), 1.0)


class DigestCheckTest(unittest.TestCase):
    def test_mismatch_missing_and_extra(self):
        pinned = {"a": "1", "b": "2", "c": "3"}
        self.assertEqual(benchlib.digest_failures(pinned, dict(pinned)), [])
        self.assertEqual(benchlib.digest_failures(pinned, {"a": "1", "b": "9",
                                                           "d": "4"}),
                         ["b", "c", "d"])

    def test_mismatch_becomes_failed_operation(self):
        digests = {"table1.rpn1": "aa", "fig2": "bb"}
        index = {"ref": [0.01, 0.01], "cpu": [1.0], "wall": [1.0]}
        fake = {"variant": 5, "setup": {"index": index, "refs": 1},
                "peak_rss_mb": 10.0, "untraced_passes": [],
                "passes": [{"index": index, "repro_err_pp": 2.0,
                            "repro_cells": 3, "nas_sims": 1,
                            "digests": dict(digests, fig2="cc")}]}
        saved = run.runner, run.load_pins
        run.runner = lambda mode, **_: fake
        run.load_pins = lambda: {"paper_quick": {"5": digests}}
        try:
            report = run.Report("paper_quick", 5)
            run.paper_quick(5, 5, False, report)
        finally:
            run.runner, run.load_pins = saved
        self.assertEqual(report.attempted, 2)
        self.assertEqual(report.failed, 1)
        self.assertIn("fig2", report.failures[0])


if __name__ == "__main__":
    unittest.main()
