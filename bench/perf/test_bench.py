#!/usr/bin/env python3
"""Pure-Python tests of bench.py: statistics, verdicts, the results and
BENCHMARK.json schemas, and the expected.json gate. No build needed:

    python3 bench/perf/test_bench.py
"""

import copy
import json
import os
import re
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench  # noqa: E402


class StatisticsTest(unittest.TestCase):
    def test_summarize_matches_statistics_quantiles(self):
        s = bench.summarize([5, 1, 4, 2, 3])
        self.assertEqual(s["median"], 3)
        self.assertEqual(s["n"], 5)
        self.assertEqual((s["q1"], s["q3"]), (1.5, 4.5))

    def test_summarize_single_sample(self):
        self.assertEqual(bench.summarize([7.0]),
                         {"median": 7.0, "q1": 7.0, "q3": 7.0, "n": 1})

    def test_relative_spread(self):
        self.assertAlmostEqual(bench.relative_spread([5, 1, 4, 2, 3]), 1.0)
        self.assertEqual(bench.relative_spread([0, 0, 0]), 0.0)
        self.assertEqual(bench.relative_spread([0, 0, 0, 5, 5]),
                         float("inf"))


class VerdictTest(unittest.TestCase):
    BASE = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]

    def test_identical_is_unchanged(self):
        self.assertEqual(
            bench.verdict(self.BASE, list(self.BASE), "lower", 0.1),
            "unchanged")

    def test_small_slowdown_within_bound_is_unchanged(self):
        change = [x * 1.05 for x in self.BASE]
        self.assertEqual(bench.verdict(self.BASE, change, "lower", 0.1),
                         "unchanged")

    def test_slowdown_beyond_bound_is_worse(self):
        change = [x * 1.2 for x in self.BASE]
        self.assertEqual(bench.verdict(self.BASE, change, "lower", 0.1),
                         "worse")

    def test_consistent_speedup_is_better(self):
        change = [x * 0.9 for x in self.BASE]
        self.assertEqual(bench.verdict(self.BASE, change, "lower", 0.1),
                         "better")

    def test_direction_higher(self):
        up = [x * 1.2 for x in self.BASE]
        self.assertEqual(bench.verdict(self.BASE, up, "higher", 0.1),
                         "better")
        self.assertEqual(bench.verdict(up, self.BASE, "higher", 0.1),
                         "worse")

    def test_gain_needs_nine_tenths_of_pairs(self):
        # The median moves but three of ten pairs go the wrong way.
        change = [0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 1.1, 1.1, 1.1]
        self.assertEqual(bench.verdict(self.BASE, change, "lower", 0.25),
                         "unchanged")

    def test_gain_needs_more_than_base_spread(self):
        base = [1.0, 1.1, 1.0, 1.1, 1.0, 1.1, 1.0, 1.1, 1.0, 1.1]
        change = [x - 0.01 for x in base]
        self.assertEqual(bench.verdict(base, change, "lower", 0.25),
                         "unchanged")

    def test_spread_beyond_bound_is_unresolved(self):
        noisy = [1.0, 1.5, 0.7, 1.3, 0.8, 1.4, 0.9, 1.2, 0.6, 1.6]
        self.assertEqual(bench.verdict(self.BASE, noisy, "lower", 0.1),
                         "unresolved")

    def test_unresolved_unless_every_change_run_is_better(self):
        base = [1.0, 1.5, 1.1, 1.4, 1.2]
        change = [0.5, 0.8, 0.6, 0.9, 0.55]
        self.assertEqual(bench.verdict(base, change, "lower", 0.1),
                         "better")

    def test_zero_bound_on_a_zero_baseline(self):
        self.assertEqual(bench.verdict([0.0], [0.0], "lower", 0.0),
                         "unchanged")
        self.assertEqual(bench.verdict([0.0], [0.1], "lower", 0.0),
                         "worse")


def results(samples_by_workload):
    return {"schema": bench.RESULTS_SCHEMA, "fingerprint": {},
            "workloads": {wl: {"samples": s, "attempted": 1, "failed": 0,
                               "errors": []}
                          for wl, s in samples_by_workload.items()}}


class ResultsSchemaTest(unittest.TestCase):
    def test_record_rep_feeds_compare(self):
        w = {"samples": {}, "attempted": 0, "failed": 0, "errors": []}
        for wall in (1.0, 1.01, 0.99):
            rep = bench.Rep()
            rep.metrics = {"norm_wall_s": wall}
            bench.record_rep(w, rep)
        bad = bench.Rep()
        bad.errors = ["checksum: got 1, expected 2"]
        bench.record_rep(w, bad)
        self.assertEqual((w["attempted"], w["failed"]), (4, 1))
        self.assertEqual(w["samples"]["norm_wall_s"], [1.0, 1.01, 0.99])

        base = results({"em3d-sm": w["samples"]})
        rows = bench.compare_results(base, copy.deepcopy(base),
                                     bench.benchmark_spec()["end_to_end"])
        self.assertEqual(len(rows), 1)
        self.assertEqual(rows[0]["workload"], "em3d-sm")
        self.assertEqual(rows[0]["metric"], "norm_wall_s")
        self.assertEqual(rows[0]["verdict"], "unchanged")

    def test_compare_skips_workloads_missing_on_one_side(self):
        a = results({"em3d-sm": {"norm_wall_s": [1.0]}})
        b = results({"mse-sm": {"norm_wall_s": [1.0]}})
        self.assertEqual(bench.compare_results(
            a, b, bench.benchmark_spec()["end_to_end"]), [])


NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class BenchmarkJsonTest(unittest.TestCase):
    """BENCHMARK.json stays within the format its consumers accept."""

    def setUp(self):
        self.spec = bench.benchmark_spec()

    def test_keys_and_limits(self):
        s = self.spec
        self.assertEqual(set(s), {"command", "paths", "run_seconds",
                                  "workloads", "end_to_end", "per_layer"})
        self.assertEqual(s["paths"], ["bench/perf"])
        self.assertTrue(1 <= s["run_seconds"] <= 60)
        self.assertTrue(2 <= len(s["workloads"]) <= 8)
        self.assertTrue(1 <= len(s["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(s["per_layer"]) <= 128)
        names = [m["name"] for k in ("workloads", "end_to_end", "per_layer")
                 for m in s[k]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, NAME)
        for w in s["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        for m in s["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 <= m["bound"] <= 0.25)
        for m in s["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in s["end_to_end"] + s["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))

    def test_workloads_match_bench(self):
        self.assertEqual(tuple(w["name"] for w in self.spec["workloads"]),
                         bench.WORKLOADS)

    def test_reconciliation_reads_per_layer_metrics(self):
        names = {m["name"] for m in self.spec["per_layer"]}
        for wl, _, probe, count, phase in bench.RECONCILE:
            self.assertIn(wl, bench.WORKLOADS)
            self.assertLessEqual({probe, count, phase}, names)

    def test_setup_has_the_largest_bound(self):
        e2e = {m["name"]: m for m in self.spec["end_to_end"]}
        self.assertEqual(e2e["setup_s"]["unit"], "s")
        self.assertEqual(e2e["setup_s"]["better"], "lower")
        self.assertEqual(e2e["setup_s"]["bound"],
                         max(m["bound"] for m in e2e.values()))


class ExpectedGateTest(unittest.TestCase):
    def setUp(self):
        with open(bench.EXPECTED) as f:
            self.expected = json.load(f)

    def test_every_workload_is_pinned(self):
        self.assertEqual(set(self.expected), set(bench.WORKLOADS))

    def test_untampered_outputs_pass(self):
        for wl in bench.APP_WORKLOADS:
            observed = copy.deepcopy(self.expected[wl])
            self.assertEqual(bench.diff_expected(observed,
                                                 self.expected[wl]), [])

    def test_tampered_expected_is_caught(self):
        for wl in bench.APP_WORKLOADS:
            observed = copy.deepcopy(self.expected[wl])
            tampered = copy.deepcopy(self.expected[wl])
            tampered["totals"]["counts"]["barriers"] += 1
            errors = bench.diff_expected(observed, tampered)
            self.assertEqual(len(errors), 1)
            self.assertIn("totals.counts.barriers", errors[0])

    def test_tampered_campaign_is_caught(self):
        want = self.expected["campaign"]["elapsed_cycles"]
        tampered = copy.deepcopy(want)
        key = sorted(tampered)[0]
        tampered[key] = [tampered[key][0] + 1]
        self.assertEqual(len(bench.diff_expected(want, tampered)), 1)

    def test_missing_and_extra_fields_are_caught(self):
        observed = copy.deepcopy(self.expected["gauss-mp"])
        del observed["result"]
        observed["surprise"] = 1
        errors = bench.diff_expected(observed, self.expected["gauss-mp"])
        self.assertEqual(sorted(e.split(":")[0] for e in errors),
                         ["result", "surprise"])

    def test_exact_check_only_at_the_default_seed(self):
        self.assertTrue(bench.exact_check_applies("em3d-sm", 42))
        self.assertFalse(bench.exact_check_applies("em3d-sm", 7))
        self.assertTrue(bench.exact_check_applies("gauss-mp", 12345))
        self.assertTrue(bench.exact_check_applies("mse-sm", 7))
        self.assertTrue(bench.exact_check_applies("campaign", 7))


class HostSpeedTest(unittest.TestCase):
    def test_wall_metrics_scale_by_speed(self):
        # A CPU running at 0.8 of the reference speed: 2.5 s of wall
        # time reads as 2.0 s at reference speed.
        m = bench.wall_metrics(2.5, 0.8, 30e6)
        self.assertEqual(m["wall_s"], 2.5)
        self.assertAlmostEqual(m["norm_wall_s"], 2.0)
        self.assertAlmostEqual(m["sim_cycles_per_s"], 15.0)

    def test_sampler_samples_at_start_and_stops(self):
        s = bench.SpeedSampler()
        s.start()
        s.stopped.set()
        s.join(5)
        self.assertFalse(s.is_alive())
        self.assertGreaterEqual(len(s.samples), 1)
        self.assertGreater(s.speed(), 0)


class LayerMathTest(unittest.TestCase):
    def test_phase_layers_weights_coverage_by_thread_time(self):
        man = [{"thread_sec": 1.0, "coverage": 0.9,
                "phases": [{"name": "fiber", "sec": 0.5},
                           {"name": "untracked", "sec": 0.1}]},
               {"thread_sec": 3.0, "coverage": 0.99,
                "phases": [{"name": "fiber", "sec": 1.5}]}]
        lay = bench.phase_layers(man)
        self.assertAlmostEqual(lay["sim.fiber_s"], 2.0)
        self.assertAlmostEqual(lay["prof.coverage"], (0.9 + 3 * 0.99) / 4)
        self.assertEqual(lay["sm.protocol_s"], 0.0)

    def test_derived_layers_are_zero_for_idle_layers(self):
        lay = {"mem.host_s": 0.5, "mem.accesses": 1e9,
               "sm.protocol_s": 0.0, "sm.proto_msgs": 0,
               "sim.fiber_s": 1.0, "mp.packets": 0}
        d = bench.derived_layers(lay)
        self.assertAlmostEqual(d["mem.ns_per_access"], 0.5)
        self.assertEqual(d["sm.ns_per_proto_msg"], 0.0)
        self.assertEqual(d["mp.fiber_ns_per_packet"], 0.0)


if __name__ == "__main__":
    unittest.main()
