"""Unit tests for the benchmark's own helpers.

Run from the repository root:  python3 -m unittest discover -s perfbench/tests
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import benchlib as bl  # noqa: E402
import run as bench  # noqa: E402


class TailPercentileTest(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        cases = {
            19: None, 20: "50", 99: "50", 100: "90", 999: "90", 1000: "99",
            8628: "99", 9999: "99", 10000: "99.9", 99999: "99.9", 100000: "99.99",
        }
        for n, want in cases.items():
            with self.subTest(n=n):
                self.assertEqual(bl.tail_percentile(n), want)

    def test_percentile_interpolates(self):
        self.assertEqual(bl.percentile([4, 1, 3, 2], 50), 2.5)
        self.assertEqual(bl.percentile([4, 1, 3, 2], 0), 1)
        self.assertEqual(bl.percentile([4, 1, 3, 2], 100), 4)
        self.assertEqual(bl.percentile([7.0], "99.9"), 7.0)
        with self.assertRaises(ValueError):
            bl.percentile([], 50)


class SelfTimeTest(unittest.TestCase):
    def test_self_time_subtracts_direct_children_only(self):
        # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 7].
        parent = [-1, 0, 0, 2]
        start = [0.0, 1.0, 5.0, 6.0]
        end = [10.0, 4.0, 9.0, 7.0]
        self.assertEqual(bl.self_times(parent, start, end), [3.0, 3.0, 3.0, 1.0])

    def test_tracer_nests_wrapped_calls_and_restores(self):
        ticks = iter(range(100))
        tracer = bl.Tracer(clock=lambda: float(next(ticks)))
        module = SimpleNamespace()
        module.inner = lambda: "done"
        module.outer = lambda: module.inner()
        original_inner, original_outer = module.inner, module.outer
        self.assertTrue(tracer.wrap(module, "inner", "layer.inner"))
        self.assertTrue(tracer.wrap(module, "outer", "layer.outer"))
        self.assertFalse(tracer.wrap(module, "missing", "layer.missing"))
        with tracer.span("op"):
            self.assertEqual(module.outer(), "done")
        tracer.restore()
        self.assertIs(module.inner, original_inner)
        self.assertIs(module.outer, original_outer)
        names = [tracer.names[i] for i in tracer.name_id]
        self.assertEqual(names, ["op", "layer.outer", "layer.inner"])
        self.assertEqual(list(tracer.parent), [-1, 0, 1])
        agg = bl.aggregate(tracer)
        # op [0, 5], outer [1, 4], inner [2, 3]
        self.assertEqual(agg["op"], {"calls": 1, "total_s": 5.0, "self_s": 2.0})
        self.assertEqual(agg["layer.outer"]["self_s"], 2.0)
        self.assertEqual(agg["layer.inner"]["self_s"], 1.0)

    def test_instance_wrap_is_removed_and_errors_recorded(self):
        class Source:
            def read_now(self):
                raise KeyError("empty")

        source = Source()
        tracer = bl.Tracer()
        tracer.wrap(source, "read_now", "sensors.read_now")
        self.assertIn("read_now", vars(source))
        with self.assertRaises(KeyError):
            source.read_now()
        tracer.restore()
        self.assertNotIn("read_now", vars(source))
        self.assertEqual(tracer.raised, {0: "KeyError"})


class NameTest(unittest.TestCase):
    def test_metric_names(self):
        for good in ("setup_s", "thermal.advance_calls", "a-b.c_1", "9lives", "x" * 64):
            self.assertTrue(bl.valid_metric_name(good), good)
        for bad in ("", "_x", ".x", "-x", "a b", "x" * 65, "temp°", "a/b", None):
            self.assertFalse(bl.valid_metric_name(bad), bad)

    def test_units(self):
        for good in ("ms", "s", "1/s", "count", "%", "sim_s", "MiB"):
            self.assertTrue(bl.valid_unit(good), good)
        for bad in ("", "micro seconds", "x" * 17, "°C"):
            self.assertFalse(bl.valid_unit(bad), bad)

    def test_benchmark_json_names_units_and_keys(self):
        spec = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
        self.assertEqual(set(spec), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        names = [w["name"] for w in spec["workloads"]]
        names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertTrue(bl.valid_metric_name(name), name)
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertIn(w["name"], bench.WORKLOADS)
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(bl.valid_unit(m["unit"]))
            self.assertLessEqual(m["bound"], 0.25)
        for m in spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            self.assertTrue(bl.valid_unit(m["unit"]))
        self.assertIn({"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
                      spec["end_to_end"])


def row(compute, idle, log, stall, sim_time, mode="LARGE", event="none"):
    return SimpleNamespace(inference_latency=compute, idle=idle, log_time=log,
                           overhead=stall, sim_time=sim_time, freq=2.0,
                           mode=SimpleNamespace(name=mode), event=event)


class TraceFactsTest(unittest.TestCase):
    def test_conservation_counts_a_shift_rows_own_stall(self):
        trace = [row(0.2, 0.0, 0.02, 0.0, 0.22),
                 row(0.2, 0.0, 0.02, 1.0, 1.44, "SMALL", "shift_to_small"),
                 row(0.1, 0.1, 0.02, 0.0, 1.66, "SMALL")]
        self.assertIsNone(bench.conservation_problem(trace))
        trace[2].sim_time = 1.70
        self.assertIn("row 2", bench.conservation_problem(trace))

    def test_trace_stats_dwell_and_shifts(self):
        trace = [row(0.2, 0.0, 0.02, 0.0, 0.22),
                 row(0.2, 0.0, 0.02, 1.0, 1.44, "SMALL", "shift_to_small"),
                 row(0.1, 0.1, 0.02, 0.0, 1.66, "SMALL"),
                 row(0.1, 0.1, 0.02, 1.0, 2.88, "LARGE", "shift_to_large"),
                 row(0.1, 0.1, 0.02, 0.0, 3.10, "SMALL", "shift_to_small")]
        stats = bench.trace_stats(trace, f_nominal=2.5)
        self.assertEqual(stats["shifts"], 3)
        self.assertEqual(stats["small_runs"], [2, 1])
        self.assertEqual(stats["sim_s"], 3.10)
        self.assertAlmostEqual(stats["stall_s"], 2.0)
        self.assertAlmostEqual(stats["throttled_s"], 3.10)


if __name__ == "__main__":
    unittest.main()
