#!/usr/bin/env python3
"""Checks BENCHMARK.json against the benchmark's own rules and its driver.

    python3 perfbench/tests/test_benchmark_json.py

The driver comparison runs when .bench_build/perfbench_driver exists (any
perfbench/run.py invocation builds it).
"""
import json
import os
import re
import subprocess
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
DRIVER = os.path.join(ROOT, ".bench_build", "perfbench_driver")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class BenchmarkJson(unittest.TestCase):
    def setUp(self):
        self.spec = load_spec()

    def test_top_level_keys(self):
        self.assertEqual(set(self.spec), {"command", "paths", "run_seconds",
                                          "workloads", "end_to_end", "per_layer"})
        self.assertEqual(self.spec["paths"], ["perfbench"])
        self.assertTrue(1 <= self.spec["run_seconds"] <= 60)

    def test_names_units_and_bounds(self):
        names = set()
        for key, fields in (("end_to_end", {"name", "unit", "better", "bound"}),
                            ("per_layer", {"name", "unit", "better"})):
            for m in self.spec[key]:
                self.assertEqual(set(m), fields, m)
                self.assertRegex(m["name"], NAME)
                self.assertRegex(m["unit"], UNIT)
                self.assertIn(m["better"], ("lower", "higher"))
                self.assertNotIn(m["name"], names)
                names.add(m["name"])
        bounds = {m["name"]: m["bound"] for m in self.spec["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        setup = next(m for m in self.spec["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(bounds.values()))

    def test_workloads_are_documented(self):
        with open(os.path.join(ROOT, "perfbench", "README.md")) as f:
            readme = f.read()
        workloads = self.spec["workloads"]
        self.assertEqual([w["name"] for w in workloads],
                         ["serve-mix", "regime-sweep", "fleet-10k"])
        for w in workloads:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
            self.assertIn(w["why"], readme, w["name"])

    @unittest.skipUnless(os.path.exists(DRIVER), "driver not built")
    def test_driver_reports_exactly_these_metrics(self):
        out = subprocess.run([DRIVER, "--list-metrics"], capture_output=True,
                             text=True, check=True).stdout
        listed = {"end_to_end": [], "per_layer": []}
        for line in out.splitlines():
            kind, name, unit = line.split()
            listed[kind].append({"name": name, "unit": unit})
        for kind in listed:
            self.assertEqual(listed[kind],
                             [{"name": m["name"], "unit": m["unit"]}
                              for m in self.spec[kind]])


if __name__ == "__main__":
    unittest.main()
