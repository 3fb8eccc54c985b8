#!/usr/bin/env python3
"""Self-test of the benchmark definition; needs no build and no run.

    python3 perfbench/test_benchmark.py

It checks BENCHMARK.json against the benchmark contract (keys, name and
unit syntax, bounds, counts) and checks that the metric names the
runner and the tracer emit are exactly the names BENCHMARK.json
declares: every declared metric is emitted, every emitted metric is
declared, and each declared metric has a unit. Names are read from
the emitting calls in the sources (Samples.add in run.py, tracer.set
in tracer/main.go), so a metric added on one side only fails here.
"""

import json
import os
import re
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def read(*parts):
    with open(os.path.join(*parts)) as f:
        return f.read()


def emitted_names():
    """(names the runner adds, names the tracer sets)."""
    runner = set(re.findall(r'\bs\.add\("([^"]+)"', read(HERE, "run.py")))
    tracer = set(re.findall(r'\bt\.set\("([^"]+)"', read(HERE, "tracer", "main.go")))
    return runner, tracer


class BenchmarkDefinition(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads(read(ROOT, "BENCHMARK.json"))

    def test_contract_shape(self):
        s = self.spec
        self.assertEqual(set(s), {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"})
        self.assertLessEqual(len(json.dumps(s)), 64 * 1024)
        self.assertTrue(1 <= len(s["command"]) <= 32)
        for arg in s["command"]:
            self.assertLessEqual(len(arg), 200)
            self.assertFalse(arg.startswith("/") or ".." in arg.split("/"), arg)
        self.assertTrue(1 <= len(s["paths"]) <= 16)
        for p in s["paths"]:
            self.assertRegex(p, PATH)
            self.assertTrue(os.path.isdir(os.path.join(ROOT, p)), p)
        self.assertIsInstance(s["run_seconds"], int)
        self.assertTrue(1 <= s["run_seconds"] <= 60)
        self.assertTrue(2 <= len(s["workloads"]) <= 8)
        for w in s["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertTrue(0 < len(w["why"]) <= 200 and "\n" not in w["why"], w["name"])
        self.assertTrue(1 <= len(s["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(s["per_layer"]) <= 128)
        for m in s["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m["name"])
        for m in s["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        names = [x["name"] for x in s["workloads"] + s["end_to_end"] + s["per_layer"]]
        self.assertEqual(len(names), len(set(names)), "names must be unique")
        for m in s["end_to_end"] + s["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        for w in s["workloads"]:
            self.assertRegex(w["name"], NAME)

    def test_setup_metric(self):
        setup = [m for m in self.spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in self.spec["end_to_end"]))

    def test_emitted_equals_declared(self):
        runner, tracer = emitted_names()
        e2e = {m["name"] for m in self.spec["end_to_end"]}
        layer = {m["name"] for m in self.spec["per_layer"]}
        # End-to-end metrics come from the runner's own measurements;
        # per-layer ones from the tracer plus the runner's swarm summary.
        self.assertEqual(e2e, {n for n in runner if "." not in n})
        self.assertEqual(layer, tracer | {n for n in runner if "." in n})

    def test_workloads_are_runnable(self):
        src = read(HERE, "run.py")
        table = src[src.index("WORKLOADS = {"):]
        table = table[:table.index("}")]
        self.assertEqual({w["name"] for w in self.spec["workloads"]}, set(re.findall(r'"([^"]+)":', table)))

    def test_readme_maps_every_metric(self):
        readme = read(HERE, "README.md")
        for m in self.spec["end_to_end"] + self.spec["per_layer"] + self.spec["workloads"]:
            self.assertIn("`%s`" % m["name"], readme, m["name"])


if __name__ == "__main__":
    unittest.main()
