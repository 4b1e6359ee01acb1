#!/usr/bin/env python3
"""Self-tests for the benchmark harness.

  python3 perfbench/test_perfbench.py

- the percentile rule: the reported tail is the highest percentile with at
  least ten samples beyond it;
- BENCHMARK.json is what spec.py generates, and the printed metric names
  match it;
- a tiny-size pass of every workload finishes in seconds, with every answer
  checked. This one builds `hyperbench` first (a few minutes on a cold build).
"""

import io
import json
import sys
import time
import unittest
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))
import run  # noqa: E402
import spec  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_samples_beyond(self):
        self.assertEqual(spec.beyond(100, 90.0), 10)
        self.assertEqual(spec.beyond(1000, 99.0), 10)
        self.assertEqual(spec.beyond(99, 90.0), 9)

    def test_tail_is_highest_with_ten_beyond(self):
        self.assertIsNone(spec.tail_percentile(19))
        self.assertEqual(spec.tail_percentile(20), 50.0)
        self.assertEqual(spec.tail_percentile(99), 50.0)
        self.assertEqual(spec.tail_percentile(100), 90.0)
        self.assertEqual(spec.tail_percentile(999), 90.0)
        self.assertEqual(spec.tail_percentile(1000), 99.0)
        self.assertEqual(spec.tail_percentile(10000), 99.9)
        self.assertEqual(spec.tail_percentile(10 ** 6), 99.99)

    def test_percentile_interpolates(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(spec.percentile(values, 50.0), 50.5)
        self.assertAlmostEqual(spec.percentile(values, 90.0), 90.1)
        self.assertEqual(spec.percentile([7.0], 99.0), 7.0)
        self.assertEqual(spec.percentile([3.0, 1.0, 2.0], 50.0), 2.0)


class Manifest(unittest.TestCase):
    def test_manifest_matches_spec(self):
        committed = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual(committed, spec.manifest())

    def test_manifest_limits(self):
        m = spec.manifest()
        names = [w["name"] for w in m["workloads"]]
        names += [e["name"] for e in m["end_to_end"]]
        names += [p["name"] for p in m["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for w in m["workloads"]:
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        for e in m["end_to_end"]:
            self.assertLessEqual(e["bound"], 0.25)
        setup = [e for e in m["end_to_end"] if e["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["better"], "lower")
        self.assertEqual(setup[0]["bound"],
                         max(e["bound"] for e in m["end_to_end"]))


class TinyPass(unittest.TestCase):
    """Every workload at tiny size, untraced and traced, through run.py."""

    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("hyperbench build failed")

    def check(self, workload, trace):
        out = io.StringIO()
        start = time.monotonic()
        with redirect_stdout(out):
            record = run.run_workload(workload, seed=5, seconds=1,
                                      trace=trace, tiny=True)
        elapsed = time.monotonic() - start
        self.assertLess(elapsed, 60.0)
        lines = out.getvalue().strip().splitlines()
        gated = spec.PER_LAYER if trace else spec.END_TO_END
        expected = [n for n, *_ in gated]
        self.assertEqual(list(record["metrics"]), expected)
        for name, unit, *_ in gated:
            self.assertEqual(record["metrics"][name]["unit"], unit)
            self.assertTrue(any(line.startswith(name + " = ")
                                for line in lines), name)
        self.assertTrue(record["correct"], out.getvalue())
        self.assertEqual(record["failed"], 0)
        self.assertGreaterEqual(record["attempted"], 1)

    def test_warm_whatif(self):
        self.check("warm_whatif_1m", trace=False)
        self.check("warm_whatif_1m", trace=True)

    def test_branch_churn(self):
        self.check("branch_churn_100k", trace=False)
        self.check("branch_churn_100k", trace=True)

    def test_http_german(self):
        self.check("http_german_1k", trace=False)
        self.check("http_german_1k", trace=True)


if __name__ == "__main__":
    unittest.main()
