#!/usr/bin/env python3
"""Command-line tests of the benchmark: strict argument handling of
perfbench/run.py and of the csfma_perfbench binary, and the shape of the
one-line JSON result.

    python3 perfbench/test_run.py --binary <path to csfma_perfbench>

run.py is only exercised on arguments it must reject, which it does
before building anything.
"""
import argparse
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_PY = os.path.join(HERE, "run.py")
BINARY = None

BAD_ARGS = [
    ["--workload", "nope"],
    ["--workload", "batch_ieee", "--seed", "x"],
    ["--workload", "batch_ieee", "--seed", "-3"],
    ["--workload", "batch_ieee", "--seconds", "abc"],
    ["--workload", "batch_ieee", "--trace", "2"],
    ["--workload", "batch_ieee", "--bogus", "1"],
    ["--seed", "1"],
]


def run(cmd):
    return subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=300)


class RunPyArguments(unittest.TestCase):
    def test_rejects_bad_arguments(self):
        for args in BAD_ARGS:
            with self.subTest(args=args):
                p = run([sys.executable, RUN_PY] + args)
                self.assertEqual(p.returncode, 2, p.stderr)
                self.assertIn("usage", p.stderr)
                self.assertEqual(p.stdout, "")


class BinaryArguments(unittest.TestCase):
    def test_rejects_bad_arguments(self):
        for args in BAD_ARGS + [["--workload", "batch_ieee", "--size", "1k"]]:
            with self.subTest(args=args):
                p = run([BINARY] + args)
                self.assertEqual(p.returncode, 2, p.stderr)
                self.assertIn("usage", p.stderr)
                self.assertEqual(p.stdout, "")


class ResultLine(unittest.TestCase):
    def check(self, workload, trace, size):
        p = run([BINARY, "--workload", workload, "--seed", "3", "--seconds",
                 "0.05", "--trace", trace, "--size", size])
        self.assertEqual(p.returncode, 0, p.stdout[-2000:])
        result = json.loads(p.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            bench = json.load(f)
        wanted = {m["name"]: m["unit"]
                  for m in bench["per_layer" if trace == "1" else "end_to_end"]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, wanted)

    def test_untraced(self):
        self.check("batch_ieee", "0", "256")

    def test_traced(self):
        self.check("hls_ldlsolve", "1", "1")


if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("--binary", required=True)
    args, rest = parser.parse_known_args()
    BINARY = args.binary
    unittest.main(argv=[sys.argv[0]] + rest)
