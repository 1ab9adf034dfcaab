#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py          # all checks, a few minutes
    python3 perfbench/selftest.py -k names # one check by name

Checks that every metric name is well formed, that each workload
emits every named metric in both the untraced and the traced run,
that a seed repeats bitwise, that another seed changes the output
digest, and that at the reference seed each workload's output equals
the library scenario path it stands for.
"""

import json
import os
import re
import subprocess
import sys
import unittest

import run

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def workloads():
    return [w["name"] for w in spec()["workloads"]]


def execute(workload, seed, threads=None):
    args = [f"workload={workload}", f"seed={seed}"]
    if threads:
        args.append(f"threads={threads}")
    result = run.call("run", *args)
    assert result is not None, f"{workload} seed={seed} failed"
    return result


class BenchmarkSelfTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        assert run.build(), "benchmark build failed"

    def test_names(self):
        s = spec()
        seen = set()
        for group in ("workloads", "end_to_end", "per_layer"):
            for entry in s[group]:
                self.assertRegex(entry["name"], NAME)
                self.assertNotIn(entry["name"], seen)
                seen.add(entry["name"])
                if group != "workloads":
                    self.assertRegex(entry["unit"], UNIT)
                    self.assertIn(entry["better"], ("lower", "higher"))

    def test_every_metric_emitted(self):
        s = spec()
        for workload in workloads():
            for trace, group in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc = subprocess.run(
                        [sys.executable, os.path.join(run.BENCH_DIR, "run.py"),
                         "--workload", workload, "--seed", "5",
                         "--seconds", "1", "--trace", str(trace)],
                        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                        text=True, cwd=run.ROOT)
                    self.assertEqual(proc.returncode, 0)
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(set(result["metrics"]),
                                     {m["name"] for m in s[group]})

    def test_same_seed_repeats(self):
        for workload in workloads():
            with self.subTest(workload=workload):
                a, b = execute(workload, 7), execute(workload, 7)
                self.assertEqual(a["digest"], b["digest"])
                self.assertEqual(a["represented_insts"], b["represented_insts"])
        self.assertEqual(run.call("accuracy"), run.call("accuracy"))

    def test_other_seed_changes_digest(self):
        for workload in workloads():
            with self.subTest(workload=workload):
                self.assertNotEqual(execute(workload, 7)["digest"],
                                    execute(workload, 8)["digest"])

    def test_reference_seed_is_the_scenario(self):
        reference = run.call("reference")
        self.assertIsNotNone(reference)
        for workload in workloads():
            with self.subTest(workload=workload):
                self.assertEqual(execute(workload, 1)["digest"],
                                 reference[workload])


if __name__ == "__main__":
    unittest.main()
