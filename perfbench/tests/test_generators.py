#!/usr/bin/env python3
"""Determinism tests of the benchmark's seeded generators.

    python3 perfbench/tests/test_generators.py

Builds the benchmark the way perfbench/run.py does, then checks that a seed
yields byte-identical jobs on every run, that different seeds give different
jobs, and that the committed golden digests cover the default seed's jobs.
"""

import hashlib
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import run as perfbench_run  # noqa: E402

GOLDEN = os.path.join(os.path.dirname(HERE), "golden")


class GeneratorTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = perfbench_run.build()

    def emit(self, workload, seed):
        return subprocess.run(
            [self.binary, "--workload", workload, "--seed", str(seed),
             "--emit-jobs"],
            check=True, capture_output=True).stdout

    def test_same_seed_gives_byte_identical_jobs(self):
        for workload in perfbench_run.WORKLOADS:
            with self.subTest(workload=workload):
                first = self.emit(workload, 7)
                self.assertTrue(first)
                self.assertEqual(first, self.emit(workload, 7))

    def test_seeds_give_different_jobs(self):
        for workload in perfbench_run.WORKLOADS:
            with self.subTest(workload=workload):
                self.assertNotEqual(self.emit(workload, 7),
                                    self.emit(workload, 8))

    def test_golden_digests_cover_the_default_seed(self):
        for workload in ("campaign", "wide"):
            with self.subTest(workload=workload):
                names = [line.split()[1] for line in
                         self.emit(workload, 1).decode().splitlines()
                         if line.startswith("### ")]
                path = os.path.join(GOLDEN, workload + "-seed1.tsv")
                with open(path) as f:
                    golden = [line.split("\t")[0] for line in f]
                self.assertEqual(names, golden)

    def test_default_seed_jobs_are_pinned(self):
        # The golden digests were computed from exactly these job lists; a
        # generator change must regenerate them (see perfbench/README.md).
        for workload, digest in PINNED.items():
            with self.subTest(workload=workload):
                self.assertEqual(
                    hashlib.sha256(self.emit(workload, 1)).hexdigest(),
                    digest)


PINNED = {
    "campaign":
        "076f42e1d731168a45c396581ef2505e30f607b87ede47ee6fd295e27cb3db37",
    "ring": "0348d77edb54c756d7468ab7aad70fbcb93baa674bf4d033d607e3af44bc383b",
    "wide": "89e17310825cdfd7f1c1f00bc40c83558dffd654544c6f8577d8c8077f86026a",
    "sweep":
        "0f85582b83e882047c4331158aea83af1f88751334c3f746427a021b9a7f9e86",
}

if __name__ == "__main__":
    unittest.main()
