"""Self-tests of the benchmark: every check accepts a right input and refuses
a wrong one, the trace coverage check refuses counts that miss a call, and
BENCHMARK.json names what run.py prints.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

They take well under a second; mcflow is imported from ``src/`` for its
reaction kernel.
"""

from __future__ import annotations

import json
import math
import os
import sys
import tempfile
import unittest

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402

SCRATCH = os.path.join(ROOT, ".perfbench-out", "tmp")


def setUpModule():
    os.makedirs(SCRATCH, exist_ok=True)


def sphere_points(radius: float, count: int = 200, dim: int = 4, seed: int = 0) -> np.ndarray:
    """Points on a round 2-sphere of the given radius in the first three axes."""
    v = np.random.default_rng(seed).standard_normal((count, dim))
    v[:, 3:] = 0.0
    return radius * v / np.linalg.norm(v, axis=1, keepdims=True)


def row(**values) -> dict:
    return {k: repr(float(v)) if not isinstance(v, str) else v for k, v in values.items()}


class FlowLaws(unittest.TestCase):
    radius = staticmethod(lambda t: math.sqrt(1.0 - 4.0 * t))
    times = (0.0, 0.01, 0.02)

    def snaps(self, scale=1.0):
        return [(t, scale * sphere_points(self.radius(t), seed=i)) for i, t in enumerate(self.times)]

    def test_radius(self):
        self.assertLess(checks.check_radius_law(self.snaps(), self.radius), 1e-12)
        with self.assertRaises(CheckFailed):
            checks.check_radius_law(self.snaps(1.01), self.radius)

    def test_area(self):
        area = lambda t: 4.0 * math.pi * (1.0 - 4.0 * t)
        rows = [row(t=t, area=area(t)) for t in self.times]
        checks.check_area_law(rows, area)
        rows[1]["area"] = repr(1.01 ** 2 * area(self.times[1]))
        with self.assertRaises(CheckFailed):
            checks.check_area_law(rows, area)

    def test_gauss_bonnet(self):
        rows = [row(t=0.0, gaussBonnet=4.0 * math.pi * (1.0 + 1e-4))]
        self.assertAlmostEqual(checks.check_gauss_bonnet(rows), 1e-4)
        rows[0]["gaussBonnet"] = repr(4.0 * math.pi * 1.006)
        with self.assertRaises(CheckFailed):
            checks.check_gauss_bonnet(rows)
        rows[0]["gaussBonnet"] = ""
        with self.assertRaises(CheckFailed):
            checks.check_gauss_bonnet(rows)

    def test_fourth_coordinate(self):
        snaps = self.snaps()
        checks.check_zero_coordinate(snaps, axis=3)
        snaps[2][1][17, 3] = 1e-300
        with self.assertRaises(CheckFailed):
            checks.check_zero_coordinate(snaps, axis=3)

    def test_pinched_and_stop_reason(self):
        checks.check_pinched([row(t=0.0, minQ=0.7)])
        with self.assertRaises(CheckFailed):
            checks.check_pinched([row(t=0.0, minQ=0.7), row(t=0.1, minQ=-1e-12)])
        checks.check_stop_reason({"stop_reason": "t_end"})
        with self.assertRaises(CheckFailed):
            checks.check_stop_reason({"stop_reason": "max_steps"})

    def test_record_counts(self):
        files = ["snap_000000.txt", "snap_000001.txt"]
        manifest = {"outputs": files + ["diagnostics.csv"]}
        checks.check_record_counts(manifest, files, [{}, {}])
        with self.assertRaises(CheckFailed):      # a stale snapshot left on disk
            checks.check_record_counts(manifest, files + ["snap_000002.txt"], [{}, {}])
        with self.assertRaises(CheckFailed):
            checks.check_record_counts(manifest, files, [{}])

    def test_snapshot_reader(self):
        pos = sphere_points(0.8, count=8 * 16)
        with tempfile.TemporaryDirectory(dir=SCRATCH) as d:
            path = os.path.join(d, "snap_000000.txt")
            with open(path, "w") as fh:
                fh.write("MCFLOW v1 n=2 k=2 topology=LatLongSphere res=8x16 t=0.25\n")
                fh.write("\n".join(" ".join(f"{c:.17g}" for c in p) for p in pos) + "\n")
            t, got = checks.read_snapshot(path)
            self.assertEqual(t, 0.25)
            np.testing.assert_array_equal(got, pos)
            with open(path, "a") as fh:
                fh.write("1 2 3 4\n")
            with self.assertRaises(CheckFailed):
                checks.read_snapshot(path)


class VeroneseLaws(unittest.TestCase):
    def test_ratio(self):
        checks.check_ratio([row(maxRatio=5 / 6 + 1e-4)], 5 / 6)
        with self.assertRaises(CheckFailed):
            checks.check_ratio([row(maxRatio=5 / 6 + 2e-3)], 5 / 6)

    def test_type1(self):
        checks.check_type1({"kind": "TypeI", "C2": "1.001"}, 1.0)
        with self.assertRaises(CheckFailed):
            checks.check_type1({"kind": "TypeII", "C2": "1.0"}, 1.0)
        with self.assertRaises(CheckFailed):
            checks.check_type1({"kind": "TypeI", "C2": "1.02"}, 1.0)

    def test_area_exponent(self):
        checks.check_area_exponent({"r": "1.0005"}, 1.0)
        with self.assertRaises(CheckFailed):
            checks.check_area_exponent({"r": "1.05"}, 1.0)

    def test_type2(self):
        times = [-1.0, -0.8, -0.6, -0.5]
        tj = times[-1]

        def summary(L, maxH=1.0):
            return [row(tau=(t - tj) * L, maxH=maxH if t == tj else 0.9) for t in times]

        checks.check_type2(times, summary(1.0 / -tj * (1 + 1e-3)))
        with self.assertRaises(CheckFailed):
            checks.check_type2(times, summary(1.0 / -tj * 1.05))
        with self.assertRaises(CheckFailed):
            checks.check_type2(times, summary(1.0 / -tj, maxH=1.0 + 1e-9))
        with self.assertRaises(CheckFailed):          # one slice missing
            checks.check_type2(times, summary(1.0 / -tj)[1:])


def fuzz_report(suite="reaction", requested=1200, seed=7) -> list[dict]:
    """A clean report: every expected cell, the request split evenly."""
    cells = sorted(checks.expected_cells(suite))
    base, extra = divmod(requested, len(cells))
    return [{"suite": s, "n": str(n), "k": str(k),
             "samples": str(base + (i < extra)), "violations": "0",
             "worstMargin": "0.5", "seed": str(seed)}
            for i, (s, n, k) in enumerate(cells)]


class FuzzReports(unittest.TestCase):

    def test_expected_cells(self):
        self.assertEqual(len(checks.expected_cells("reaction")), 12)
        self.assertEqual(len(checks.expected_cells("operator-pinch")), 28)
        self.assertEqual(len(checks.expected_cells("lemma31")), 7)

    def test_accepts_a_clean_report(self):
        totals = checks.check_fuzz_report(fuzz_report(), ("reaction",), 1200, 7)
        self.assertEqual(totals, {"reaction": 1200})
        rows = sum((fuzz_report(s) for s in checks.SUITES), [])
        checks.check_fuzz_report(rows, checks.SUITES, 1200, 7)

    def test_one_violation(self):
        rows = fuzz_report()
        rows[5]["violations"] = "1"
        with self.assertRaises(CheckFailed):
            checks.check_fuzz_report(rows, ("reaction",), 1200, 7)

    def test_missing_cell_and_short_totals(self):
        with self.assertRaises(CheckFailed):
            checks.check_fuzz_report(fuzz_report()[1:], ("reaction",), 1200, 7)
        rows = fuzz_report()
        rows[0]["samples"] = str(int(rows[0]["samples"]) - 13)   # 1187 < 99% of 1200
        with self.assertRaises(CheckFailed):
            checks.check_fuzz_report(rows, ("reaction",), 1200, 7)
        rows = fuzz_report("lemma31")
        rows[0]["samples"] = str(int(rows[0]["samples"]) - 1)     # not rejection-sampled
        with self.assertRaises(CheckFailed):
            checks.check_fuzz_report(rows, ("lemma31",), 1200, 7)

    def test_wrong_seed(self):
        with self.assertRaises(CheckFailed):
            checks.check_fuzz_report(fuzz_report(seed=8), ("reaction",), 1200, 7)


class ReactionTerms(unittest.TestCase):
    def tensors(self, n=3, k=2, count=5):
        h = np.random.default_rng(3).standard_normal((count, n, n, k))
        return (h + h.transpose(0, 2, 1, 3)) / 2.0

    def test_loops_match_and_refuse_1e9(self):
        from mcflow.curvature import batch_reaction_terms
        h = self.tensors()
        r1, r2 = batch_reaction_terms(h)
        checks.check_reaction_terms(h, r1, r2)
        bad = r1.copy()
        bad[2] *= 1.0 + 1e-9
        with self.assertRaises(CheckFailed):
            checks.check_reaction_terms(h, bad, r2)
        bad = r2.copy()
        bad[4] *= 1.0 - 1e-9
        with self.assertRaises(CheckFailed):
            checks.check_reaction_terms(h, r1, bad)

    def test_normal_curvature_vanishes_for_k1(self):
        h = self.tensors(n=4, k=1, count=1)[0]
        r1, _ = checks.reaction_terms_loops(h)
        self.assertAlmostEqual(r1, float((h ** 2).sum() ** 2), places=9)

    def test_pinching_bound(self):
        n, k, c = 3, 2, 0.4
        h = np.zeros((2, n, n, k))
        h[:, np.arange(n), np.arange(n), 0] = 1.0       # umbilic: |h|^2 = |H|^2 / n
        checks.check_pinching_bound(h, c)
        h[1, 0, 1, 1] = h[1, 1, 0, 1] = 2.0
        with self.assertRaises(CheckFailed):
            checks.check_pinching_bound(h, c)


class Coverage(unittest.TestCase):
    def test_missed_calls_are_refused(self):
        from workloads import WORKLOADS
        w = WORKLOADS["fuzz-reaction"]
        rows = fuzz_report(requested=1200)
        with tempfile.TemporaryDirectory(dir=SCRATCH) as d:
            with open(os.path.join(d, "fuzz_report.csv"), "w") as fh:
                fh.write(",".join(rows[0]) + "\n")
                fh.writelines(",".join(r.values()) + "\n" for r in rows)
            good = {"verify": {"verify.reaction": {"calls": 1, "notes": [1200]},
                               "sampling.pinched_tensors": {"calls": 1, "notes": [(1200, 1200)]}}}
            w.coverage({}, d, good)
            for bad in ({"verify": {"verify.reaction": {"calls": 1, "notes": [1200]}}},
                        {"verify": {"sampling.pinched_tensors": good["verify"]["sampling.pinched_tensors"]}},
                        {"verify": {"verify.reaction": {"calls": 1, "notes": [1199]},
                                    "sampling.pinched_tensors": {"calls": 1, "notes": [(1200, 1199)]}}}):
                with self.assertRaises(CheckFailed):
                    w.coverage({}, d, bad)

    def test_flow_counts(self):
        from workloads import WORKLOADS
        w = WORKLOADS["sphere-r4-flow"]
        with tempfile.TemporaryDirectory(dir=SCRATCH) as d:
            for i in range(3):
                open(os.path.join(d, f"snap_{i:06d}.txt"), "w").close()
            with open(os.path.join(d, "diagnostics.csv"), "w") as fh:
                fh.write("t,area\n0,1\n0.1,1\n0.2,1\n")
            counts = lambda saves, diags: {"simulate": {
                "immersion.save_snapshot": {"calls": saves}, "flow.diagnostics": {"calls": diags}}}
            w.coverage({}, d, counts(3, 3))
            with self.assertRaises(CheckFailed):
                w.coverage({}, d, counts(2, 3))
            with self.assertRaises(CheckFailed):
                w.coverage({}, d, counts(3, 0))


class BenchmarkFile(unittest.TestCase):
    def test_metrics_and_workloads_match_run_py(self):
        import run
        from workloads import WORKLOADS
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.per_layer_units())


if __name__ == "__main__":
    unittest.main()
