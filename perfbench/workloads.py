"""The four workloads: the mcflow commands of one round, their inputs drawn
from the seed, the checks on a round's outputs and the trace coverage check.

A round's commands write into one fresh directory.  ``check`` runs the full
set of laws on the first round; later rounds must reproduce its files byte
for byte.  ``coverage`` holds the traced call counts of one round against
counts read from the same round's outputs, so a binding site the tracer
missed fails the run instead of reading as a speed-up.
"""

from __future__ import annotations

import math
import os
import random

import numpy as np

import checks
from checks import require


def _read_run(out: str):
    manifest = checks.read_manifest(os.path.join(out, "manifest.json"))
    rows = checks.read_csv(os.path.join(out, "diagnostics.csv"))
    files = checks.snapshot_files(out)
    checks.check_record_counts(manifest, files, rows)
    snaps = [checks.read_snapshot(os.path.join(out, f)) for f in files]
    return manifest, rows, snaps


def _require_calls(counts: dict, name: str, want: int, what: str) -> None:
    got = counts.get(name, {}).get("calls", 0)
    require(got == want, f"trace counts {got} {name} calls against {want} {what}")


class SphereFlow:
    """Unit 2-sphere in R^4 (k = 2) on 64x128, flowed forward over SPAN.

    The seed picks the start time t0 in [0, 1).  The flow is invariant under
    time translation, so every seed takes the same steps and records while
    the arithmetic, and the error figures, differ in their last digits.
    """

    name = "sphere-r4-flow"
    GRID = "64x128"
    SPAN = 0.0075
    RECORD_EVERY = 25

    def params(self, seed: int) -> dict:
        t0 = random.Random(seed).uniform(0.0, 1.0)
        return {"t0": t0, "t_end": t0 + self.SPAN}

    def commands(self, p: dict, out: str) -> list[tuple[str, list[str]]]:
        return [("simulate", [
            "simulate", "--spec", "sphere", "--n", "2", "--k", "2", "--radius", "1",
            "--grid", self.GRID, "--t0", repr(p["t0"]), "--t-end", repr(p["t_end"]),
            "--snapshot-every", str(self.RECORD_EVERY), "--out", out])]

    def check(self, p: dict, out: str) -> dict:
        manifest, rows, snaps = _read_run(out)
        checks.check_stop_reason(manifest, "t_end")
        require(math.isclose(float(rows[-1]["t"]), p["t_end"], rel_tol=1e-12, abs_tol=1e-15),
                f"last record at t={rows[-1]['t']}, expected {p['t_end']!r}")
        t0 = p["t0"]
        radius = checks.check_radius_law(snaps, lambda t: math.sqrt(1.0 - 4.0 * (t - t0)))
        checks.check_area_law(rows, lambda t: 4.0 * math.pi * (1.0 - 4.0 * (t - t0)))
        gb = checks.check_gauss_bonnet(rows)
        checks.check_zero_coordinate(snaps, axis=3)
        checks.check_pinched(rows)
        return {"radius_rel_err": radius, "gauss_bonnet_rel_err": gb}

    def coverage(self, p: dict, out: str, counts: dict) -> None:
        files = checks.snapshot_files(out)
        rows = checks.read_csv(os.path.join(out, "diagnostics.csv"))
        _require_calls(counts["simulate"], "immersion.save_snapshot", len(files),
                       "snapshots on disk")
        _require_calls(counts["simulate"], "flow.diagnostics", len(rows), "diagnostics rows")

    def final_check(self, p: dict, seed: int) -> None:
        pass


class VeroneseBlowup:
    """The Veronese surface on 24x48, run in Ancient mode from t = -s to -s/2
    with every step recorded, then post-processed by ``report``.

    The seed picks the scale s in [0.8, 1.25].  Parabolic scaling maps one
    run onto another, so every seed takes the same steps and records.
    """

    name = "veronese-ancient-blowup"
    GRID = "24x48"

    def params(self, seed: int) -> dict:
        s = random.Random(seed).uniform(0.8, 1.25)
        return {"t0": -s, "t_end": -s / 2.0}

    def commands(self, p: dict, out: str) -> list[tuple[str, list[str]]]:
        return [
            ("simulate", ["simulate", "--spec", "veronese", "--grid", self.GRID,
                          "--mode", "ancient", "--t0", repr(p["t0"]),
                          "--t-end", repr(p["t_end"]), "--snapshot-every", "1",
                          "--out", out]),
            ("report", ["report", "--in", out, "--classify", "--fit-area-decay",
                        "--rescale", "type2"]),
        ]

    def check(self, p: dict, out: str) -> dict:
        manifest, rows, snaps = _read_run(out)
        checks.check_stop_reason(manifest, "t_end")
        require(len(rows) >= 10, f"only {len(rows)} records")
        radius = checks.check_radius_law(snaps, lambda t: 2.0 * math.sqrt(-t))
        gb = checks.check_gauss_bonnet(rows)
        checks.check_ratio(rows, 5.0 / 6.0)
        (classify,) = checks.read_csv(os.path.join(out, "classify.csv"))
        checks.check_type1(classify, 1.0)
        (fit,) = checks.read_csv(os.path.join(out, "area_fit.csv"))
        checks.check_area_exponent(fit, 1.0)
        summary = checks.read_csv(os.path.join(out, "rescale_type2", "summary.csv"))
        checks.check_type2([t for t, _ in snaps], summary)
        checks.check_ratio(summary, 5.0 / 6.0)
        return {"radius_rel_err": radius, "gauss_bonnet_rel_err": gb}

    def coverage(self, p: dict, out: str, counts: dict) -> None:
        files = checks.snapshot_files(out)
        rescaled = checks.snapshot_files(os.path.join(out, "rescale_type2"))
        rows = checks.read_csv(os.path.join(out, "diagnostics.csv"))
        _require_calls(counts["simulate"], "immersion.save_snapshot", len(files),
                       "snapshots on disk")
        _require_calls(counts["simulate"], "flow.diagnostics", len(rows), "diagnostics rows")
        _require_calls(counts["report"], "immersion.load_snapshot", len(files),
                       "snapshots report read")
        _require_calls(counts["report"], "immersion.save_snapshot", len(rescaled),
                       "rescaled snapshots on disk")

    def final_check(self, p: dict, seed: int) -> None:
        pass


class Fuzz:
    """``mcflow verify`` on one suite, or on all seven."""

    RECOMPUTE_CELLS = ((2, 1), (2, 3), (3, 2), (3, 4), (4, 1), (4, 4))
    RECOMPUTE_PER_CELL = 40

    def __init__(self, name: str, suite: str, samples: int):
        self.name, self.suite, self.samples = name, suite, samples
        self.suites = checks.SUITES if suite == "all" else (suite,)

    def params(self, seed: int) -> dict:
        return {"seed": seed}

    def commands(self, p: dict, out: str) -> list[tuple[str, list[str]]]:
        return [("verify", ["verify", "--suite", self.suite, "--samples", str(self.samples),
                            "--seed", str(p["seed"]),
                            "--out", os.path.join(out, "fuzz_report.csv")])]

    def _report(self, out: str):
        return checks.read_csv(os.path.join(out, "fuzz_report.csv"))

    def check(self, p: dict, out: str) -> dict:
        totals = checks.check_fuzz_report(self._report(out), self.suites, self.samples, p["seed"])
        return {"samples": sum(totals.values())}

    def coverage(self, p: dict, out: str, counts: dict) -> None:
        rows = self._report(out)
        traced = counts["verify"]
        for suite in self.suites:
            want = sum(int(r["samples"]) for r in rows if checks.base_suite(r["suite"]) == suite)
            notes = traced.get(f"verify.{suite}", {}).get("notes", [])
            require(sum(notes) == want and notes,
                    f"trace counts {sum(notes)} {suite} samples against {want} reported")
        drawn = sum(int(r["samples"]) for r in rows
                    if checks.base_suite(r["suite"]) in checks.REJECTION_SUITES)
        kept = sum(n for _, n in traced.get("sampling.pinched_tensors", {}).get("notes", []))
        require(kept == drawn, f"trace counts {kept} pinched tensors against {drawn} reported")

    def final_check(self, p: dict, seed: int) -> None:
        """R1, R2 of a few hundred pinched tensors against the index loops."""
        from mcflow.curvature import batch_reaction_terms
        from mcflow.sampling import pinched_tensors
        rng = np.random.default_rng([seed, 7])
        for n, k in self.RECOMPUTE_CELLS:
            c = 4.0 / (3.0 * n) - 0.01
            h = pinched_tensors(rng, self.RECOMPUTE_PER_CELL, n, k, c)
            require(h.shape[0] >= 0.99 * self.RECOMPUTE_PER_CELL,
                    f"pinched_tensors kept {h.shape[0]} of {self.RECOMPUTE_PER_CELL}")
            checks.check_pinching_bound(h, c)
            r1, r2 = batch_reaction_terms(h)
            checks.check_reaction_terms(h, r1, r2)
            require(bool(np.all(c * r2 - r1 > 0)), f"R1 - c R2 >= 0 at n={n} k={k}")


WORKLOADS = {w.name: w for w in (
    SphereFlow(),
    VeroneseBlowup(),
    Fuzz("fuzz-all", "all", 10_000),
    Fuzz("fuzz-reaction", "reaction", 1_000_000),
)}
