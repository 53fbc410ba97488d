"""Acceptance criteria, one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criteria pin both the
numeric tolerance and a wall-clock budget; the expensive flow runs are shared
between criteria through session fixtures (the pinching-preservation run also
feeds the monotonicity criterion, as both concern the same trajectory).
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from mcflow import (
    ParamGrid,
    SolutionSpec,
    FlowConfig,
    Trajectory,
    blowup_type2,
    cap_extinction_time,
    cap_radius,
    cylinder_law,
    normal_curvature,
    rescale_type1,
    run,
    second_fundamental_form,
    seed_immersion,
    sphere_law,
    fsigma_integral,
)
from mcflow.immersion import covariant_gradient_fields, geometry_fields
from mcflow.verify import run_suite
from conftest import cap_oracle_worst_error, ellipsoid_of_revolution


def _report(num, text, elapsed, budget):
    print(f"\n[PASS] criterion {num}: {text} ({elapsed:.1f}s < {budget}s)")
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"


# ---------------------------------------------------------------------------
# shared expensive runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def quarter_area_runs():
    """Unit 2-spheres in R^3 and R^4 at 64x128, flowed to quarter area."""
    out = {}
    t0 = time.perf_counter()
    for k in (1, 2):
        grid = ParamGrid("LatLongSphere", (64, 128))
        seed = seed_immersion(SolutionSpec(kind="Sphere", n=2, k=k, radius=1.0),
                              grid, 0.0)
        out[k] = run(seed, FlowConfig(t_end=0.1875, cfl=0.2, snapshot_every=50))
    return out, time.perf_counter() - t0


@pytest.fixture(scope="session")
def perturbed_runs():
    """Pinched perturbed spheres (amplitude 0.05, mode 2) at two resolutions."""
    out = {}
    t0 = time.perf_counter()
    for res in ((48, 96), (64, 128)):
        grid = ParamGrid("LatLongSphere", res)
        seed = seed_immersion(
            SolutionSpec(kind="Sphere", n=2, k=1, radius=1.0,
                         perturb_amp=0.05, perturb_mode=2), grid, 0.0)
        out[res] = run(seed, FlowConfig(t_end=0.15, cfl=0.2, snapshot_every=25))
    return out, time.perf_counter() - t0


@pytest.fixture(scope="session")
def ancient_law_trajectory():
    """Dense exact-law sphere trajectory (n=2, k=2) for the rescaling
    transforms; the time grid is fine enough that linear interpolation sits
    below the 1e-6 radius tolerance."""
    grid = ParamGrid("LatLongSphere", (24, 48))
    spec = SolutionSpec(kind="Sphere", n=2, k=2)
    times = np.linspace(-2.4, -0.45, 1501)
    snaps = [seed_immersion(spec, grid, t) for t in times]
    return Trajectory(snapshots=snaps, diagnostics=[], mode="Ancient")


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_01_pair_identity():
    t0 = time.perf_counter()
    rows = run_suite("lemma31", 10_000, seed=42)
    bad = sum(r.violations for r in rows)
    worst = min(r.worst_margin for r in rows)
    assert {r.n for r in rows} == set(range(2, 9))
    assert bad == 0, f"{bad} identity violations, worst margin {worst}"
    _report(1, f"eigenvalue-pair identity, 1e4 matrices, worst margin {worst:.2e}",
            time.perf_counter() - t0, 10)


def test_criterion_02_operator_pinching():
    t0 = time.perf_counter()
    rows = run_suite("operator-pinch", 100_000, seed=42)
    bad = sum(r.violations for r in rows)
    total = sum(r.samples for r in rows)
    assert total >= 99_000
    assert {r.n for r in rows} == set(range(2, 7))
    assert {r.k for r in rows} == {1, 2, 3, 4}
    assert bad == 0, f"{bad} operator-pinching violations"
    _report(2, f"curvature-operator pinching, {total} samples, 0 violations",
            time.perf_counter() - t0, 60)


def test_criterion_03_reaction_inequality():
    t0 = time.perf_counter()
    rows = run_suite("reaction", 1_000_000, seed=42)
    bad = sum(r.violations for r in rows)
    total = sum(r.samples for r in rows)
    worst = min(r.worst_margin for r in rows)
    assert total >= 999_000
    assert {r.n for r in rows} == {2, 3, 4}
    assert {r.k for r in rows} == {1, 2, 3, 4}
    assert bad == 0, f"{bad} reaction-inequality violations"
    assert worst > 0.0
    _report(3, f"reaction inequality, {total} samples, 0 violations",
            time.perf_counter() - t0, 120)


def test_criterion_04_exact_solution_regression():
    t0 = time.perf_counter()
    for n in range(2, 7):
        for t in (-17.0, -1.0, -1e-3):
            s = sphere_law(n, t)
            assert abs((-t) * s.normH2 - n / 2.0) <= 1e-12 * (n / 2.0)
            for m in range(1, n):
                c = cylinder_law(n, m, t)
                assert abs((-t) * c.normH2 - (n - m) / 2.0) <= 1e-12 * n

    grid = ParamGrid("LatLongSphere", (64, 128))
    im = seed_immersion(SolutionSpec(kind="Sphere", n=2, k=2, radius=1.0), grid, 0.0)
    gf = geometry_fields(im)
    assert np.abs(gf.normh2 / gf.normH2 - 0.5).max() <= 1e-3

    grid = ParamGrid("LatLongSphere", (96, 192))
    im = seed_immersion(SolutionSpec(kind="Veronese", n=2, k=3), grid, 0.0)
    gf = geometry_fields(im)
    ratio_err = np.abs(gf.normh2 / gf.normH2 - 5.0 / 6.0).max()
    assert ratio_err <= 1e-3
    rp = normal_curvature(second_fundamental_form(im, (24, 53)).pc).norm_sq
    assert rp > 1.0   # analytic value 16/9 at unit image radius
    _report(4, f"exact-solution regression (Veronese ratio err {ratio_err:.1e}, "
               f"|Rperp|^2 = {rp:.4f})", time.perf_counter() - t0, 30)


def test_criterion_05_flow_regression(quarter_area_runs):
    runs, elapsed = quarter_area_runs
    for k, traj in runs.items():
        recs = traj.diagnostics
        assert traj.stop_reason == "t_end"
        # radius trace against sqrt(1 - 4t)
        for snap in traj.snapshots:
            r = np.linalg.norm(snap.positions, axis=-1)
            expect = math.sqrt(1.0 - 4.0 * snap.t)
            assert np.abs(r / expect - 1.0).max() <= 1e-2
        # area decay identity: central-difference d(mu)/dt vs -int |H|^2
        for i in range(1, len(recs) - 1):
            dmu = (recs[i + 1].area - recs[i - 1].area) / (recs[i + 1].t - recs[i - 1].t)
            assert abs(-dmu - recs[i].intH2) <= 1e-2 * recs[i].intH2, \
                f"area decay identity fails at record {i} (k={k})"
        # Gauss curvature integral stays at 4 pi
        for rec in recs:
            assert abs(rec.gaussBonnet - 4 * math.pi) <= 0.005 * 4 * math.pi
        # quarter area reached
        assert recs[-1].area / recs[0].area == pytest.approx(0.25, rel=1e-2)
    _report(5, "flow regression in R^3 and R^4 (radius, area decay, curvature "
               "integral)", elapsed, 300)


def test_criterion_06_pinching_preservation(perturbed_runs):
    runs, elapsed = perturbed_runs
    finals = []
    for res, traj in runs.items():
        recs = traj.diagnostics
        assert -recs[0].minQ < 0.0, f"seed not strictly pinched at {res}"
        for rec in recs:
            max_q = -rec.minQ
            assert max_q < 1e-6 * rec.maxH ** 2, \
                f"pinching violated at t={rec.t} on {res}: maxQ={max_q}"
        # the worst pinching ratio relaxes monotonically toward the round value
        ratios = [r.maxRatio for r in recs]
        assert all(b <= a + 1e-6 for a, b in zip(ratios, ratios[1:])), \
            f"max ratio not non-increasing at {res}"
        finals.append(ratios[-1])
    assert abs(finals[0] - finals[1]) <= 1e-3   # the two resolutions agree
    _report(6, "pinching preservation on perturbed spheres at two resolutions",
            elapsed, 600)


def test_criterion_07_fsigma_monotonicity(perturbed_runs):
    runs, _ = perturbed_runs
    t0 = time.perf_counter()
    traj = runs[(64, 128)]
    phis = [r.phi for r in traj.diagnostics]
    drops = [b - a for a, b in zip(phis, phis[1:])]
    assert all(d <= 1e-8 for d in drops), f"phi increased by {max(drops)}"
    # companion series at (sigma, p) = (0.05, 40), recorded for the report
    aux = [fsigma_integral(s, 0.05, 40.0)[0] for s in traj.snapshots[::10]]
    print(f"\n    phi(0.1,10) from {phis[0]:.3e} to {phis[-1]:.3e}; "
          f"phi(0.05,40) series head {aux[:3]}")
    _report(7, "f_sigma integral non-increasing within 1e-8",
            time.perf_counter() - t0, 120)


def test_criterion_08_rescaling_contracts(ancient_law_trajectory):
    t0 = time.perf_counter()
    traj = ancient_law_trajectory

    res2 = blowup_type2(traj)
    tau0 = min(res2.trajectory.snapshots, key=lambda s: abs(s.t))
    assert abs(tau0.t) <= 1e-12
    gf = geometry_fields(tau0)
    assert abs(math.sqrt(gf.normH2.max()) - 1.0) <= 1e-10
    mid = len(traj.snapshots) // 2
    a = geometry_fields(traj.snapshots[mid])
    b = geometry_fields(res2.trajectory.snapshots[mid])
    ratio_gap = np.abs(a.normh2 / a.normH2 - b.normh2 / b.normH2).max()
    assert ratio_gap <= 1e-12

    worst_radius = 0.0
    for tj in (-1.1, -0.8, -0.55):
        res1 = rescale_type1(traj, tj, n_tau=11)
        tail = res1.trajectory.snapshots[-1]      # tau = -1 slice
        r = np.linalg.norm(tail.positions[..., :3], axis=-1)
        worst_radius = max(worst_radius, np.abs(r - 2.0).max())
        for snap in res1.trajectory.snapshots:
            rr = np.linalg.norm(snap.positions[..., :3], axis=-1)
            assert np.abs(rr - math.sqrt(-4.0 * snap.t)).max() <= 1e-6
    assert worst_radius <= 1e-6
    _report(8, f"rescaling contracts (max|H|-1 at tau=0 = "
               f"{abs(math.sqrt(gf.normH2.max()) - 1.0):.1e}, type-1 radius "
               f"spread {worst_radius:.1e})", time.perf_counter() - t0, 120)


def test_criterion_09_gradient_estimate():
    t0 = time.perf_counter()
    worst = math.inf
    for res in ((32, 64), (64, 128)):
        im = ellipsoid_of_revolution(res)    # 2:1 prolate, k = 1
        gh2, gH2 = covariant_gradient_fields(im)
        margin = gh2 - 0.75 * gH2
        worst = min(worst, float(margin.min()))
        assert margin.min() >= 0.0, f"gradient estimate violated at {res}"
    _report(9, f"gradient estimate on the 2:1 ellipsoid, worst margin {worst:.2e}",
            time.perf_counter() - t0, 60)


def test_criterion_10_sphere_background():
    t0 = time.perf_counter()
    rows = run_suite("f-bound", 100_000, seed=42)
    assert sum(r.violations for r in rows) == 0
    assert sum(r.samples for r in rows) >= 99_000

    rows = run_suite("adapted-r2", 100_000, seed=42)
    assert sum(r.violations for r in rows) == 0

    rows = run_suite("sphere-case2", 100_000, seed=42)
    assert sum(r.violations for r in rows) == 0

    rows = run_suite("sphere-case1", 100_000, seed=42)
    assert sum(r.violations for r in rows) == 0
    assert {r.n for r in rows} == {4, 5}

    # cap radius law against an RK4 integration of its defining flow
    n, R, rho0, t0_cap = 2, 1.0, 1.0, 0.0
    t_ext = cap_extinction_time(n, R, rho0, t0_cap)
    t_hi = t0_cap + 0.95 * (t_ext - t0_cap)
    worst = cap_oracle_worst_error(n, R, rho0, t0_cap, t0_cap - 10.0, t_hi, 400_000)
    assert worst <= 1e-6, f"cap ODE oracle disagrees: {worst:.2e}"
    _report(10, f"sphere background (f<=1, R2 identity, case-1/2 fuzz, cap ODE "
                f"err {worst:.1e})", time.perf_counter() - t0, 180)


def test_criterion_11_determinism(tmp_path):
    t0 = time.perf_counter()
    procs = []
    for run in ("a", "b"):
        procs.append(subprocess.Popen(
            [sys.executable, "-m", "mcflow.cli", "verify", "--suite", "reaction",
             "--samples", "1000000", "--seed", "42",
             "--out", str(tmp_path / f"rep_{run}.csv")],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE))
        procs.append(subprocess.Popen(
            [sys.executable, "-m", "mcflow.cli", "simulate", "--spec", "sphere",
             "--n", "2", "--k", "2", "--radius", "1", "--grid", "64x128",
             "--t-end", "0.1875", "--snapshot-every", "50",
             "--out", str(tmp_path / f"run_{run}")],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE))
    for p in procs:
        _, err = p.communicate()
        assert p.returncode == 0, err

    rep_a = (tmp_path / "rep_a.csv").read_bytes()
    rep_b = (tmp_path / "rep_b.csv").read_bytes()
    assert rep_a == rep_b, "reaction reports differ between identical runs"
    csv_a = (tmp_path / "run_a" / "diagnostics.csv").read_bytes()
    csv_b = (tmp_path / "run_b" / "diagnostics.csv").read_bytes()
    assert csv_a == csv_b, "diagnostics CSVs differ between identical runs"
    _report(11, "byte-identical CSVs across identical runs for criteria 3 and 5",
            time.perf_counter() - t0, 900)
