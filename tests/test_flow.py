"""Flow integration: step accuracy against shrinking laws, step-size rules,
functionals along runs, classification, and the rescaling transforms."""

import math

import numpy as np
import pytest

from mcflow import (
    FlowConfig,
    MinimalPointError,
    ParamGrid,
    SolutionSpec,
    Trajectory,
    blowup_type2,
    cfl_dt,
    classify_type,
    cylinder_law,
    diagnostics,
    fit_area_decay,
    fsigma_integral,
    rescale_type1,
    run,
    seed_immersion,
    sphere_law,
    step,
    veronese_law,
)
from mcflow.flow import (
    CSV_COLUMNS,
    read_diagnostics_csv,
    synthetic_trajectory,
    write_diagnostics_csv,
    _effective_spacing_sq,
    _polar_filter,
    _zonal,
    _zonal_cutoffs,
)
from mcflow.immersion import geometry_fields, scalar_fields


def sphere_seed(res=(32, 64), k=1, radius=1.0, amp=0.0, mode=2, t=0.0):
    grid = ParamGrid("LatLongSphere", res)
    spec = SolutionSpec(kind="Sphere", n=2, k=k, radius=radius,
                        perturb_amp=amp, perturb_mode=mode)
    return seed_immersion(spec, grid, t)


def circle_seed(res=256, radius=1.0):
    grid = ParamGrid("Circle", (res,))
    return seed_immersion(SolutionSpec(kind="Sphere", n=1, k=1, radius=radius), grid, 0.0)


class TestStep:
    def test_circle_single_rk4_step(self):
        im = step(circle_seed(res=512), 1e-4)
        r = np.linalg.norm(im.positions, axis=-1)
        assert np.abs(r - math.sqrt(1.0 - 2e-4)).max() <= 1e-10

    def test_sphere_single_rk4_step(self):
        im = step(sphere_seed((64, 128)), 1e-4)
        r = np.linalg.norm(im.positions, axis=-1)
        assert np.abs(r - math.sqrt(1.0 - 4e-4)).max() <= 1e-9

    def test_flat_directions_do_not_move(self):
        grid = ParamGrid("Torus2", (32, 16))
        spec = SolutionSpec(kind="Cylinder", n=2, k=1, m=1, radius=1.0, flat_length=4.0)
        im = seed_immersion(spec, grid, 0.0)
        out = step(im, 1e-4)
        assert np.abs(out.positions[..., 2] - im.positions[..., 2]).max() <= 1e-12

    def test_euler_first_order_consistency(self):
        im = circle_seed()
        a = step(im, 1e-5, integrator="Euler")
        b = step(im, 1e-5, integrator="RK4")
        assert np.abs(a.positions - b.positions).max() <= 1e-9

    def test_rk4_fourth_order_in_time(self):
        # spatial error cancels between runs on the same grid, so successive
        # dt halvings contract by ~2^4; dt choices sit inside the stability
        # region of the N = 64 circle throughout the shrink
        im0 = circle_seed(res=64)
        t_end = 0.2

        def final_positions(dt):
            im = im0
            steps = round(t_end / dt)
            for _ in range(steps):
                im = step(im, dt)
            return im.positions

        p1 = final_positions(2e-3)
        p2 = final_positions(1e-3)
        p3 = final_positions(5e-4)
        d1 = np.abs(p1 - p2).max()
        d2 = np.abs(p2 - p3).max()
        assert d1 / d2 >= 13.0, f"time-order contraction {d1 / d2}"

    def test_scale_translation_equivariance(self):
        im = sphere_seed((32, 64), k=2)
        lam, shift = 1.7, np.array([0.3, -0.2, 0.9, 2.0])
        dt = 2e-4
        flowed = step(im, dt)
        moved = im.with_positions(lam * im.positions + shift, im.t)
        flowed_moved = step(moved, lam ** 2 * dt)
        expect = lam * flowed.positions + shift
        scale = np.abs(expect).max()
        assert np.abs(flowed_moved.positions - expect).max() <= 1e-10 * scale

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            step(circle_seed(), 0.0)


class TestCflDt:
    def test_doubling_resolution_quarters_dt(self):
        d1 = cfl_dt(sphere_seed((32, 64)), 0.2)
        d2 = cfl_dt(sphere_seed((64, 128)), 0.2)
        assert d1 / d2 == pytest.approx(4.0, rel=0.01)

    def test_monotone_in_curvature(self):
        # shrinking the sphere raises max|h|^2 and lowers dt
        dts = [cfl_dt(sphere_seed(radius=r), 0.2) for r in (1.0, 0.5, 0.25, 0.1)]
        assert all(b < a for a, b in zip(dts, dts[1:]))

    def test_bit_exact_reproducibility(self):
        im = sphere_seed((64, 128))
        assert cfl_dt(im, 0.2) == cfl_dt(im.copy(), 0.2)

    @staticmethod
    def rolled_spacing_sq(im):
        """Reference spacings: each node's forward neighbour gathered with
        np.roll, fixed up across the south pole and the wrap seam."""
        grid, pos = im.grid, im.positions
        out = []
        for axis in range(grid.ndim):
            nbr = np.roll(pos, -1, axis=axis)
            last = (slice(None),) * axis + (-1,)
            if grid.topology == "LatLongSphere" and axis == 0:
                nbr[-1] = np.roll(pos[-1], -(grid.res[1] // 2), axis=0)
            elif im.wrap_offsets and axis in im.wrap_offsets:
                nbr[last] = nbr[last] + im.wrap_offsets[axis]
            d = nbr - pos
            ds2 = np.einsum("...x,...x->...", d, d)
            if grid.topology == "LatLongSphere" and axis == 1:
                ds2 = ds2 * ((grid.res[1] / (2.0 * _zonal_cutoffs(grid))) ** 2)[:, None]
            out.append(ds2)
        return out

    @pytest.mark.parametrize("case", ["perturbed-sphere", "cylinder", "circle"])
    def test_pad_spacing_matches_rolled_reference(self, case):
        if case == "perturbed-sphere":
            im = sphere_seed((16, 32), k=2, amp=0.05, mode=3)
        elif case == "cylinder":
            grid = ParamGrid("Torus2", (16, 16))
            spec = SolutionSpec(kind="Cylinder", n=2, k=1, m=1, flat_length=3.5)
            im = seed_immersion(spec, grid, 0.25)
            assert im.wrap_offsets
        else:
            im = circle_seed(res=64)
        got = _effective_spacing_sq(im, scalar_fields(im))
        ref = self.rolled_spacing_sq(im)
        assert len(got) == len(ref) == im.n
        for a, b in zip(got, ref):
            assert np.array_equal(a, b)


class TestPolarFilter:
    def test_low_modes_pass_untouched(self):
        grid = ParamGrid("LatLongSphere", (32, 64))
        im = sphere_seed((32, 64))
        vel = -2.0 * im.positions  # zonal wavenumbers 0 and 1 only
        out = _polar_filter(grid, vel)
        assert np.abs(out - vel).max() <= 1e-13

    def test_zonal_constants_are_made_once_per_grid(self):
        grid = ParamGrid("LatLongSphere", (16, 32))
        assert grid.cache == {}
        keep, widen = _zonal(grid)
        assert _zonal(grid)[0] is keep and _zonal(grid)[1] is widen
        assert keep.shape == (16, 17) and widen.shape == (16, 1)
        # the cache takes no part in equality or hashing
        fresh = ParamGrid("LatLongSphere", (16, 32))
        assert grid == fresh and hash(grid) == hash(fresh) and fresh.cache == {}

    def test_cutoffs_follow_latitude(self):
        grid = ParamGrid("LatLongSphere", (64, 128))
        cut = _zonal_cutoffs(grid)
        assert cut[0] == 2 and cut[-1] == 2
        assert cut.max() == 64
        assert cut[32] > cut[5] > cut[0] - 1

    def test_high_modes_removed(self):
        grid = ParamGrid("LatLongSphere", (32, 64))
        theta = grid.theta_values()
        phi = np.arange(64) * grid.spacing[1]
        field = np.cos(20 * phi)[None, :, None] * np.ones((32, 1, 1))
        out = _polar_filter(grid, field)
        assert np.abs(out[0]).max() <= 1e-12       # pole row keeps k <= 2
        row = int(np.argmin(np.abs(theta - math.pi / 2)))
        assert np.abs(out[row] - field[row]).max() <= 1e-12  # equator keeps k = 20


class TestRun:
    def test_sphere_area_law(self):
        traj = run(sphere_seed((32, 64)), FlowConfig(t_end=0.1, snapshot_every=20))
        d = traj.diagnostics
        assert traj.stop_reason == "t_end"
        for rec in d:
            assert rec.area / d[0].area == pytest.approx(1.0 - 4.0 * rec.t, rel=1e-2)
        areas = [r.area for r in d]
        assert all(b < a for a, b in zip(areas, areas[1:]))

    def test_t_end_before_any_step(self):
        traj = run(sphere_seed(), FlowConfig(t_end=0.0))
        assert len(traj.snapshots) == 1
        assert len(traj.diagnostics) == 1

    def test_max_steps_stop(self):
        traj = run(sphere_seed(), FlowConfig(t_end=0.1, max_steps=3))
        assert traj.stop_reason == "max_steps"

    def test_blowup_stop(self):
        traj = run(sphere_seed((32, 64)), FlowConfig(t_end=0.24, stop_on_blowup=50.0))
        assert traj.stop_reason == "blowup"

    def test_degenerate_seed_raises(self):
        from mcflow import DegenerateGeometryError, DiscreteImmersion
        grid = ParamGrid("Torus2", (16, 16))
        pos = np.zeros((16, 16, 3))
        u = np.arange(16) * grid.spacing[0]
        pos[..., 0] = np.cos(u)[:, None]
        pos[..., 1] = np.sin(u)[:, None]    # collapsed along axis 1
        bad = DiscreteImmersion(grid=grid, n=2, k=1, positions=pos, t=0.0)
        with pytest.raises(DegenerateGeometryError):
            run(bad, FlowConfig(t_end=0.1))

    def test_mid_run_degeneracy_keeps_last_good_snapshot(self, monkeypatch):
        import mcflow.flow as flow_mod
        real = flow_mod.scalar_fields
        calls = {"n": 0}

        def flaky(im, *args, **kwargs):
            # the run extracts the seed, then each stepped state once
            calls["n"] += 1
            if calls["n"] == 31:   # the state after step 30 fails to extract
                raise flow_mod.DegenerateGeometryError("synthetic collapse")
            return real(im, *args, **kwargs)

        monkeypatch.setattr(flow_mod, "scalar_fields", flaky)
        traj = run(sphere_seed((16, 32)), FlowConfig(t_end=0.2, snapshot_every=5))
        assert traj.stop_reason == "degenerate"
        # records at steps 0, 5, ..., 25; step 30 never became a good state
        assert len(traj.snapshots) == len(traj.diagnostics) == 6
        # every recorded slice has usable diagnostics
        assert all(np.isfinite(r.area) for r in traj.diagnostics)

    def test_non_finite_stage_keeps_last_good_snapshot(self, monkeypatch):
        import mcflow.flow as flow_mod
        real = flow_mod.mean_curvature_vector
        calls = {"n": 0}

        def blowing(im):
            # three velocity calls per RK4 step: NaN for step 8's third stage,
            # so its fourth stage state is not finite
            calls["n"] += 1
            out = real(im)
            return np.full_like(out, np.nan) if calls["n"] == 3 * 7 + 2 else out

        monkeypatch.setattr(flow_mod, "mean_curvature_vector", blowing)
        traj = run(sphere_seed((16, 32)), FlowConfig(t_end=0.2, snapshot_every=5))
        assert traj.stop_reason == "degenerate"
        assert [len(traj.snapshots), len(traj.diagnostics)] == [2, 2]   # steps 0 and 5

    def test_step_that_leaves_t_unchanged_is_degenerate(self):
        config = FlowConfig(t_end=-0.9, cfl=1e-300, max_steps=50)
        traj = run(sphere_seed((16, 32), t=-1.0), config)
        assert traj.stop_reason == "degenerate"
        assert len(traj.snapshots) == 1

    @pytest.mark.parametrize("cap", [math.nan, -1.0, 0.0])
    def test_blowup_cap_must_be_positive(self, cap):
        with pytest.raises(ValueError, match="blow-up cap"):
            FlowConfig(t_end=1.0, stop_on_blowup=cap)
        assert FlowConfig(t_end=1.0, stop_on_blowup=math.inf).stop_on_blowup == math.inf

    def test_singular_time_needs_a_fit(self):
        from mcflow.flow import _estimate_singular_time
        h2 = np.array([1.0, 1.5, 2.0])
        with np.errstate(all="ignore"):     # squares of times 1e-302 apart underflow
            assert _estimate_singular_time(np.array([0.0, 7e-302, 8e-302]), h2) is None
        assert _estimate_singular_time(np.array([0.0, 0.1, 0.2]), h2 * np.nan) is None
        assert _estimate_singular_time(np.array([0.0, 0.1, 0.2]), h2) is not None

    def test_forward_singular_time_estimate(self):
        traj = run(sphere_seed((32, 64)), FlowConfig(t_end=0.15, snapshot_every=20))
        assert traj.T_singular == pytest.approx(0.25, abs=2e-3)
        for rec in traj.diagnostics:
            assert rec.tIq == pytest.approx(1.0, abs=2e-2)

    def test_ancient_mode_tiq(self):
        seed = sphere_seed((32, 64), t=-0.25)  # law radius sqrt(1) at t=-1/4
        traj = run(seed, FlowConfig(t_end=-0.1, snapshot_every=10), mode="Ancient")
        for rec in traj.diagnostics:
            assert rec.tIq == pytest.approx(1.0, abs=1e-2)


class TestDiagnosticsRecord:
    def test_gauss_bonnet_column_for_surfaces(self):
        rec = diagnostics(sphere_seed((32, 64)))
        assert rec.gaussBonnet == pytest.approx(4 * math.pi, rel=5e-3)

    def test_circle_has_no_gauss_bonnet(self):
        rec = diagnostics(circle_seed())
        assert rec.gaussBonnet is None

    def test_min_q_records_distance_to_violation(self):
        rec = diagnostics(sphere_seed())
        # minQ = min over nodes of c|H|^2 - |h|^2 with c = 2/3: sphere value 2/3
        assert rec.minQ == pytest.approx(2.0 / 3.0, abs=1e-3)

    def test_csv_round_trip(self, tmp_path):
        recs = [diagnostics(sphere_seed((32, 64))), diagnostics(circle_seed())]
        path = tmp_path / "diag.csv"
        write_diagnostics_csv(recs, path)
        header = path.read_text().splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)
        back = read_diagnostics_csv(path)
        assert back[0].area == recs[0].area
        assert back[0].gaussBonnet == recs[0].gaussBonnet
        assert back[1].gaussBonnet is None
        line2 = path.read_text().splitlines()[2]
        assert line2.split(",")[8] == ""   # empty gaussBonnet for n != 2


class TestFsigma:
    def test_exact_round_sphere_vanishes(self):
        phi, fmax = fsigma_integral(sphere_seed((32, 64)), 0.1, 10.0)
        assert phi <= 1e-100
        assert fmax <= 1e-10

    def test_scaling_degree(self):
        im = sphere_seed((32, 64), amp=0.05)
        lam, sigma = 2.0, 0.1
        _, fmax1 = fsigma_integral(im, sigma, 10.0)
        scaled = im.with_positions(lam * im.positions, im.t)
        _, fmax2 = fsigma_integral(scaled, sigma, 10.0)
        assert fmax2 == pytest.approx(lam ** (-2 * sigma) * fmax1, rel=1e-6)

    def test_minimal_point_error(self):
        im = sphere_seed((16, 32))
        gf = geometry_fields(im)
        gf.normH2[3, 5] = 0.0
        with pytest.raises(MinimalPointError):
            fsigma_integral(im, 0.1, 10.0, gf)

    def test_observational_monotonicity_short_run(self):
        seed = sphere_seed((32, 64), amp=0.05)
        traj = run(seed, FlowConfig(t_end=0.06, snapshot_every=25))
        phis = [r.phi for r in traj.diagnostics]
        assert all(b <= a + 1e-8 for a, b in zip(phis, phis[1:]))


class TestClassify:
    def test_sphere_law_series(self):
        ts = np.linspace(-40.0, -1.0, 200)
        h2 = np.array([sphere_law(3, t).normH2 for t in ts])
        res = classify_type(synthetic_trajectory(ts, h2))
        assert res.kind == "TypeI"
        assert res.C ** 2 == pytest.approx(1.5, rel=1e-12)

    @pytest.mark.parametrize("n,m", [(2, 1), (5, 1), (5, 4)])
    def test_cylinder_law_series(self, n, m):
        ts = np.linspace(-40.0, -1.0, 120)
        h2 = np.array([cylinder_law(n, m, t).normH2 for t in ts])
        res = classify_type(synthetic_trajectory(ts, h2))
        assert res.kind == "TypeI"
        assert res.C ** 2 == pytest.approx((n - m) / 2.0, rel=1e-12)

    def test_veronese_law_series(self):
        ts = np.linspace(-40.0, -1.0, 120)
        h2 = np.array([veronese_law(t).normH2 for t in ts])
        res = classify_type(synthetic_trajectory(ts, h2))
        assert res.kind == "TypeI" and res.C ** 2 == pytest.approx(1.0)

    def test_log_growth_is_type_two(self):
        ts = np.linspace(-1000.0, -2.0, 300)
        res = classify_type(synthetic_trajectory(ts, np.log(-ts) / (-ts)))
        assert res.kind == "TypeII"
        assert res.trend > 1.05

    def test_needs_ten_records(self):
        ts = np.linspace(-5.0, -1.0, 5)
        with pytest.raises(ValueError):
            classify_type(synthetic_trajectory(ts, 1.0 / (-ts)))


def law_trajectory(res=(24, 48), k=2, t0=-2.4, t1=-0.4, count=500):
    grid = ParamGrid("LatLongSphere", res)
    spec = SolutionSpec(kind="Sphere", n=2, k=k)
    times = np.linspace(t0, t1, count)
    snaps = [seed_immersion(spec, grid, t) for t in times]
    return Trajectory(snapshots=snaps, diagnostics=[], mode="Ancient")


class TestRescaling:
    def test_type2_normalisation_and_ratio_invariance(self):
        traj = law_trajectory(count=120)
        res = blowup_type2(traj)
        tau0 = min(res.trajectory.snapshots, key=lambda s: abs(s.t))
        assert abs(tau0.t) <= 1e-12
        gf = geometry_fields(tau0)
        assert math.sqrt(gf.normH2.max()) == pytest.approx(1.0, abs=1e-10)
        mid = len(traj.snapshots) // 2
        a = geometry_fields(traj.snapshots[mid])
        b = geometry_fields(res.trajectory.snapshots[mid])
        assert np.abs(a.normh2 / a.normH2 - b.normh2 / b.normH2).max() <= 1e-12

    def test_type2_time_relabelling(self):
        traj = law_trajectory(count=60)
        res = blowup_type2(traj)
        dts = np.diff(traj.times)
        dtaus = np.diff(res.trajectory.times)
        assert np.abs(dtaus - dts * res.L).max() <= 1e-12 * res.L

    def test_type2_window_filters_and_empty_raises(self):
        traj = law_trajectory(count=60)
        res = blowup_type2(traj, window=(-2.0, -1.0))
        assert res.base_time <= -1.0
        with pytest.raises(ValueError):
            blowup_type2(traj, window=(5.0, 6.0))

    def test_type1_sphere_constant_radius(self):
        traj = law_trajectory(count=900)
        for tj in (-1.1, -0.8, -0.55):
            res = rescale_type1(traj, tj, n_tau=9)
            for snap in res.trajectory.snapshots:
                r = np.linalg.norm(snap.positions[..., :3], axis=-1)
                assert np.abs(r - math.sqrt(-4.0 * snap.t)).max() <= 1e-6

    def test_type1_identity_slice(self):
        # count chosen so the stored time grid contains t = -1 exactly
        traj = law_trajectory(count=501)
        res = rescale_type1(traj, -1.0, n_tau=3)
        final = res.trajectory.snapshots[-1]   # tau = -1 slice of t_j = -1
        src = min(traj.snapshots, key=lambda s: abs(s.t + 1.0))
        assert abs(src.t + 1.0) <= 1e-12
        assert np.abs(final.positions - src.positions).max() <= 1e-12

    def test_type1_ratio_invariance(self):
        traj = law_trajectory(count=400)
        res = rescale_type1(traj, -0.9, n_tau=5)
        a = geometry_fields(traj.snapshots[200])
        b = geometry_fields(res.trajectory.snapshots[0])
        ra = a.normh2 / a.normH2
        rb = b.normh2 / b.normH2
        assert np.abs(ra - rb).max() <= 1e-12

    def test_type1_requires_coverage(self):
        traj = law_trajectory(t0=-1.0, t1=-0.4, count=60)
        with pytest.raises(ValueError):
            rescale_type1(traj, -0.9)


class TestAreaDecayFit:
    def test_ancient_sphere_fit(self):
        grid = ParamGrid("LatLongSphere", (24, 48))
        spec = SolutionSpec(kind="Sphere", n=2, k=1)
        times = np.linspace(-3.0, -0.5, 40)
        snaps = [seed_immersion(spec, grid, t) for t in times]
        recs = [diagnostics(s, mode="Ancient") for s in snaps]
        traj = Trajectory(snapshots=snaps, diagnostics=recs, mode="Ancient")
        c, r = fit_area_decay(traj)
        assert r == pytest.approx(1.0, abs=0.02)      # area ~ 8 pi n |t|
        assert c == pytest.approx(16 * math.pi, rel=0.02)

    def test_window_knob(self):
        ts = np.linspace(-10.0, -1.0, 50)
        h2 = 1.0 / (-ts)
        traj = synthetic_trajectory(ts, h2)
        recs = [r for r in traj.diagnostics]
        # synthetic records carry nan areas; build a usable copy
        from dataclasses import replace
        traj.diagnostics[:] = [replace(r, area=(-r.t) ** 1.5) for r in recs]
        c, r = fit_area_decay(traj, window=(-8.0, -2.0))
        assert r == pytest.approx(1.5, abs=1e-6)
