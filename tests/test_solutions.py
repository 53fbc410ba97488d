"""Closed-form solution laws against independent oracles.

The cap radius law is checked against a plain RK4 integration of its defining
ODE; the quadratic-immersion constants were frozen from a finite-difference
differentiation of the chart (independent of the grid pipeline), which is
re-run here at one point.
"""

import math

import numpy as np
import pytest

from mcflow import (
    CapExtinctError,
    ParamGrid,
    SolutionSpec,
    cap_extinction_time,
    cap_radius,
    cylinder_law,
    seed_immersion,
    sphere_law,
    veronese_chart,
    veronese_law,
)
from mcflow.solutions import veronese_map


class TestSphereLaw:
    def test_reference_points(self):
        s = sphere_law(2, -1.0)
        assert s.R == 2.0 and s.normH == 1.0 and s.ratio == 0.5
        s = sphere_law(3, -1.0 / 6.0)
        assert s.R == pytest.approx(1.0) and s.normH == pytest.approx(3.0)

    def test_radius_monotone_to_zero(self):
        ts = -np.logspace(0, -8, 30)
        rs = [sphere_law(2, t).R for t in ts]
        assert all(b < a for a, b in zip(rs, rs[1:]))
        assert rs[-1] < 1e-3

    def test_type_one_quantity_constant(self):
        for n in (2, 3, 5):
            for t in (-3.0, -0.7, -1e-4):
                s = sphere_law(n, t)
                assert (-t) * s.normH2 == pytest.approx(n / 2.0, rel=1e-12)

    def test_radius_squared_decay_rate(self):
        # d(R^2)/dt = -2n, checked by central differencing the closed form
        for n in (2, 4):
            d = (sphere_law(n, -1.0 + 1e-6).R ** 2
                 - sphere_law(n, -1.0 - 1e-6).R ** 2) / 2e-6
            assert d == pytest.approx(-2.0 * n, rel=1e-8)

    def test_rejects_nonnegative_time(self):
        with pytest.raises(ValueError):
            sphere_law(2, 0.0)


class TestCylinderLaw:
    def test_reference_point(self):
        s = cylinder_law(2, 1, -0.5)
        assert s.R == 1.0 and s.normH == 1.0 and s.ratio == 1.0

    def test_borderline_ratio_matches_cn5(self):
        from mcflow import cn
        assert cylinder_law(5, 1, -2.0).ratio == float(cn(5))

    def test_circle_factor_ratio_is_one(self):
        for t in (-5.0, -0.01):
            assert cylinder_law(4, 3, t).ratio == 1.0

    def test_radius_squared_decay_rate(self):
        for n, m in ((3, 1), (5, 2)):
            d = (cylinder_law(n, m, -1.0 + 1e-6).R ** 2
                 - cylinder_law(n, m, -1.0 - 1e-6).R ** 2) / 2e-6
            assert d == pytest.approx(-2.0 * (n - m), rel=1e-8)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            cylinder_law(2, 2, -1.0)
        with pytest.raises(ValueError):
            cylinder_law(2, 1, 0.1)


class TestVeroneseLaw:
    def test_ratio_is_five_sixths_at_all_times(self):
        for t in (-10.0, -1.0, -1e-6):
            assert veronese_law(t).ratio == 5.0 / 6.0

    def test_radius(self):
        assert veronese_law(-1.0).R == 2.0

    def test_type_one_quantity(self):
        for t in (-4.0, -0.25):
            s = veronese_law(t)
            assert (-t) * s.normH2 == pytest.approx(1.0, rel=1e-12)

    def test_image_lies_on_sphere(self):
        th = np.linspace(0.05, math.pi - 0.05, 40)
        ph = np.linspace(0.0, 2 * math.pi, 40)
        T, P = np.meshgrid(th, ph)
        pts = veronese_chart(T, P, r=1.0)
        assert np.abs(np.linalg.norm(pts, axis=-1) - 1.0).max() <= 1e-12

    def test_antipodal_symmetry(self):
        p = np.array([0.7, -1.1, 1.2])
        p *= math.sqrt(3.0) / np.linalg.norm(p)
        assert np.allclose(veronese_map(p), veronese_map(-p), atol=0)

    def test_chart_oracle_finite_differences(self):
        # independent differentiation of the chart at one point
        th0, ph0 = 0.83, 0.41
        d = 1e-5
        c1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
        c2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0
        grid = {(i, j): veronese_chart(th0 + i * d, ph0 + j * d)
                for i in range(-2, 3) for j in range(-2, 3)}
        fu = sum(c1[s + 2] * grid[(s, 0)] for s in range(-2, 3)) / d
        fv = sum(c1[s + 2] * grid[(0, s)] for s in range(-2, 3)) / d
        fuu = sum(c2[s + 2] * grid[(s, 0)] for s in range(-2, 3)) / d ** 2
        fvv = sum(c2[s + 2] * grid[(0, s)] for s in range(-2, 3)) / d ** 2
        fuv = sum(c1[a + 2] * c1[b + 2] * grid[(a, b)]
                  for a in range(-2, 3) for b in range(-2, 3)) / d ** 2
        jac = np.stack([fu, fv], axis=1)
        g = jac.T @ jac
        gi = np.linalg.inv(g)
        proj = np.eye(5) - jac @ gi @ jac.T
        hc = np.array([[proj @ fuu, proj @ fuv], [proj @ fuv, proj @ fvv]])
        w, v = np.linalg.eigh(g)
        isq = v @ np.diag(w ** -0.5) @ v.T
        hvec = np.einsum("ia,abx,bj->ijx", isq, hc, isq)
        H = hvec[0, 0] + hvec[1, 1]
        H2 = H @ H
        h2 = np.einsum("ijx,ijx->", hvec, hvec)
        assert H2 == pytest.approx(4.0, abs=1e-4)
        assert h2 == pytest.approx(10.0 / 3.0, abs=1e-4)
        assert h2 / H2 == pytest.approx(5.0 / 6.0, abs=1e-5)
        # adapted split: the mean curvature direction is umbilic
        h1 = np.einsum("ijx,x->ij", hvec, H / math.sqrt(H2))
        h01sq = np.einsum("ij,ij->", h1, h1) - H2 / 2.0
        assert h01sq == pytest.approx(0.0, abs=1e-8)
        assert h2 - H2 / 2.0 - h01sq == pytest.approx(4.0 / 3.0, abs=1e-4)
        # homothetic: H = -(2 / r^2) F at r = 1
        assert np.abs(H + 2.0 * veronese_chart(th0, ph0)).max() <= 1e-4


class TestCapLaw:
    def test_equator_is_static(self):
        R = 2.0
        rho0 = math.pi * R / 2.0
        for t in (-25.0, -1.0, 7.0):
            assert cap_radius(3, R, rho0, 0.0, t) == pytest.approx(rho0, rel=1e-14)

    def test_limit_at_minus_infinity_is_equator(self):
        rho = cap_radius(2, 1.0, 0.3, 0.0, -50.0)
        assert rho == pytest.approx(math.pi / 2.0, abs=1e-12)

    def test_extinction_raises_with_time(self):
        n, R, rho0 = 2, 1.0, 1.0
        t_ext = cap_extinction_time(n, R, rho0, 0.0)
        with pytest.raises(CapExtinctError) as err:
            cap_radius(n, R, rho0, 0.0, t_ext + 0.1)
        assert err.value.extinction_time == pytest.approx(t_ext)

    def test_closed_form_vs_rk4_oracle(self):
        from conftest import cap_oracle_worst_error
        n, R, rho0, t0 = 2, 1.5, 1.2, 0.0
        t_ext = cap_extinction_time(n, R, rho0, t0)
        t_hi = t0 + 0.95 * (t_ext - t0)
        worst = cap_oracle_worst_error(n, R, rho0, t0, t0 - 10.0, t_hi, 200_000)
        assert worst <= 1e-6, f"cap ODE oracle disagrees: rel err {worst:.2e}"


class TestSeedImmersion:
    def test_unperturbed_sphere_matches_chart_exactly(self):
        grid = ParamGrid("LatLongSphere", (16, 32))
        im = seed_immersion(SolutionSpec(kind="Sphere", n=2, k=2, radius=1.0), grid, 0.0)
        r = np.linalg.norm(im.positions, axis=-1)
        assert np.abs(r - 1.0).max() <= 1e-15
        assert np.all(im.positions[..., 3] == 0.0)

    def test_ancient_time_uses_law_radius(self):
        grid = ParamGrid("LatLongSphere", (16, 32))
        im = seed_immersion(SolutionSpec(kind="Sphere", n=2, k=1), grid, -1.0)
        assert np.linalg.norm(im.positions, axis=-1).max() == pytest.approx(2.0)

    def test_incompatible_topology_rejected(self):
        grid = ParamGrid("Torus2", (16, 16))
        with pytest.raises(ValueError):
            seed_immersion(SolutionSpec(kind="Sphere", n=2, k=1), grid, 0.0)
        with pytest.raises(ValueError):
            seed_immersion(SolutionSpec(kind="Veronese", n=2, k=3), grid, 0.0)
        with pytest.raises(ValueError):
            seed_immersion(SolutionSpec(kind="GeodesicCapSphere", n=2, k=1), grid, 0.0)

    def test_perturbation_smooth_across_poles(self):
        # the seed must satisfy F(-theta, phi) = F(theta, phi + pi), which the
        # polar ghost rows rely on; sectoral harmonics do
        grid = ParamGrid("LatLongSphere", (16, 32))
        spec = SolutionSpec(kind="Sphere", n=2, k=1, perturb_amp=0.1, perturb_mode=3)
        im = seed_immersion(spec, grid, 0.0)
        from mcflow.immersion import geometry_fields
        gf = geometry_fields(im)  # would produce wild pole values if broken
        assert np.isfinite(gf.normh2).all()
        assert gf.normh2.max() < 10.0

    def test_veronese_spec_forces_dimensions(self):
        with pytest.raises(ValueError):
            SolutionSpec(kind="Veronese", n=2, k=2)

    def test_cylinder_wrap_offset(self):
        grid = ParamGrid("Torus2", (16, 16))
        spec = SolutionSpec(kind="Cylinder", n=2, k=1, m=1, radius=1.0, flat_length=5.0)
        im = seed_immersion(spec, grid, 0.0)
        assert im.wrap_offsets is not None
        assert im.wrap_offsets[1][2] == 5.0

    def test_veronese_discrete_mean_curvature_is_radial(self):
        grid = ParamGrid("LatLongSphere", (96, 192))
        im = seed_immersion(SolutionSpec(kind="Veronese", n=2, k=3), grid, 0.0)
        r = np.linalg.norm(im.positions, axis=-1)
        assert np.abs(r - 1.0).max() <= 1e-12
        from mcflow.immersion import mean_curvature_vector
        H = mean_curvature_vector(im)
        rad = np.einsum("...x,...x->...", H, im.positions)
        tangential = H - rad[..., None] * im.positions
        normH = np.linalg.norm(H, axis=-1)
        assert (np.linalg.norm(tangential, axis=-1) <= 1e-6 * normH).all()
