"""Discrete geometry extraction: reference surfaces, stencil convergence,
frame handling, and the snapshot format."""

import math
from fractions import Fraction

import numpy as np
import pytest

from mcflow import (
    DegenerateGeometryError,
    DiscreteImmersion,
    FlowConfig,
    ParamGrid,
    SolutionSpec,
    integrate,
    load_snapshot,
    normal_frame,
    save_snapshot,
    seed_immersion,
)
from mcflow import immersion
from mcflow._g17 import format_values
from mcflow.curvature import batch_normal_curvature, batch_reaction_terms, batch_scalars
from mcflow.flow import iter_records
from mcflow.immersion import (
    _SNAPSHOT_BLOCK,
    covariant_gradient_fields,
    gauss_curvature_field,
    geometry_fields,
    mean_curvature_vector,
    point_curvature_field,
    scalar_fields,
)
from mcflow.sampling import generator, random_rotations
from conftest import donut_torus, ellipsoid_of_revolution


def unit_sphere(res=(32, 64), k=1, amp=0.0, mode=2):
    grid = ParamGrid("LatLongSphere", res)
    spec = SolutionSpec(kind="Sphere", n=2, k=k, radius=1.0,
                        perturb_amp=amp, perturb_mode=mode)
    return seed_immersion(spec, grid, 0.0)


def circle(res=512, radius=2.0, k=1):
    grid = ParamGrid("Circle", (res,))
    return seed_immersion(SolutionSpec(kind="Sphere", n=1, k=k, radius=radius), grid, 0.0)


class TestJacobianMetric:
    def test_circle_metric_is_radius_squared(self):
        im = circle(radius=2.0)
        g = geometry_fields(im).g[0]
        assert g.shape == (1, 1)
        assert g[0, 0] == pytest.approx(4.0, abs=1e-7)

    def test_unit_sphere_equator_row(self):
        # resolution chosen so the fourth-order stencil error sits below 1e-8
        im = unit_sphere((192, 384))
        row = 96  # closest to the equator
        g = geometry_fields(im).g[row, 0]
        theta = (row + 0.5) * math.pi / 192
        assert g[0, 0] == pytest.approx(1.0, abs=1e-8)
        assert g[1, 1] == pytest.approx(math.sin(theta) ** 2, abs=1e-8)
        assert abs(g[0, 1]) <= 1e-10

    def test_metric_refinement_is_fourth_order(self):
        errs = []
        for res in ((16, 32), (32, 64)):
            im = unit_sphere(res)
            gf = geometry_fields(im)
            theta = im.grid.theta_values()
            exact = np.zeros(res + (2, 2))
            exact[..., 0, 0] = 1.0
            exact[..., 1, 1] = (np.sin(theta) ** 2)[:, None]
            errs.append(np.abs(gf.g - exact).max())
        assert errs[0] / errs[1] >= 12.0, f"metric errors {errs}"

    def test_non_finite_positions_are_bad_input_and_degenerate(self):
        from mcflow.errors import NonFiniteError
        im = circle(res=16)
        pos = im.positions.copy()
        pos[3, 0] = np.nan
        with pytest.raises(NonFiniteError) as info:
            im.with_positions(pos, 0.0)
        assert isinstance(info.value, ValueError)
        assert isinstance(info.value, DegenerateGeometryError)

    def test_degenerate_metric_aborts(self):
        grid = ParamGrid("Torus2", (16, 16))
        pos = np.zeros((16, 16, 3))
        u = np.arange(16) * grid.spacing[0]
        pos[..., 0] = np.cos(u)[:, None]
        pos[..., 1] = np.sin(u)[:, None]  # degenerate: constant along axis 1
        im = DiscreteImmersion(grid=grid, n=2, k=1, positions=pos, t=0.0)
        for extract in (geometry_fields, scalar_fields, mean_curvature_vector):
            with pytest.raises(DegenerateGeometryError, match="condition number"):
                extract(im)


def _seed(topology, res, spec, t=0.0):
    return seed_immersion(spec, ParamGrid(topology, res), t)


KERNEL_CASES = {
    "circle": lambda: _seed("Circle", (64,), SolutionSpec(kind="Sphere", n=1, k=2, radius=2.0)),
    "cylinder": lambda: _seed("Torus2", (16, 16), SolutionSpec(
        kind="Cylinder", n=2, k=1, flat_length=3.5), t=0.25),
    "sphere-k1": lambda: unit_sphere((16, 32), k=1),
    "sphere-k2": lambda: unit_sphere((16, 32), k=2),
    "veronese": lambda: _seed("LatLongSphere", (24, 48), SolutionSpec(kind="Veronese", n=2, k=3)),
    "perturbed-sphere": lambda: unit_sphere((32, 64), k=2, amp=0.05, mode=3),
}


class TestExtractionKernels:
    """The per-step kernel and the velocity kernel against contractions of the
    full tensor: the projector-built hvec, with both indices raised by the
    stacked inverse metric."""

    @staticmethod
    def reference(gf):
        up = np.einsum("...ai,...ijx->...ajx", gf.ginv, gf.hvec)
        Hvec = np.einsum("...aax->...x", up)
        return {"Hvec": Hvec, "normH2": np.einsum("...x,...x->...", Hvec, Hvec),
                "normh2": np.einsum("...ajx,...jax->...", up, up),
                "detg": np.linalg.det(gf.g)}

    @pytest.mark.parametrize("name", list(KERNEL_CASES))
    def test_parity_with_geometry_fields(self, name):
        im = KERNEL_CASES[name]()
        assert (name == "cylinder") == bool(im.wrap_offsets)
        gf, sf = geometry_fields(im), scalar_fields(im)
        ref = self.reference(gf)
        for key in ("Hvec", "normH2", "normh2", "detg"):
            scale = np.abs(ref[key]).max()
            assert scale > 0, key
            assert np.abs(getattr(sf, key) - ref[key]).max() <= 1e-12 * scale, f"{name}: {key}"
            assert np.array_equal(getattr(gf, key), getattr(sf, key))
        velocity = mean_curvature_vector(im)
        assert np.abs(velocity - ref["Hvec"]).max() <= 1e-12 * np.abs(ref["Hvec"]).max()
        if name == "cylinder":
            # homogeneous surface: both seams' ghost layers must carry the
            # offset (the flat direction's errors show in det g, not in h)
            for field in (sf.normH2, sf.normh2, sf.detg):
                assert np.ptp(field) <= 1e-12 * field.max()


def close(got, want, rtol=1e-12):
    """Entrywise within rtol of the largest reference entry."""
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and np.abs(got - want).max() <= rtol * np.abs(want).max()


class TestCoreAnyN:
    """The extraction core's index loops at n = 3 and n = 4, where no
    topology seeds an immersion yet, on hand-built per-node fields stored
    components first, (n+k, *res)."""

    RES = (5, 6)

    def columns(self, n, k=2, seed=0):
        """dF/du_a near the first n coordinate vectors, so every metric is
        well conditioned."""
        rng = np.random.default_rng(seed + n)
        eye = np.eye(n + k)
        return [eye[a].reshape((-1,) + (1,) * len(self.RES))
                + 0.4 * rng.standard_normal((n + k,) + self.RES) for a in range(n)]

    @staticmethod
    def dense(cols):
        jac = np.stack([np.moveaxis(c, 0, -1) for c in cols], axis=-1)     # (*res, n+k, n)
        return jac, np.swapaxes(jac, -1, -2) @ jac

    @pytest.mark.parametrize("n", [3, 4])
    def test_metric_matches_dense_linear_algebra(self, n):
        cols = self.columns(n)
        g, ginv, detg, cond = immersion._metric(cols)
        _, dense = self.dense(cols)
        assert close(immersion._square(g), dense)
        assert close(detg, np.linalg.det(dense))
        assert close(immersion._square(ginv), np.linalg.inv(dense))
        lam = np.linalg.eigvalsh(dense)
        kappa = lam[..., -1] / lam[..., 0]
        assert np.all(cond >= kappa * (1 - 1e-12))
        assert np.all(cond <= n * n * kappa * (1 + 1e-12))

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("scale", [1e-100, None, 1e100],
                             ids=["det-underflows", "det-subnormal", "det-overflows"])
    def test_metric_whose_det_is_not_positive_and_finite_reads_infinite(self, n, scale):
        # g = scale^2 I is a normal number; det g = scale^(2n) is not: it
        # underflows to 0 or below the smallest normal double (about 1e-310,
        # with a few significant bits), or g_00 g_11 overflows while g_01 = 0
        # (at n = 4 the overflowing minors meet zeros, and det g is NaN)
        subnormal = scale is None
        if subnormal:
            scale = 1e-310 ** (1 / (2 * n))
        eye = np.eye(n + 2)
        cols = [scale * eye[a].reshape(-1, 1, 1) * np.ones((1,) + self.RES) for a in range(n)]
        with np.errstate(over="ignore", invalid="ignore"):
            g, _, detg, cond = immersion._metric(cols)
        assert np.all(np.isfinite(g[0][0])) and np.all(g[0][0] > 0) and np.all(g[0][1] == 0)
        assert not np.any((detg >= np.finfo(float).tiny) & (detg < np.inf))
        assert np.all(detg > 0) if subnormal else not np.any((detg > 0) & (detg < np.inf))
        assert np.all(cond == np.inf)

    @pytest.mark.parametrize("n", [3, 4])
    def test_scalar_fields_match_dense_contractions(self, n):
        cols = self.columns(n, seed=10)
        g, ginv, detg, _ = immersion._metric(cols)
        rng = np.random.default_rng(20 + n)
        d2 = [[None] * n for _ in range(n)]
        for a in range(n):
            for b in range(a, n):
                d2[a][b] = d2[b][a] = rng.standard_normal(cols[0].shape)
        before = [[v.copy() for v in row] for row in d2]
        sf = immersion._scalar_fields(immersion._Extraction((), cols, g, ginv, detg, d2))

        jac, dense = self.dense(cols)
        gi = np.linalg.inv(dense)
        proj = np.eye(n + 2) - jac @ gi @ np.swapaxes(jac, -1, -2)
        d = np.stack([np.stack([np.moveaxis(v, 0, -1) for v in row], axis=-2) for row in d2],
                     axis=-3)                                           # (*res, n, n, n+k)
        pd = np.einsum("...xy,...ijy->...ijx", proj, d)
        H = np.einsum("...ij,...ijx->...x", gi, pd)
        normh2 = np.einsum("...ik,...jl,...ijx,...klx->...", gi, gi, pd, pd)
        assert close(sf.Hvec, H)
        assert close(sf.normH2, np.einsum("...x,...x->...", H, H))
        assert close(sf.normh2, normh2)
        assert sf.detg is detg
        # the second derivatives are read, not overwritten
        assert all(np.array_equal(v, w) for r, q in zip(d2, before) for v, w in zip(r, q))


class TestNormalFrame:
    def test_circle_normal_orthogonal_to_tangent(self):
        im = circle()
        gf = geometry_fields(im)
        nor = normal_frame(gf.jac[(7,)])
        assert nor.shape == (2, 1)
        assert abs(nor[:, 0] @ gf.jac[(7,)][:, 0]) <= 1e-12

    def test_sphere_in_r4_has_two_orthonormal_normals(self):
        im = unit_sphere((16, 32), k=2)
        gf = geometry_fields(im)
        nor = normal_frame(gf.jac[(3, 5)])
        assert nor.shape == (4, 2)
        gram = nor.T @ nor
        assert np.abs(gram - np.eye(2)).max() <= 1e-12
        resid = nor.T @ gf.jac[(3, 5)]
        assert np.abs(resid).max() <= 1e-10

    def test_random_jacobian_gram_identity(self, rng):
        for _ in range(20):
            jac = rng.standard_normal((6, 2))
            nor = normal_frame(jac)
            assert np.abs(nor.T @ nor - np.eye(4)).max() <= 1e-12
            assert np.abs(nor.T @ jac).max() <= 1e-10

    def test_rank_deficient_rejected(self):
        jac = np.zeros((4, 2))
        jac[:, 0] = [1.0, 0, 0, 0]
        with pytest.raises(DegenerateGeometryError):
            normal_frame(jac)


class TestSecondFundamentalForm:
    def test_unit_sphere_is_umbilic(self):
        im = unit_sphere((64, 128))
        h = point_curvature_field(im)[0][10, 20]
        assert np.abs(np.abs(h[:, :, 0]) - np.eye(2)).max() <= 1e-6
        normH2, normh2, _ = batch_scalars(h[None])
        assert normh2[0] / normH2[0] == pytest.approx(0.5, abs=1e-3)

    def test_circle_mean_curvature(self):
        im = circle(res=512, radius=2.0)
        gf = geometry_fields(im)
        assert np.abs(np.sqrt(gf.normH2) - 0.5).max() <= 1e-8

    def test_h_coord_symmetry(self):
        im = ellipsoid_of_revolution((32, 64))
        gf = geometry_fields(im)
        asym = np.abs(gf.hvec - np.swapaxes(gf.hvec, -3, -2)).max()
        assert asym <= 1e-10 * max(1.0, np.abs(gf.hvec).max())

    def test_veronese_point(self):
        grid = ParamGrid("LatLongSphere", (96, 192))
        im = seed_immersion(SolutionSpec(kind="Veronese", n=2, k=3), grid, 0.0)
        gf = geometry_fields(im)
        ratio = gf.normh2 / gf.normH2
        assert np.abs(ratio - 5.0 / 6.0).max() <= 1e-3
        h = point_curvature_field(im, gf)[0][20, 31]
        assert rperp_norm_sq(h)[0] == pytest.approx(16.0 / 9.0, abs=1e-3)


def rperp_norm_sq(h):
    """|R_perp|^2 at every node of a (*res, n, n, k) field."""
    rp = batch_normal_curvature(h.reshape((-1,) + h.shape[-3:]))
    return np.einsum("bijac,bijac->b", rp, rp)


class TestPointCurvatureField:
    """The frame-adapted h[i, j, a] at every node, in the frames of
    normal_frame taken node by node."""

    def test_scalars_match_geometry_fields(self):
        im = ellipsoid_of_revolution((32, 64), k=2)
        gf = geometry_fields(im)
        h, _ = point_curvature_field(im, gf)
        normH2, normh2, _ = batch_scalars(h.reshape(-1, 2, 2, 2))
        for got, want in ((normH2, gf.normH2), (normh2, gf.normh2)):
            assert np.abs(got - want.ravel()).max() <= 1e-12 * np.abs(want).max()

    def test_frames_are_orthonormal_normals(self):
        im = ellipsoid_of_revolution((32, 64), k=2)
        gf = geometry_fields(im)
        h, frames = point_curvature_field(im, gf)
        assert h.shape == (32, 64, 2, 2, 2) and frames.shape == (32, 64, 4, 2)
        gram = np.swapaxes(frames, -1, -2) @ frames
        assert np.abs(gram - np.eye(2)).max() <= 1e-12
        assert np.abs(np.swapaxes(frames, -1, -2) @ gf.jac).max() <= 1e-10

    def test_invariants_do_not_depend_on_the_frames(self):
        # Veronese: |R_perp|^2 is far from zero, so a relative bound means something
        im = seed_immersion(SolutionSpec(kind="Veronese", n=2, k=3),
                            ParamGrid("LatLongSphere", (24, 48)), 0.0)
        h, _ = point_curvature_field(im)
        rot = random_rotations(generator(11, 3), 24 * 48, 3).reshape(24, 48, 3, 3)
        turned = np.einsum("...ijb,...ba->...ija", h, rot)
        flat = lambda x: x.reshape(-1, 2, 2, 3)
        pairs = [*zip(batch_reaction_terms(flat(h)), batch_reaction_terms(flat(turned))),
                 (rperp_norm_sq(h), rperp_norm_sq(turned))]
        for want, got in pairs:
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_veronese_normal_curvature_everywhere(self):
        im = seed_immersion(SolutionSpec(kind="Veronese", n=2, k=3),
                            ParamGrid("LatLongSphere", (96, 192)), 0.0)
        h, _ = point_curvature_field(im)
        assert np.abs(rperp_norm_sq(h) - 16.0 / 9.0).max() <= 1e-3


class TestConvergenceOrder:
    @pytest.mark.parametrize("kind,resolutions", [
        ("Sphere", ((16, 32), (32, 64), (64, 128))),
        ("Veronese", ((24, 48), (48, 96), (96, 192))),
    ])
    def test_surface_quantities_second_order(self, kind, resolutions):
        errH, errh2, errR = [], [], []
        for res in resolutions:
            grid = ParamGrid("LatLongSphere", res)
            spec = SolutionSpec(kind=kind, n=2, k=3 if kind == "Veronese" else 1)
            im = seed_immersion(spec, grid, 0.0)
            gf = geometry_fields(im)
            if kind == "Sphere":
                H2, h2, ratio = 4.0, 2.0, 0.5
            else:
                H2, h2, ratio = 4.0, 10.0 / 3.0, 5.0 / 6.0
            errH.append(np.abs(np.sqrt(gf.normH2) - math.sqrt(H2)).max())
            errh2.append(np.abs(gf.normh2 - h2).max())
            errR.append(np.abs(gf.normh2 / gf.normH2 - ratio).max())
        for errs in (errH, errh2, errR):
            if errs[0] < 1e-13:
                # already at the roundoff floor (the discrete round sphere is
                # exactly umbilic by symmetry); nothing to converge
                assert max(errs) < 1e-13
                continue
            assert errs[0] / errs[1] >= 3.5, f"{kind} first refinement: {errs}"
            assert errs[1] / errs[2] >= 3.5, f"{kind} second refinement: {errs}"

    def test_circle_quantities(self):
        errs = []
        for res in (64, 128, 256):
            im = circle(res=res, radius=1.0)
            gf = geometry_fields(im)
            errs.append(np.abs(np.sqrt(gf.normH2) - 1.0).max())
        assert errs[0] / errs[1] >= 3.5 and errs[1] / errs[2] >= 3.5


class TestFrameIndependence:
    def test_ambient_rotation_leaves_scalars(self, rng):
        im = ellipsoid_of_revolution((24, 48), k=2)
        gf = geometry_fields(im)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        rot = im.with_positions(im.positions @ q.T, im.t)
        gf2 = geometry_fields(rot)
        scale = gf.normh2.max()
        assert np.abs(gf.normh2 - gf2.normh2).max() <= 1e-8 * scale
        assert np.abs(gf.normH2 - gf2.normH2).max() <= 1e-8 * scale


class TestCovariantGradients:
    def test_round_sphere_parallel(self):
        im = unit_sphere((64, 128), k=2)
        gh2, gH2 = covariant_gradient_fields(im)
        assert gh2.max() <= 1e-6
        assert gH2.max() <= 1e-6

    def test_ellipsoid_gradient_estimate(self):
        for res in ((32, 64), (64, 128)):
            im = ellipsoid_of_revolution(res)
            gh2, gH2 = covariant_gradient_fields(im)
            margin = gh2 - 0.75 * gH2
            assert margin.min() >= 0.0, f"gradient estimate fails at {res}"

    def test_gradient_convergence_on_ellipsoid(self):
        # grid nodes are half-step offset, so successive resolutions share no
        # nodes; Richardson is run on the integrated functional instead
        vals = []
        for res in ((16, 32), (32, 64), (64, 128), (128, 256)):
            im = ellipsoid_of_revolution(res)
            _, gH2 = covariant_gradient_fields(im)
            vals.append(integrate(im, gH2))
        e1 = abs(vals[0] - vals[3])
        e2 = abs(vals[1] - vals[3])
        e3 = abs(vals[2] - vals[3])
        assert e1 / e2 >= 3.0, f"integral values {vals}"
        assert e2 / e3 >= 3.0, f"integral values {vals}"

    def test_pointwise_accessor(self):
        im = unit_sphere((16, 32))
        gh2, gH2 = covariant_gradient_fields(im)
        assert gh2[3, 7] >= 0.0 and gH2[3, 7] >= 0.0


class TestIntegrate:
    def test_circle_length(self):
        im = circle(res=512, radius=2.0)
        assert integrate(im, np.ones((512,))) == pytest.approx(4 * math.pi, abs=1e-8)

    def test_sphere_area_and_gauss_bonnet(self):
        im = unit_sphere((64, 128))
        area = integrate(im, np.ones((64, 128)))
        assert area == pytest.approx(4 * math.pi, rel=5e-3)
        kappa = gauss_curvature_field(im)
        assert integrate(im, kappa) == pytest.approx(4 * math.pi, rel=5e-3)

    def test_field_shape_checked(self):
        im = unit_sphere((16, 32))
        with pytest.raises(ValueError):
            integrate(im, np.ones((8, 8)))


class TestGaussCurvature:
    def test_unit_sphere(self):
        im = unit_sphere((64, 128))
        assert gauss_curvature_field(im)[12, 40] == pytest.approx(1.0, abs=1e-3)

    def test_veronese(self):
        grid = ParamGrid("LatLongSphere", (96, 192))
        im = seed_immersion(SolutionSpec(kind="Veronese", n=2, k=3), grid, 0.0)
        kap = gauss_curvature_field(im)
        assert np.abs(kap - 1.0 / 3.0).max() <= 1e-3

    def test_flat_torus(self):
        grid = ParamGrid("Torus2", (32, 32))
        im = seed_immersion(SolutionSpec(kind="TorusSeed", n=2, k=2, radius=1.0), grid, 0.0)
        kap = gauss_curvature_field(im)
        assert np.abs(kap).max() <= 1e-3

    def test_scalar_curvature_consistency(self):
        im = ellipsoid_of_revolution((32, 64))
        gf = geometry_fields(im)
        kap = gauss_curvature_field(im, gf)
        sc = gf.normH2 - gf.normh2
        assert np.abs(sc - 2 * kap).max() <= 1e-12

    def test_requires_surface(self):
        im = circle()
        with pytest.raises(ValueError):
            gauss_curvature_field(im)


class TestSnapshots:
    def test_round_trip(self, tmp_path):
        im = unit_sphere((16, 32), k=2, amp=0.03)
        path = tmp_path / "snap.txt"
        save_snapshot(im, path)
        back = load_snapshot(path)
        assert back.grid.topology == "LatLongSphere"
        assert back.grid.res == (16, 32)
        assert back.n == 2 and back.k == 2
        assert back.t == im.t
        assert np.array_equal(back.positions, im.positions)

    def test_header_format(self, tmp_path):
        im = unit_sphere((16, 32))
        path = tmp_path / "snap.txt"
        save_snapshot(im, path)
        header = path.read_text().splitlines()[0]
        assert header == "MCFLOW v1 n=2 k=1 topology=LatLongSphere res=16x32 t=0"

    def test_circle_round_trip(self, tmp_path):
        im = circle(res=64)
        path = tmp_path / "c.txt"
        save_snapshot(im, path)
        back = load_snapshot(path)
        assert back.grid.res == (64,)
        assert np.array_equal(back.positions, im.positions)

    def test_cylinder_wrap_offset_round_trip(self, tmp_path):
        grid = ParamGrid("Torus2", (16, 16))
        spec = SolutionSpec(kind="Cylinder", n=2, k=1, flat_length=3.5)
        im = seed_immersion(spec, grid, 0.25)
        path = tmp_path / "cyl.txt"
        save_snapshot(im, path)
        back = load_snapshot(path)
        assert back.wrap_offsets is not None
        assert np.array_equal(back.wrap_offsets[1], im.wrap_offsets[1])
        assert np.array_equal(back.positions, im.positions)

    # values whose text is easy to get wrong: signed zero, the smallest
    # subnormal, large powers of ten, cos(pi/2), and ones that need all
    # 17 significant digits to round-trip
    TRICKY = (-0.0, 5e-324, 1e22, 1e16, 6.123233995736766e-17, 0.1 + 0.2,
              1.0 / 3.0, -math.pi, 1.0 + 2.0 ** -52, -2.0 ** -1022 * 3.0)

    @classmethod
    def tricky_positions(cls, shape, seed):
        """Normal entries with every TRICKY value placed at each block seam
        (the last row of one block of save_snapshot and the first of the
        next) and in the first and last rows."""
        flat = np.random.default_rng(seed).standard_normal(shape).reshape(-1, shape[-1])
        rows = {0, len(flat) - 1}
        for seam in range(_SNAPSHOT_BLOCK, len(flat), _SNAPSHOT_BLOCK):
            rows |= {seam - 1, seam}
        tricky = np.array(cls.TRICKY)
        for i, row in enumerate(sorted(rows)):
            flat[row] = np.roll(tricky, i)[: shape[-1]]
        return flat.reshape(shape)

    def assert_exact_bytes(self, im, path):
        save_snapshot(im, path)
        text = path.read_text()
        assert text.endswith("\n") and not text.endswith("\n\n")
        lines = text.split("\n")[1:-1]
        rows = im.positions.reshape(-1, im.ambient_dim)
        assert len(lines) == len(rows)
        for line, row in zip(lines, rows):
            assert line == " ".join(f"{c:.17g}" for c in row)
        back = load_snapshot(path)
        assert back.positions.shape == im.positions.shape
        assert np.array_equal(back.positions.view(np.int64), im.positions.view(np.int64))
        assert back.t == im.t

    def test_node_lines_are_exact_across_block_seams(self, tmp_path):
        width = 8
        res = ((2 * _SNAPSHOT_BLOCK + 3) // width + 1, width)   # > 2 blocks + 3 nodes
        grid = ParamGrid("LatLongSphere", res)
        im = DiscreteImmersion(grid=grid, n=2, k=3, t=0.1 + 0.2,
                               positions=self.tricky_positions(res + (5,), 1))
        self.assert_exact_bytes(im, tmp_path / "sphere.txt")
        header = (tmp_path / "sphere.txt").read_text().split("\n")[0]
        assert header.endswith(f"res={res[0]}x{res[1]} t=0.30000000000000004")

    def test_node_lines_are_exact_on_a_circle(self, tmp_path):
        grid = ParamGrid("Circle", (40,))
        im = DiscreteImmersion(grid=grid, n=1, k=2, t=-1e16,
                               positions=self.tricky_positions((40, 3), 2))
        self.assert_exact_bytes(im, tmp_path / "circle.txt")

    def test_node_lines_are_exact_with_wrap_offsets(self, tmp_path):
        grid = ParamGrid("Torus2", (12, 10))
        wraps = {0: np.array([0.0, 0.0, 0.0, 2.0 * math.pi]),
                 1: np.array([6.123233995736766e-17, -0.0, 1e22, 0.1 + 0.2])}
        im = DiscreteImmersion(grid=grid, n=2, k=2, t=5e-324, wrap_offsets=wraps,
                               positions=self.tricky_positions((12, 10, 4), 3))
        self.assert_exact_bytes(im, tmp_path / "torus.txt")
        header = (tmp_path / "torus.txt").read_text().split("\n")[0]
        assert header.endswith(" t=4.9406564584124654e-324 wrap0=0,0,0,6.2831853071795862"
                               " wrap1=6.123233995736766e-17,-0,1e+22,0.30000000000000004")
        back = load_snapshot(tmp_path / "torus.txt")
        for axis, vec in wraps.items():
            assert np.array_equal(back.wrap_offsets[axis].view(np.int64), vec.view(np.int64))

    # the %.17g kernel against Python's formatter, value by value

    @staticmethod
    def kernel_text(values):
        """The kernel's text of ``values``, one value per line, made in chunks
        of 2,048 values; None if it declines a chunk."""
        values = np.asarray(values, dtype=float)
        seps = np.full(2048, ord("\n"), np.uint8)
        chunks = [format_values(values[i:i + 2048], seps[:len(values[i:i + 2048])])
                  for i in range(0, len(values), 2048)]
        return None if any(c is None for c in chunks) else b"".join(chunks).decode()

    @staticmethod
    def python_text(values):
        return "".join(f"{x:.17g}\n" for x in np.asarray(values, dtype=float).tolist())

    def assert_kernel_exact(self, values):
        values = np.asarray(values, dtype=float)
        got = self.kernel_text(values)
        assert got is not None, "the kernel declined a chunk"
        want = self.python_text(values)
        if got != want:
            bad = [(x, g, w) for x, g, w in zip(values.tolist(), got.split("\n"),
                                                 want.split("\n")) if g != w]
            pytest.fail(f"{len(bad)} values differ, first {bad[0]}")

    def test_kernel_matches_python_on_random_bit_patterns(self):
        bits = np.random.default_rng(17).integers(0, 2 ** 64, 1_200_000, dtype=np.uint64)
        x = bits.view(np.float64)
        fast = np.isfinite(x) & (np.abs(x) >= 1e-280) & (np.abs(x) < 1e280)
        assert fast.sum() >= 1_000_000
        self.assert_kernel_exact(x[fast])
        for v in x[~fast][:200]:        # NaN, infinities, subnormals, extremes
            assert format_values(np.array([v]), np.array([10], np.uint8)) is None

    def test_kernel_matches_python_on_normal_and_scaled_values(self):
        rng = np.random.default_rng(18)
        normal = rng.standard_normal(200_000)
        self.assert_kernel_exact(normal)
        self.assert_kernel_exact(normal * 10.0 ** rng.integers(-25, 21, normal.size))
        # dyadic rationals: exact products, where a decimal tie is common
        self.assert_kernel_exact(rng.integers(-2 ** 40, 2 ** 40, 200_000)
                                 * 2.0 ** rng.integers(-60, 10, 200_000))

    @pytest.mark.parametrize("switch", [1e-5, 1e-4, 1e16, 1e17])
    def test_kernel_is_exact_across_the_notation_switches(self, switch):
        """%.17g switches between fixed and exponent notation at 1e-4 and
        1e17; 1e-5 and 1e16 are the far sides.  Each switch and 300 of its
        neighbours either way, of both signs."""
        walk = [switch]
        for direction in (0.0, np.inf):
            x = switch
            for _ in range(300):
                x = np.nextafter(x, direction)
                walk.append(x)
        walk = np.array(walk)
        self.assert_kernel_exact(np.concatenate([walk, -walk]))

    def test_kernel_is_exact_at_every_power_of_ten(self):
        powers = np.array([float(f"1e{e}") for e in range(-279, 280)])
        near = [powers]
        for direction in (0.0, np.inf):
            x = powers
            for _ in range(3):
                x = np.nextafter(x, direction)
                near.append(x)
        near = np.concatenate(near)
        self.assert_kernel_exact(np.concatenate([near, -near]))

    def test_kernel_carries_to_the_next_power_of_ten(self):
        """These doubles lie just below 10^e, so their 17 digits round up to
        99999999999999999.5 and carry: the text is that of 10^e."""
        carries = {1e-14: "1e-14", 1e-70: "1e-70", 1e98: "1e+98", 1e220: "1e+220"}
        for x, text in carries.items():
            e = round(math.log10(x))
            assert Fraction(x) < Fraction(10) ** e
            assert self.kernel_text([x, -x]) == f"{text}\n-{text}\n"
        self.assert_kernel_exact(list(carries))

    def test_kernel_zeros_and_values_it_leaves_to_python(self):
        assert self.kernel_text([0.0, -0.0, 0.0]) == "0\n-0\n0\n"
        for v in (5e-324, -2.0 ** -1022 * 0.5, 2.0 ** -1022, np.nan, np.inf, -np.inf,
                  1e-281, 1e280, -1.7e308):
            assert self.kernel_text([1.0, v, 2.0]) is None, v
        # M * 2^-24 times 10^23 is an exact tie (17881393432617187.5 for
        # M = 3), which the double-double of 10^23 cannot settle
        for m in (3, 5, 7, 9, 11, 13, 15):
            assert self.kernel_text([1.0, m * 2.0 ** -24, 2.0]) is None, m
        self.assert_kernel_exact([1e-280, -1e-280, np.nextafter(1e280, 0)])

    def test_block_with_fallback_values_is_exact_and_alone_in_falling_back(
            self, tmp_path, monkeypatch):
        """A block that holds a value the kernel declines (a subnormal, one
        past 1e280; a position is never NaN or infinite) is written by
        Python's ``%`` as a whole; the blocks around it stay on the kernel."""
        calls = []
        fallback = immersion._format_block_fallback
        monkeypatch.setattr(immersion, "_format_block_fallback",
                            lambda block: calls.append(len(block)) or fallback(block))
        res = (3 * _SNAPSHOT_BLOCK // 8, 8)         # three blocks
        positions = np.random.default_rng(5).standard_normal(res + (4,))
        positions[res[0] // 2, 0] = [5e-324, -1e300, 2.0 ** -1040, -0.0]
        im = DiscreteImmersion(grid=ParamGrid("LatLongSphere", res), n=2, k=2, t=0.5,
                               positions=positions)
        save_snapshot(im, tmp_path / "mixed.txt")
        lines = (tmp_path / "mixed.txt").read_text().split("\n")[1:-1]
        rows = positions.reshape(-1, 4)
        assert lines == [" ".join(f"{c:.17g}" for c in row) for row in rows]
        assert calls == [_SNAPSHOT_BLOCK]

    @pytest.mark.parametrize("spec,res,t0,t_end,mode", [
        (SolutionSpec(kind="Sphere", n=2, k=2, radius=1.0), (64, 128), 0.37, 0.3703, "Forward"),
        (SolutionSpec(kind="Veronese", n=2, k=3), (24, 48), -1.1, -1.07, "Ancient"),
    ])
    def test_flow_states_never_fall_back(self, tmp_path, monkeypatch, spec, res, t0, t_end,
                                         mode):
        """The states of the benchmark's two flows (an R^4 sphere, whose
        fourth coordinate is exactly 0, and the Veronese) are all written by
        the kernel."""
        def refuse(block):
            raise AssertionError("a flow state reached the %-fallback")

        monkeypatch.setattr(immersion, "_format_block_fallback", refuse)
        seed = seed_immersion(spec, ParamGrid("LatLongSphere", res), t0)
        config = FlowConfig(t_end=t_end, snapshot_every=1)
        states = [state for state, _ in iter_records(seed, config, mode=mode)]
        assert len(states) >= 4
        for i, state in enumerate(states):
            path = tmp_path / f"snap_{i}.txt"
            save_snapshot(state, path)
            assert np.array_equal(load_snapshot(path).positions, state.positions)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not a snapshot\n")
        with pytest.raises(ValueError):
            load_snapshot(path)
