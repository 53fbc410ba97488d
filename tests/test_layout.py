"""The components-first kernels against the grid-first expressions they
replaced, bit for bit.

The pads, stencils and flow kernels keep fields components first, grid axes
last.  The references below keep the earlier grid-first layout, (*res, ...),
and the earlier spelling of every expression.  Equality is required on the
int64 views of the results, so a sign flip of a zero counts as a difference.
"""

import numpy as np
import pytest

from mcflow import ParamGrid, SolutionSpec, seed_immersion
from mcflow.flow import _dt_bound, _effective_spacing_sq, _polar_filter, _zonal_cutoffs, step
from mcflow.grid import pad2, stencil_d1, stencil_d2
from mcflow.immersion import (
    _dot,
    _metric,
    covariant_gradient_fields,
    geometry_fields,
    mean_curvature_vector,
    scalar_fields,
)


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


# ---------------------------------------------------------------------------
# grid-first references
# ---------------------------------------------------------------------------

def ref_pad2(grid, field, axis, theta_sign=None, wrap_offsets=None):
    def reflect(row):
        out = np.roll(row, -(grid.res[1] // 2), axis=0)
        return out * theta_sign if theta_sign is not None else out

    work = field if axis == 0 else np.swapaxes(field, 0, axis)
    out = np.empty((work.shape[0] + 4,) + work.shape[1:], dtype=field.dtype)
    out[2:-2] = work
    if grid.topology == "LatLongSphere" and axis == 0:
        out[1], out[0] = reflect(work[0]), reflect(work[1])
        out[-2], out[-1] = reflect(work[-1]), reflect(work[-2])
    else:
        offset = wrap_offsets.get(axis) if wrap_offsets else None
        out[:2] = work[-2:]
        out[-2:] = work[:2]
        if offset is not None:
            out[:2] -= offset
            out[-2:] += offset
    return out if axis == 0 else np.swapaxes(out, 0, axis)


def ref_offsets(grid, field, axis, theta_sign, padded):
    p = padded if padded is not None else ref_pad2(grid, field, axis, theta_sign)
    lead = (slice(None),) * axis
    return [p[lead + (slice(lo, lo - 4 or None),)] for lo in range(5)]


def ref_stencil_d1(grid, field, axis, theta_sign=None, padded=None):
    m2, m1, _, p1, p2 = ref_offsets(grid, field, axis, theta_sign, padded)
    return (m2 - 8.0 * m1 + 8.0 * p1 - p2) / (12.0 * grid.spacing[axis])


def ref_stencil_d2(grid, field, axis, theta_sign=None, padded=None):
    m2, m1, c, p1, p2 = ref_offsets(grid, field, axis, theta_sign, padded)
    return (-m2 + 16.0 * m1 - 30.0 * c + 16.0 * p1 - p2) / (12.0 * grid.spacing[axis] ** 2)


def components_first(v):
    return np.ascontiguousarray(np.moveaxis(v, -1, 0))


def ref_extract(im):
    """(pads, cols, ginv, d2) with grid-first pads and stencils, each result
    copied to components first."""
    grid, pos, nd = im.grid, im.positions, im.n
    pads = tuple(ref_pad2(grid, pos, a, wrap_offsets=im.wrap_offsets) for a in range(nd))
    jac = [ref_stencil_d1(grid, pos, a, padded=pads[a]) for a in range(nd)]
    cols = [components_first(c) for c in jac]
    _, ginv, detg, _ = _metric(cols)
    d00 = components_first(ref_stencil_d2(grid, pos, 0, padded=pads[0]))
    if nd == 1:
        return pads, cols, ginv, detg, [[d00]]
    d01 = components_first(ref_stencil_d1(grid, jac[1], 0))
    d11 = components_first(ref_stencil_d2(grid, pos, 1, padded=pads[1]))
    return pads, cols, ginv, detg, [[d00, d01], [d01, d11]]


def ref_normal_part(cols, ginv, v):
    w = [_dot(col, v) for col in cols]
    for col, row in zip(cols, ginv):
        v = v - col * sum(gab * wb for gab, wb in zip(row, w))
    return v


def ref_scalar_fields(im):
    pads, cols, ginv, detg, d2 = ref_extract(im)
    if len(cols) == 1:
        Hvec = ginv[0][0] * ref_normal_part(cols, ginv, d2[0][0])
        normh2 = _dot(Hvec, Hvec)
    else:
        h00, h01, h11 = (ref_normal_part(cols, ginv, d2[a][b])
                         for a, b in ((0, 0), (0, 1), (1, 1)))
        (A, B), (_, C) = ginv
        u00, u01 = A * h00 + B * h01, A * h01 + B * h11
        u10, u11 = B * h00 + C * h01, B * h01 + C * h11
        Hvec = u00 + u11
        normh2 = _dot(u00, u00) + 2.0 * _dot(u01, u10) + _dot(u11, u11)
    return {"pads": pads, "detg": detg, "Hvec": np.moveaxis(Hvec, 0, -1),
            "normH2": _dot(Hvec, Hvec), "normh2": normh2}


def ref_mean_curvature_vector(im):
    _, cols, gi, _, d2 = ref_extract(im)
    tr = gi[0][0] * d2[0][0]
    if im.n == 2:
        tr = tr + 2.0 * gi[0][1] * d2[0][1] + gi[1][1] * d2[1][1]
    return np.moveaxis(ref_normal_part(cols, gi, tr), 0, -1)


def ref_covariant_gradient_fields(im, gf):
    grid, nd = im.grid, im.n
    sign_g = sign_h = None
    if grid.topology == "LatLongSphere":
        signs = np.array([-1.0, 1.0])
        sign_g = signs[:, None] * signs[None, :]
        sign_h = sign_g[:, :, None]
    dg = np.stack([ref_stencil_d1(grid, gf.g, a, theta_sign=sign_g) for a in range(nd)],
                  axis=-3)
    comb = dg + np.swapaxes(dg, -3, -1) - np.moveaxis(dg, -2, -3)
    gamma = 0.5 * np.einsum("...lm,...dmi->...dli", gf.ginv, comb)
    dh = np.stack([ref_stencil_d1(grid, gf.hvec, a, theta_sign=sign_h) for a in range(nd)],
                  axis=-4)
    nab_h = (np.einsum("...xy,...dijy->...dijx", gf.proj, dh)
             - np.einsum("...dli,...ljx->...dijx", gamma, gf.hvec)
             - np.einsum("...dlj,...ilx->...dijx", gamma, gf.hvec))
    gradh2 = np.einsum("...da,...ib,...jc,...dijx,...abcx->...",
                       gf.ginv, gf.ginv, gf.ginv, nab_h, nab_h)
    dH = np.stack([ref_stencil_d1(grid, gf.Hvec, a) for a in range(nd)], axis=-2)
    nab_H = np.einsum("...xy,...dy->...dx", gf.proj, dH)
    gradH2 = np.einsum("...da,...dx,...ax->...", gf.ginv, nab_H, nab_H)
    return gradh2, gradH2


def ref_spacing_sq(im):
    grid, out = im.grid, []
    for axis, pad in enumerate(ref_scalar_fields(im)["pads"]):
        nbr = pad[(slice(None),) * axis + (slice(3, -1),)]
        ds2 = np.einsum("...x,...x->...", nbr - im.positions, nbr - im.positions)
        if axis == 1 and grid.topology == "LatLongSphere":
            ds2 = ds2 * ((grid.res[1] / (2.0 * _zonal_cutoffs(grid))) ** 2)[:, None]
        out.append(ds2)
    return out


def ref_dt_bound(im, cfl):
    s2 = min(float(ds2.min()) for ds2 in ref_spacing_sq(im))
    hmax = float(ref_scalar_fields(im)["normh2"].max())
    return cfl * s2 / (2.0 * im.n * (1.0 + hmax * s2))


def ref_polar_filter(grid, vel):
    if grid.topology != "LatLongSphere":
        return vel
    spec = np.fft.rfft(vel, axis=1)
    keep = np.arange(spec.shape[1])[None, :] <= _zonal_cutoffs(grid)[:, None]
    spec *= keep[:, :, None]
    return np.fft.irfft(spec, n=vel.shape[1], axis=1)


def ref_step(im, dt, k1=None):
    def velocity(pos):
        return ref_polar_filter(im.grid, ref_mean_curvature_vector(im.with_positions(pos, im.t)))

    pos = im.positions
    k1 = velocity(pos) if k1 is None else k1
    k2 = velocity(pos + 0.5 * dt * k1)
    k3 = velocity(pos + 0.5 * dt * k2)
    k4 = velocity(pos + dt * k3)
    return pos + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


# ---------------------------------------------------------------------------
# pads and stencils
# ---------------------------------------------------------------------------

def with_zeros(field, rng):
    """The field with about a tenth of its entries replaced by +0.0 or -0.0."""
    out = field.copy()
    mask = rng.random(out.shape) < 0.1
    out[mask] = np.where(rng.random(mask.sum()) < 0.5, 0.0, -0.0)
    return out


def grid_cases():
    sphere = ParamGrid("LatLongSphere", (12, 16))
    signs = np.array([-1.0, 1.0])
    sign_g = signs[:, None] * signs[None, :]
    offsets = {0: np.array([0.0, 0.0, 2.5]), 1: np.array([0.5, -0.0, 1.0])}
    return {
        "sphere-vector": (sphere, (3,), None, None),
        "sphere-tensor-signed": (sphere, (2, 2), sign_g, None),
        "sphere-hvec-signed": (sphere, (2, 2, 4), sign_g[:, :, None], None),
        "torus-wrap-offsets": (ParamGrid("Torus2", (10, 12)), (3,), None, offsets),
        "torus-no-offsets": (ParamGrid("Torus2", (10, 12)), (2, 2), None, None),
        "circle": (ParamGrid("Circle", (16,)), (2,), None, {0: np.array([1.5, -0.25])}),
    }


@pytest.mark.parametrize("name", list(grid_cases()))
def test_pads_and_stencils_match_grid_first(name):
    grid, comps, sign, offsets = grid_cases()[name]
    rng = np.random.default_rng(7)
    field = with_zeros(rng.standard_normal(grid.res + comps), rng)
    nd = grid.ndim
    lead = np.ascontiguousarray(np.moveaxis(field, tuple(range(nd)), tuple(range(-nd, 0))))

    def grid_first(v):
        return np.moveaxis(v, tuple(range(-nd, 0)), tuple(range(nd)))

    for axis in range(nd):
        want = ref_pad2(grid, field, axis, theta_sign=sign, wrap_offsets=offsets)
        got = pad2(grid, lead, axis, theta_sign=sign, wrap_offsets=offsets)
        assert same_bits(grid_first(got), want), (name, axis, "pad2")
        for new, ref in ((stencil_d1, ref_stencil_d1), (stencil_d2, ref_stencil_d2)):
            want = ref(grid, field, axis, theta_sign=sign)
            got = new(grid, lead, axis, theta_sign=sign)
            assert got.flags.c_contiguous
            assert same_bits(grid_first(got), want), (name, axis, new.__name__)


# ---------------------------------------------------------------------------
# extraction, step bound and RK4 step
# ---------------------------------------------------------------------------

def _seed(topology, res, spec, t=0.0):
    return seed_immersion(spec, ParamGrid(topology, res), t)


KERNEL_CASES = {
    "perturbed-sphere-k2": lambda: _seed("LatLongSphere", (16, 32), SolutionSpec(
        kind="Sphere", n=2, k=2, radius=1.0, perturb_amp=0.05, perturb_mode=3)),
    "veronese": lambda: _seed("LatLongSphere", (24, 48), SolutionSpec(kind="Veronese", n=2, k=3),
                              t=-1.0),
    "cylinder-wrap-offset": lambda: _seed("Torus2", (16, 16), SolutionSpec(
        kind="Cylinder", n=2, k=1, flat_length=3.5), t=0.25),
    "circle-k2": lambda: _seed("Circle", (64,), SolutionSpec(kind="Sphere", n=1, k=2, radius=2.0)),
}


@pytest.fixture(params=list(KERNEL_CASES))
def case(request):
    im = KERNEL_CASES[request.param]()
    assert (request.param == "cylinder-wrap-offset") == bool(im.wrap_offsets)
    return im


def test_scalar_fields_match_grid_first(case):
    sf, ref = scalar_fields(case), ref_scalar_fields(case)
    for key in ("detg", "Hvec", "normH2", "normh2"):
        assert same_bits(getattr(sf, key), ref[key]), key


def test_mean_curvature_vector_matches_grid_first(case):
    assert same_bits(mean_curvature_vector(case), ref_mean_curvature_vector(case))


def test_covariant_gradients_match_grid_first(case):
    gf = geometry_fields(case)
    for got, want in zip(covariant_gradient_fields(case, gf),
                         ref_covariant_gradient_fields(case, gf)):
        assert same_bits(got, want)


def test_step_bound_matches_grid_first(case):
    sf = scalar_fields(case)
    for got, want in zip(_effective_spacing_sq(case, sf), ref_spacing_sq(case), strict=True):
        assert same_bits(got, want)
    assert same_bits(_dt_bound(case, 0.2, sf), ref_dt_bound(case, 0.2))


def test_rk4_steps_match_grid_first(case):
    dt = ref_dt_bound(case, 0.2)
    first = step(case, dt)
    want = ref_step(case, dt)
    assert same_bits(first.positions, want)
    # the second step starts from a state held components first
    assert same_bits(step(first, dt).positions, ref_step(case.with_positions(want, case.t), dt))
    # a run's first stage reuses the H of the extraction that validated the state
    k1 = _polar_filter(case.grid, scalar_fields(case).Hvec)
    ref_k1 = ref_polar_filter(case.grid, ref_scalar_fields(case)["Hvec"])
    assert same_bits(step(case, dt, first_stage_velocity=k1).positions, ref_step(case, dt, ref_k1))
