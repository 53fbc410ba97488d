"""Shared fixtures: reference surfaces that are not solution seeds, and runs
collected in memory."""

import math

import numpy as np
import pytest

from mcflow import DiagnosticsRecord, DiscreteImmersion, ParamGrid, Trajectory
from mcflow.flow import _type1_weight, finish_records, iter_records


def ellipsoid_of_revolution(res, a=1.0, c=2.0, k=1):
    """Prolate ellipsoid with symmetry axis z and polar semi-axis c (c/a = 2:1
    by default), immersed in R^(2+k)."""
    grid = ParamGrid("LatLongSphere", res)
    th = (np.arange(res[0]) + 0.5) * grid.spacing[0]
    ph = np.arange(res[1]) * grid.spacing[1]
    T, P = np.meshgrid(th, ph, indexing="ij")
    pos = np.zeros(T.shape + (2 + k,))
    pos[..., 0] = a * np.sin(T) * np.cos(P)
    pos[..., 1] = a * np.sin(T) * np.sin(P)
    pos[..., 2] = c * np.cos(T)
    return DiscreteImmersion(grid=grid, n=2, k=k, positions=pos, t=0.0)


def donut_torus(res, R=1.5, r=0.5):
    """Standard torus of revolution in R^3 (not a flow seed; geometry tests)."""
    grid = ParamGrid("Torus2", res)
    u = np.arange(res[0]) * grid.spacing[0]
    v = np.arange(res[1]) * grid.spacing[1]
    U, V = np.meshgrid(u, v, indexing="ij")
    pos = np.stack([(R + r * np.cos(U)) * np.cos(V),
                    (R + r * np.cos(U)) * np.sin(V),
                    r * np.sin(U)], axis=-1)
    return DiscreteImmersion(grid=grid, n=2, k=1, positions=pos, t=0.0)


def synthetic_trajectory(times, max_h2, mode="Ancient", T=None):
    """Diagnostics-only trajectory from a max|H|^2 time series (no snapshots),
    to feed scalar laws through the classification machinery."""
    recs = [DiagnosticsRecord(t=float(t), area=math.nan, intH2=math.nan,
                              maxH=math.sqrt(h2), minH=math.nan, maxRatio=math.nan,
                              minQ=math.nan, phi=math.nan, gaussBonnet=None,
                              tIq=float(_type1_weight(t, mode, T) * h2))
            for t, h2 in zip(np.asarray(times, dtype=float), np.asarray(max_h2, dtype=float))]
    return Trajectory(diagnostics=recs, mode=mode, T_singular=T)


def collect_run(seed, config, mode="Forward"):
    """Every recorded state of a run, copied, and the run's trajectory: the
    records of ``iter_records`` finished by ``finish_records``."""
    snapshots, records = [], []
    stream = iter_records(seed, config, mode)
    while True:
        try:
            state, record = next(stream)
        except StopIteration as end:
            return snapshots, finish_records(records, mode, end.value)
        snapshots.append(state.copy())
        records.append(record)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


def cap_oracle_worst_error(n, R, rho0, t0, t_lo, t_hi, steps):
    """Fixed-step RK4 oracle for the cap radius law.

    The flow is integrated in eps = pi R / 2 - rho, whose right-hand side
    (n/R) tan(eps/R) stays well conditioned on the whole window; integrating
    rho directly evaluates tan next to pi/2 early on and loses seven digits.
    Returns the worst relative disagreement with the closed form.
    """
    from mcflow import cap_radius

    dt = (t_hi - t_lo) / steps
    eps = math.pi * R / 2.0 - cap_radius(n, R, rho0, t0, t_lo)
    rhs = lambda e: (n / R) * math.tan(e / R)
    t, worst = t_lo, 0.0
    for i in range(steps):
        k1 = rhs(eps)
        k2 = rhs(eps + 0.5 * dt * k1)
        k3 = rhs(eps + 0.5 * dt * k2)
        k4 = rhs(eps + dt * k3)
        eps += dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += dt
        if i % 500 == 0:
            closed = cap_radius(n, R, rho0, t0, t)
            worst = max(worst, abs((math.pi * R / 2.0 - eps) / closed - 1.0))
    return worst
