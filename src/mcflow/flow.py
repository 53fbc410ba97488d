"""Time integration of the curvature flow dF/dt = H and trajectory analysis.

The stepper advances node positions with the mean curvature vector extracted
by :mod:`mcflow.immersion`; explicit RK4 (default) or forward Euler.  A run
extracts each state once, with ``scalar_fields``: that validates it, bounds
the step and the blow-up cap, gives the first RK stage and measures recorded
states.  Later stages call ``mean_curvature_vector``; no flow code builds the
full ``GeometryFields``.  ``step`` holds its states and stage velocities
components first, (n+k, *res), and the filter below transforms along their
contiguous longitude axis.  On lat-long grids the velocity field passes
through a zonal spectral filter that removes Fourier modes the meridional
resolution cannot represent anyway (the cutoff at latitude row theta is
K(theta) = clip(round(N_lat sin theta), 2, N_lon / 2)).  Without the filter
the pole-clustered zonal spacing forces an explicit time step smaller by a
factor of sin(theta_min)^2, for no gain in accuracy; with it, modes above the
cutoff receive zero velocity and therefore never move, while every resolved
mode satisfies the step bound below.

Step size.  With s_eff the per-node, per-direction effective ambient spacing
(the distance to the next node, read from the extraction's ghost layers;
zonal spacings are widened by N_lon / (2 K(theta)), so the shortest KEPT
zonal wavelength counts, not the raw pole-clustered spacing):

    dt = cfl * s_min^2 / (2 n (1 + max|h|^2 * s_min^2)),   s_min = min s_eff.

For the resolved modes this gives |lambda| dt <= cfl * pi^2 / (2 n), inside
the RK4 real-axis stability region for cfl <= 1 (and Euler's for cfl <= 0.8).

Diagnostics records carry, per recorded time: area, integral of |H|^2,
max/min |H|, max pinching ratio, minQ := min over nodes of -Q (the distance to
a pinching violation: positive while the surface is strictly pinched), the
integral phi of f_sigma^p, the Gauss curvature integral (n = 2), and the
type-I quantity (-t) max|H|^2 (ancient) or (T - t) max|H|^2 (forward, with T
estimated by extrapolating 1 / max|H|^2 linearly in t to its root).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import DegenerateGeometryError, MinimalPointError
from .grid import ParamGrid
from .immersion import (
    DiscreteImmersion,
    ScalarFields,
    gauss_curvature_field,
    integrate,
    mean_curvature_vector,
    scalar_fields,
)

__all__ = [
    "FlowConfig",
    "DiagnosticsRecord",
    "Trajectory",
    "RescaleResult",
    "ClassifyResult",
    "cfl_dt",
    "step",
    "run",
    "diagnostics",
    "fsigma_integral",
    "classify_type",
    "blowup_type2",
    "rescale_type1",
    "fit_area_decay",
    "write_diagnostics_csv",
    "read_diagnostics_csv",
    "synthetic_trajectory",
    "CSV_COLUMNS",
]

CSV_COLUMNS = ("t", "area", "intH2", "maxH", "minH", "maxRatio", "minQ",
               "phi", "gaussBonnet", "tIq")

# f_sigma's sigma and power p for the recorded phi = integral of f_sigma^p
PHI_SIGMA = 0.1
PHI_P = 10.0


@dataclass(frozen=True)
class FlowConfig:
    """Knobs of a flow run: the end time, the step bound's factor, the
    integrator, the two stops (step count, cap on max |h|^2) and the record
    interval.  What each record measures is fixed; see :func:`diagnostics`."""

    t_end: float
    cfl: float = 0.2
    integrator: str = "RK4"
    max_steps: int = 1_000_000
    stop_on_blowup: float = 1e6        # cap on max |h|^2
    snapshot_every: int = 25

    def __post_init__(self):
        if not 0 < self.cfl <= 1:
            raise ValueError("cfl must lie in (0, 1]")
        if self.integrator not in ("RK4", "Euler"):
            raise ValueError("integrator must be RK4 or Euler")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if not self.stop_on_blowup > 0:
            raise ValueError(f"the blow-up cap must be positive; got {self.stop_on_blowup}")
        if self.snapshot_every < 1:
            raise ValueError("snapshot_every must be >= 1")


@dataclass(frozen=True)
class DiagnosticsRecord:
    """One time slice of every scalar functional tracked along a run.

    ``minQ`` stores min over nodes of -Q = (4/(3n))|H|^2 - |h|^2; a strictly
    pinched surface keeps it positive, and -minQ is the worst (largest) nodal
    Q.  ``gaussBonnet`` is the Gauss curvature integral and is None for
    n != 2.  ``tIq`` is the type-I quantity for the trajectory's mode.
    """

    t: float
    area: float
    intH2: float
    maxH: float
    minH: float
    maxRatio: float
    minQ: float
    phi: float
    gaussBonnet: Optional[float]
    tIq: float


@dataclass
class Trajectory:
    """Time-ordered snapshots plus diagnostics produced by a run."""

    snapshots: list[DiscreteImmersion]
    diagnostics: list[DiagnosticsRecord]
    mode: str = "Forward"
    T_singular: Optional[float] = None
    stop_reason: str = "t_end"

    def __post_init__(self):
        if self.mode not in ("Ancient", "Forward"):
            raise ValueError("mode must be Ancient or Forward")
        times = [s.t for s in self.snapshots]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("snapshot times must be strictly increasing")

    @property
    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.snapshots])


@dataclass(frozen=True)
class RescaleResult:
    """A parabolically rescaled trajectory.

    L is the curvature normalisation (|H|^2 at the base point for the
    curvature-normalised transform, 1/(-t_j) for the type-I transform);
    base_point is the flat node index of the blow-up centre (None for
    type-I), base_time its time.
    """

    trajectory: Trajectory
    L: float
    base_point: Optional[int]
    base_time: float


@dataclass(frozen=True)
class ClassifyResult:
    kind: str            # "TypeI" | "TypeII"
    C: float             # sqrt(sup tIq); the type-I constant when kind == TypeI
    sup_tIq: float
    trend: float         # max tIq on the limit half / max on the other half


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def _zonal_cutoffs(grid: ParamGrid) -> np.ndarray:
    nlat, nlon = grid.res
    k = np.rint(nlat * np.sin(grid.theta_values())).astype(int)
    return np.clip(k, 2, nlon // 2)


def _zonal(grid: ParamGrid) -> tuple[np.ndarray, np.ndarray]:
    """The polar filter's keep mask over (row, zonal mode) and the squared
    widening (N_lon / (2 K(theta)))^2 of each row's zonal spacing, made on the
    grid's first use and kept in its cache."""
    if "zonal" not in grid.cache:
        cut = _zonal_cutoffs(grid)
        keep = np.arange(grid.res[1] // 2 + 1)[None, :] <= cut[:, None]
        grid.cache["zonal"] = keep, ((grid.res[1] / (2.0 * cut)) ** 2)[:, None]
    return grid.cache["zonal"]


def _polar_filter(grid: ParamGrid, vel: np.ndarray) -> np.ndarray:
    """Zero zonal Fourier modes above the per-row cutoff (LatLongSphere only),
    transforming along the longitude axis of the components-first form of the
    (*res, n+k) ``vel``; the result is a view of that form."""
    if grid.topology != "LatLongSphere":
        return vel
    spec = np.fft.rfft(np.moveaxis(vel, -1, 0), axis=-1)
    spec *= _zonal(grid)[0]
    return np.moveaxis(np.fft.irfft(spec, n=grid.res[1], axis=-1), 0, -1)


def _effective_spacing_sq(im: DiscreteImmersion, sf: ScalarFields) -> list[np.ndarray]:
    """Squared forward spacing per axis and node, zonal spacings widened.  The
    neighbours come from the extraction's ghost layers: the node after the
    last one along an axis is its first ghost."""
    grid, out = im.grid, []
    pos = np.moveaxis(im.positions, -1, 0)
    for axis, pad in enumerate(sf.pads):
        nbr = pad[(Ellipsis, slice(3, -1)) + (slice(None),) * (grid.ndim - 1 - axis)]
        # einsum's summation order depends on the layout: it reduces over a
        # contiguous last axis here, as it always has
        d = np.ascontiguousarray(np.moveaxis(nbr - pos, 0, -1))
        ds2 = np.einsum("...x,...x->...", d, d)
        if axis == 1 and grid.topology == "LatLongSphere":
            ds2 = ds2 * _zonal(grid)[1]
        out.append(ds2)
    return out


def _dt_bound(im: DiscreteImmersion, cfl: float, sf: ScalarFields) -> float:
    s2 = min(float(ds2.min()) for ds2 in _effective_spacing_sq(im, sf))
    hmax = float(sf.normh2.max())
    return cfl * s2 / (2.0 * im.n * (1.0 + hmax * s2))


def cfl_dt(im: DiscreteImmersion, cfl: float) -> float:
    """Parabolic step bound; see the module docstring for the exact formula."""
    return _dt_bound(im, cfl, scalar_fields(im))


def step(im: DiscreteImmersion, dt: float, integrator: str = "RK4",
         first_stage_velocity: np.ndarray | None = None) -> DiscreteImmersion:
    """Advance the immersion one explicit step of size dt.

    ``first_stage_velocity`` lets a caller that already extracted the current
    geometry reuse it for the first stage.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    # states and velocities are held components first, (n+k, *res); each
    # stage's positions are a view of its state
    def velocity(state):
        stage = im.with_positions(np.moveaxis(state, 0, -1), im.t)
        return np.moveaxis(_polar_filter(im.grid, mean_curvature_vector(stage)), -1, 0)

    pos = np.ascontiguousarray(np.moveaxis(im.positions, -1, 0))
    k1 = (velocity(pos) if first_stage_velocity is None
          else np.moveaxis(first_stage_velocity, -1, 0))
    if integrator == "Euler":
        new = pos + dt * k1
    elif integrator == "RK4":
        k2 = velocity(pos + 0.5 * dt * k1)
        k3 = velocity(pos + 0.5 * dt * k2)
        k4 = velocity(pos + dt * k3)
        new = pos + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    else:
        raise ValueError("integrator must be RK4 or Euler")
    return im.with_positions(np.moveaxis(new, 0, -1), im.t + dt)


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def fsigma_integral(im: DiscreteImmersion, sigma: float, p: float,
                    gf: ScalarFields | None = None) -> tuple[float, float]:
    """(integral of f_sigma^p, max f_sigma) with f_sigma = |h0|^2 / |H|^(2(1-sigma));
    MinimalPointError when any node's |H|^2 falls below 1e-14 times the
    maximum, where the functional degenerates."""
    if gf is None:
        gf = scalar_fields(im)
    hmax = float(gf.normH2.max())
    if hmax <= 0 or float(gf.normH2.min()) < 1e-14 * hmax:
        raise MinimalPointError("f_sigma undefined near minimal points (|H| ~ 0)")
    f = gf.normh02 / gf.normH2 ** (1.0 - sigma)
    return integrate(im, f ** p, gf), float(f.max())


def _type1_weight(t, mode: str, T: Optional[float]):
    """The factor of max|H|^2 in the type-I quantity at time t: -t in Ancient
    mode, T - t in Forward mode, where T is the singular time (NaN when T is
    unknown)."""
    if mode == "Ancient":
        return -t
    return T - t if T is not None else math.nan


def diagnostics(im: DiscreteImmersion, mode: str = "Forward",
                T: Optional[float] = None,
                fields: ScalarFields | None = None) -> DiagnosticsRecord:
    """All scalar functionals of one time slice.

    minQ is measured against the pinching Q = |h|^2 - (4/(3n)) |H|^2 and phi
    is the integral of f_sigma^p with sigma = PHI_SIGMA, p = PHI_P.  ``T`` is
    the (estimated) singular time and is only used in Forward mode; the
    type-I quantity is NaN when it is unknown.  ``fields`` is an extraction of
    ``im`` already made; without it one is made here.
    """
    gf = fields if fields is not None else scalar_fields(im)
    ones = np.ones(im.grid.res)
    area = integrate(im, ones, gf)
    intH2 = integrate(im, gf.normH2, gf)
    maxH2 = float(gf.normH2.max())
    minH2 = float(gf.normH2.min())
    neg_q = 4.0 / (3.0 * im.n) * gf.normH2 - gf.normh2
    try:
        phi, _ = fsigma_integral(im, PHI_SIGMA, PHI_P, gf)
    except MinimalPointError:
        phi = math.nan
    gb = integrate(im, gauss_curvature_field(im, gf), gf) if im.n == 2 else None
    return DiagnosticsRecord(
        t=im.t, area=area, intH2=intH2, maxH=math.sqrt(maxH2),
        minH=math.sqrt(max(minH2, 0.0)), maxRatio=gf.max_ratio,
        minQ=float(neg_q.min()), phi=phi, gaussBonnet=gb,
        tIq=_type1_weight(im.t, mode, T) * maxH2,
    )


def _estimate_singular_time(times: np.ndarray, maxH2: np.ndarray) -> Optional[float]:
    """Root of a linear fit to 1 / max|H|^2 over the last quarter of records."""
    if len(times) < 3 or not np.all(maxH2 > 0):
        return None
    m = max(3, len(times) // 4)
    x, y = times[-m:], 1.0 / maxH2[-m:]
    try:
        slope, intercept = np.polyfit(x, y, 1)
    except np.linalg.LinAlgError:   # e.g. times 1e-302 apart, whose squares underflow
        return None
    if slope >= 0:
        return None
    return float(-intercept / slope)


def run(seed: DiscreteImmersion, config: FlowConfig, mode: str = "Forward") -> Trajectory:
    """Flow a seed immersion until t_end, max_steps, blow-up cap, or geometry
    degeneracy; snapshots and diagnostics are recorded every
    ``snapshot_every`` steps and at both endpoints, each record measured from
    the extraction that validated its state.

    Mid-run degeneracy (a metric past the condition cap, a stage or state
    that is not finite, or a step bound too small to move t) aborts with the
    last good snapshot; a seed that fails extraction raises.
    """
    im = seed.copy()
    sf = scalar_fields(im)
    snapshots, pre = [], []

    def record(state: DiscreteImmersion, fields: ScalarFields) -> None:
        snapshots.append(state.copy())
        pre.append(diagnostics(state, mode="Ancient", fields=fields))

    record(im, sf)
    stop_reason = "t_end"
    steps = 0
    t_end = config.t_end
    while im.t < t_end - 1e-15 and steps < config.max_steps:
        if float(sf.normh2.max()) > config.stop_on_blowup:
            stop_reason = "blowup"
            break
        try:
            dt = min(_dt_bound(im, config.cfl, sf), t_end - im.t)
            if not im.t + dt > im.t:
                raise DegenerateGeometryError(f"a step of {dt:.3e} leaves t = {im.t!r} unchanged")
            nxt = step(im, dt, config.integrator,
                       first_stage_velocity=_polar_filter(im.grid, sf.Hvec))
            sf = scalar_fields(nxt)
        except DegenerateGeometryError:
            stop_reason = "degenerate"
            break
        im = nxt
        steps += 1
        if steps % config.snapshot_every == 0:
            record(im, sf)
    if steps >= config.max_steps and im.t < t_end - 1e-15 and stop_reason == "t_end":
        stop_reason = "max_steps"
    if stop_reason != "degenerate" and snapshots[-1].t < im.t:
        record(im, sf)

    T = None
    if mode == "Forward":
        T = _estimate_singular_time(np.array([r.t for r in pre]),
                                    np.array([r.maxH ** 2 for r in pre]))
        records = [replace(r, tIq=_type1_weight(r.t, mode, T) * r.maxH ** 2) for r in pre]
    else:
        records = pre
    return Trajectory(snapshots=snapshots, diagnostics=records, mode=mode,
                      T_singular=T, stop_reason=stop_reason)


# ---------------------------------------------------------------------------
# classification and rescaling
# ---------------------------------------------------------------------------

def classify_type(traj: Trajectory) -> ClassifyResult:
    """Type-I / type-II dichotomy from the recorded type-I quantity.

    The record window is split in half at the median time; the half adjacent
    to the limit (t -> -inf for ancient, t -> T for forward) is compared
    against the other.  A bounded series (limit-side max within 5% of the
    other half's max) is type I with constant C = sqrt(sup tIq).
    """
    recs = [r for r in traj.diagnostics if not math.isnan(r.tIq)]
    if len(recs) < 10:
        raise ValueError(f"need >= 10 records to classify, have {len(recs)}")
    recs.sort(key=lambda r: r.t)
    tiq = np.array([r.tIq for r in recs])
    half = len(recs) // 2
    if traj.mode == "Ancient":
        limit_half, other_half = tiq[:half], tiq[half:]
    else:
        limit_half, other_half = tiq[half:], tiq[:half]
    sup = float(tiq.max())
    trend = float(limit_half.max() / other_half.max())
    kind = "TypeI" if trend <= 1.05 else "TypeII"
    return ClassifyResult(kind=kind, C=math.sqrt(sup), sup_tIq=sup, trend=trend)


def _transform_snapshot(im: DiscreteImmersion, scale: float,
                        origin: np.ndarray | None, new_t: float) -> DiscreteImmersion:
    pos = im.positions
    if origin is not None:
        pos = pos - origin
    pos = scale * pos
    wraps = None
    if im.wrap_offsets:
        wraps = {a: scale * v for a, v in im.wrap_offsets.items()}
    return DiscreteImmersion(grid=im.grid, n=im.n, k=im.k, positions=pos,
                             t=new_t, wrap_offsets=wraps)


def blowup_type2(traj: Trajectory, window: Optional[tuple[float, float]] = None
                 ) -> RescaleResult:
    """Curvature-normalised blow-up about the space-time curvature maximum.

    The base point (x_j, t_j) maximises (-t)|H|^2 (ancient) or (T-t)|H|^2
    (forward) over the stored snapshots in the window; ties break to the
    earliest time, then the lowest flat node index.  Snapshots transform as
    F -> sqrt(L)(F - F(x_j, t_j)) with L = |H(x_j, t_j)|^2, times as
    tau = (t - t_j) L, so the tau = 0 slice has max |H| = 1 up to roundoff
    and the pinching ratio field is untouched.
    """
    snaps = traj.snapshots
    if window is not None:
        lo, hi = window
        snaps = [s for s in snaps if lo <= s.t <= hi]
    if not snaps:
        raise ValueError("empty rescaling window")
    if traj.mode == "Forward" and traj.T_singular is None:
        raise ValueError("forward-mode blow-up needs an estimated singular time")

    best = None  # (-q, t, flat_index, normH2_at_node, position)
    for s in snaps:
        h2 = scalar_fields(s).normH2.reshape(-1)
        idx = int(np.argmax(h2))
        q = _type1_weight(s.t, traj.mode, traj.T_singular) * float(h2[idx])
        key = (-q, s.t, idx)
        if best is None or key < best[0]:
            best = (key, s.t, idx, float(h2[idx]),
                    s.positions.reshape(-1, s.ambient_dim)[idx].copy())
    _, t_j, x_j, L, origin = best
    scale = math.sqrt(L)
    out = [_transform_snapshot(s, scale, origin, (s.t - t_j) * L) for s in snaps]
    rtraj = Trajectory(snapshots=out, diagnostics=[], mode=traj.mode,
                       T_singular=None, stop_reason=traj.stop_reason)
    return RescaleResult(trajectory=rtraj, L=L, base_point=x_j, base_time=t_j)


def rescale_type1(traj: Trajectory, t_j: float, n_tau: int = 11) -> RescaleResult:
    """Type-I rescaling F(x, -t_j tau) / sqrt(-t_j) on the window tau in [-2, -1].

    Snapshots at the uniform tau grid are built by per-node linear
    interpolation in t of the stored snapshots, which must cover
    [2 t_j, t_j]."""
    if t_j >= 0:
        raise ValueError("type-I rescaling requires t_j < 0")
    if traj.mode != "Ancient":
        raise ValueError("type-I rescaling applies to ancient-mode trajectories")
    times = traj.times
    if times[0] > 2.0 * t_j + 1e-12 or times[-1] < t_j - 1e-12:
        raise ValueError(
            f"trajectory covers [{times[0]:.6g}, {times[-1]:.6g}] but the "
            f"transform needs [{2 * t_j:.6g}, {t_j:.6g}]"
        )
    scale = 1.0 / math.sqrt(-t_j)
    taus = np.linspace(-2.0, -1.0, n_tau)
    out = []
    for tau in taus:
        t = -t_j * tau
        j = int(np.searchsorted(times, t))
        j = min(max(j, 1), len(times) - 1)
        t0, t1 = times[j - 1], times[j]
        w = 0.0 if t1 == t0 else (t - t0) / (t1 - t0)
        pos = (1.0 - w) * traj.snapshots[j - 1].positions + w * traj.snapshots[j].positions
        interp = traj.snapshots[j - 1].with_positions(pos, t)
        out.append(_transform_snapshot(interp, scale, None, float(tau)))
    rtraj = Trajectory(snapshots=out, diagnostics=[], mode="Ancient",
                       T_singular=None, stop_reason=traj.stop_reason)
    return RescaleResult(trajectory=rtraj, L=1.0 / (-t_j), base_point=None, base_time=t_j)


def fit_area_decay(traj: Trajectory, window: Optional[tuple[float, float]] = None
                   ) -> tuple[float, float]:
    """Least-squares fit of log(area) against log|t| (ancient) or log(T - t)
    (forward): returns (c, r) with area ~ c |t|^r over the fit window."""
    recs = traj.diagnostics
    if window is not None:
        lo, hi = window
        recs = [r for r in recs if lo <= r.t <= hi]
    if traj.mode == "Forward" and traj.T_singular is None:
        raise ValueError("forward-mode fit needs an estimated singular time")
    x = np.array([_type1_weight(r.t, traj.mode, traj.T_singular) for r in recs])
    y = np.array([r.area for r in recs])
    keep = (x > 0) & (y > 0)
    if keep.sum() < 2:
        raise ValueError("not enough records in the fit window")
    r_exp, logc = np.polyfit(np.log(x[keep]), np.log(y[keep]), 1)
    return float(math.exp(logc)), float(r_exp)


def synthetic_trajectory(times, max_h2, mode: str = "Ancient",
                         T: Optional[float] = None) -> Trajectory:
    """Diagnostics-only trajectory from a max|H|^2 time series (no snapshots);
    used to feed scalar laws through the classification machinery."""
    times = np.asarray(times, dtype=float)
    max_h2 = np.asarray(max_h2, dtype=float)
    recs = []
    for t, h2 in zip(times, max_h2):
        tiq = _type1_weight(t, mode, T) * h2
        recs.append(DiagnosticsRecord(
            t=float(t), area=math.nan, intH2=math.nan, maxH=math.sqrt(h2),
            minH=math.nan, maxRatio=math.nan, minQ=math.nan, phi=math.nan,
            gaussBonnet=None, tIq=float(tiq)))
    return Trajectory(snapshots=[], diagnostics=recs, mode=mode, T_singular=T)


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------

def write_diagnostics_csv(records, path) -> None:
    """Exact column order t,area,intH2,maxH,minH,maxRatio,minQ,phi,gaussBonnet,tIq;
    17 significant digits; gaussBonnet empty for n != 2."""
    lines = [",".join(CSV_COLUMNS)]
    for r in records:
        values = (getattr(r, c) for c in CSV_COLUMNS)
        lines.append(",".join("" if v is None else f"{v:.17g}" for v in values))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_diagnostics_csv(path) -> list[DiagnosticsRecord]:
    with open(path) as fh:
        header = fh.readline().strip()
        if tuple(header.split(",")) != CSV_COLUMNS:
            raise ValueError(f"{path}: unexpected diagnostics header {header!r}")
        records = []
        for line in fh:
            line = line.strip()
            if not line:
                continue
            vals = dict(zip(CSV_COLUMNS, line.split(",")))
            gb = vals.pop("gaussBonnet")
            records.append(DiagnosticsRecord(gaussBonnet=None if gb == "" else float(gb),
                                             **{c: float(v) for c, v in vals.items()}))
    return records
