"""Closed-form ancient solutions and seed immersions.

These are the regression oracles for everything downstream: homothetically
shrinking spheres and cylinders in Euclidean space, the quadratic minimal
surface in the 4-sphere (a shrinker in R^5 with |h|^2 = (5/6) |H|^2), and the
shrinking spherical caps inside a round ambient sphere, which are tracked by
their scalar radius law rather than a mesh.

Shrinking laws, for t < 0:

    sphere      R(t) = sqrt(-2 n t),        |H| = n / R,      ratio 1/n
    cylinder    R(t) = sqrt(-2 (n-m) t),    |H| = (n-m) / R,  ratio 1/(n-m)
    quadratic   r(t) = 2 sqrt(-t),          |H| = 2 / r,      ratio 5/6

    cap         rho(t) = R * arccos(cos(rho0/R) * exp(n (t - t0) / R^2)),
                from d(rho)/dt = -(n / R) cot(rho / R); equatorial spheres
                (rho = pi R / 2) are static, caps off the equator shrink to a
                point in finite time and limit to the equator as t -> -inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapExtinctError
from .grid import ParamGrid
from .immersion import DiscreteImmersion

__all__ = [
    "HomotheticState",
    "SolutionSpec",
    "sphere_law",
    "cylinder_law",
    "veronese_law",
    "veronese_map",
    "veronese_chart",
    "cap_radius",
    "cap_extinction_time",
    "seed_immersion",
]

_SQRT3 = math.sqrt(3.0)


@dataclass(frozen=True)
class HomotheticState:
    """Scalar state of a homothetic shrinker at one time."""

    R: float
    normH: float
    normh2: float
    ratio: float

    @property
    def normH2(self) -> float:
        return self.normH ** 2


@dataclass(frozen=True)
class SolutionSpec:
    """Parameters selecting a seed solution with a mesh representation.

    kind is one of Sphere, Cylinder, Veronese, TorusSeed; the spherical caps
    have none and are tracked by :func:`cap_radius` alone.  ``m`` is the flat
    factor dimension (Cylinder only); ``perturb_amp`` / ``perturb_mode`` add
    a radial sectoral-harmonic perturbation to sphere seeds.
    """

    kind: str
    n: int = 2
    k: int = 1
    radius: float = 1.0
    m: int = 1
    flat_length: float = 2.0 * math.pi
    perturb_amp: float = 0.0
    perturb_mode: int = 2

    def __post_init__(self):
        kinds = ("Sphere", "Cylinder", "Veronese", "TorusSeed")
        if self.kind not in kinds:
            raise ValueError(f"unknown solution kind {self.kind!r}; expected one of {kinds}")
        if self.n < 1 or self.k < 1:
            raise ValueError("n and k must be positive")
        if self.kind == "Cylinder" and not (1 <= self.m < self.n):
            raise ValueError("cylinder flat factor requires 1 <= m < n")
        if self.kind == "Veronese" and (self.n, self.k) != (2, 3):
            raise ValueError("the Veronese solution forces n=2, k=3")
        if self.radius <= 0:
            raise ValueError("radius must be positive")


def sphere_law(n: int, t: float) -> HomotheticState:
    """Shrinking round sphere; (-t) |H|^2 = n / 2 for all t < 0."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if t >= 0:
        raise ValueError("ancient sphere law requires t < 0")
    R = math.sqrt(-2.0 * n * t)
    return HomotheticState(R=R, normH=n / R, normh2=n / R ** 2, ratio=1.0 / n)


def cylinder_law(n: int, m: int, t: float) -> HomotheticState:
    """Shrinking cylinder: a round (n-m)-sphere factor times a static flat factor."""
    if not 1 <= m < n:
        raise ValueError("cylinder requires 1 <= m < n")
    if t >= 0:
        raise ValueError("ancient cylinder law requires t < 0")
    q = n - m
    R = math.sqrt(-2.0 * q * t)
    return HomotheticState(R=R, normH=q / R, normh2=q / R ** 2, ratio=1.0 / q)


def veronese_law(t: float) -> HomotheticState:
    """Quadratic minimal sphere in S^4, shrinking homothetically in R^5.

    The image lies on the sphere of radius r(t) = 2 sqrt(-t); the pinching
    ratio is 5/6 at every point and every time.  ``R`` is the containing
    sphere radius.
    """
    if t >= 0:
        raise ValueError("ancient law requires t < 0")
    r = 2.0 * math.sqrt(-t)
    return HomotheticState(R=r, normH=2.0 / r, normh2=(10.0 / 3.0) / r ** 2, ratio=5.0 / 6.0)


def veronese_map(p: np.ndarray) -> np.ndarray:
    """Quadratic map sending the radius-sqrt(3) sphere in R^3 onto the unit
    sphere in R^5.  Antipodal points have the same image."""
    p = np.asarray(p, dtype=float)
    u, v, w = p[..., 0], p[..., 1], p[..., 2]
    return np.stack(
        [
            u * v / _SQRT3,
            u * w / _SQRT3,
            v * w / _SQRT3,
            (u ** 2 - v ** 2) / (2.0 * _SQRT3),
            (u ** 2 + v ** 2 - 2.0 * w ** 2) / 6.0,
        ],
        axis=-1,
    )


def veronese_chart(theta, phi, r: float = 1.0) -> np.ndarray:
    """Evaluate the quadratic immersion on spherical coordinates, scaled to
    image radius r."""
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    p = _SQRT3 * np.stack(
        [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)],
        axis=-1,
    )
    return r * veronese_map(p)


def cap_extinction_time(n: int, R_amb: float, rho0: float, t0: float) -> float:
    """Time at which the closed-form cap radius leaves (0, pi * R_amb).

    Equatorial caps (rho0 = pi R / 2) never die; math.inf is returned.
    """
    y0 = math.cos(rho0 / R_amb)
    if y0 == 0.0:
        return math.inf
    return t0 - (R_amb ** 2 / n) * math.log(abs(y0))


def cap_radius(n: int, R_amb: float, rho0: float, t0: float, t: float) -> float:
    """Closed-form geodesic-sphere radius under the flow in the round ambient
    sphere.  Raises CapExtinctError once the cap has vanished."""
    if not 0 < rho0 < math.pi * R_amb:
        raise ValueError("initial cap radius must lie in (0, pi * R_amb)")
    y = math.cos(rho0 / R_amb) * math.exp(n * (t - t0) / R_amb ** 2)
    if abs(y) > 1.0:
        t_ext = cap_extinction_time(n, R_amb, rho0, t0)
        raise CapExtinctError(
            f"cap extinct at t = {t_ext:.6g} (requested t = {t:.6g})",
            extinction_time=t_ext,
        )
    return R_amb * math.acos(y)


def _latlong_angles(grid: ParamGrid):
    phi = np.arange(grid.res[1]) * grid.spacing[1]
    return np.meshgrid(grid.theta_values(), phi, indexing="ij")


def _sphere_positions(spec: SolutionSpec, grid: ParamGrid, radius: float) -> np.ndarray:
    theta, phi = _latlong_angles(grid)
    r_field = radius * np.ones_like(theta)
    if spec.perturb_amp != 0.0:
        l = spec.perturb_mode
        # sectoral harmonic sin(theta)^l cos(l phi): smooth across the poles
        r_field = radius * (1.0 + spec.perturb_amp * np.sin(theta) ** l * np.cos(l * phi))
    pos = np.zeros(theta.shape + (2 + spec.k,))
    pos[..., 0] = r_field * np.sin(theta) * np.cos(phi)
    pos[..., 1] = r_field * np.sin(theta) * np.sin(phi)
    pos[..., 2] = r_field * np.cos(theta)
    return pos


def seed_immersion(spec: SolutionSpec, grid: ParamGrid, t: float) -> DiscreteImmersion:
    """Sample an analytic solution chart onto a parameter grid at time t.

    Forward runs seed at t >= 0 from ``spec.radius``; negative t evaluates the
    ancient law of the chosen kind instead.  Topology compatibility: spheres
    and the quadratic immersion live on LatLongSphere grids, cylinders and the
    flat product torus on Torus2, circles (n = 1) on Circle.
    """
    if spec.kind == "Sphere":
        if spec.n == 1:
            if grid.topology != "Circle":
                raise ValueError("n=1 sphere seeds require a Circle grid")
            R = spec.radius if t >= 0 else sphere_law(1, t).R
            th = np.arange(grid.res[0]) * grid.spacing[0]
            pos = np.zeros((grid.res[0], 1 + spec.k))
            pos[:, 0] = R * np.cos(th)
            pos[:, 1] = R * np.sin(th)
            return DiscreteImmersion(grid=grid, n=1, k=spec.k, positions=pos, t=t)
        if spec.n != 2 or grid.topology != "LatLongSphere":
            raise ValueError("discrete sphere seeds support n=2 on LatLongSphere grids")
        R = spec.radius if t >= 0 else sphere_law(2, t).R
        pos = _sphere_positions(spec, grid, R)
        return DiscreteImmersion(grid=grid, n=2, k=spec.k, positions=pos, t=t)

    if spec.kind == "Veronese":
        if grid.topology != "LatLongSphere":
            raise ValueError("the quadratic immersion is sampled on LatLongSphere grids")
        r = spec.radius if t >= 0 else veronese_law(t).R
        theta, phi = _latlong_angles(grid)
        pos = veronese_chart(theta, phi, r=r)
        return DiscreteImmersion(grid=grid, n=2, k=3, positions=pos, t=t)

    if spec.kind == "Cylinder":
        if grid.topology != "Torus2" or spec.n != 2 or spec.m != 1:
            raise ValueError("discrete cylinder seeds support n=2, m=1 on Torus2 grids")
        R = spec.radius if t >= 0 else cylinder_law(spec.n, spec.m, t).R
        n0, n1 = grid.res
        th = np.arange(n0) * grid.spacing[0]
        s = np.arange(n1) * grid.spacing[1]
        T, S = np.meshgrid(th, s, indexing="ij")
        pos = np.zeros((n0, n1, 2 + spec.k))
        pos[..., 0] = R * np.cos(T)
        pos[..., 1] = R * np.sin(T)
        pos[..., 2] = spec.flat_length * S / (2.0 * math.pi)
        offset = np.zeros(2 + spec.k)
        offset[2] = spec.flat_length
        return DiscreteImmersion(grid=grid, n=2, k=spec.k, positions=pos, t=t,
                                 wrap_offsets={1: offset})

    # TorusSeed, the remaining kind
    if grid.topology != "Torus2":
        raise ValueError("flat product torus seeds require a Torus2 grid")
    if spec.k < 2:
        raise ValueError("the product torus needs codimension k >= 2")
    a = spec.radius
    n0, n1 = grid.res
    u = np.arange(n0) * grid.spacing[0]
    v = np.arange(n1) * grid.spacing[1]
    U, V = np.meshgrid(u, v, indexing="ij")
    pos = np.zeros((n0, n1, 2 + spec.k))
    pos[..., 0] = a * np.cos(U)
    pos[..., 1] = a * np.sin(U)
    pos[..., 2] = a * np.cos(V)
    pos[..., 3] = a * np.sin(V)
    return DiscreteImmersion(grid=grid, n=2, k=spec.k, positions=pos, t=t)
