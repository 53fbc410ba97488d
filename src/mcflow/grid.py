"""Structured parameter grids and stencil gathers for closed topologies.

Three topologies are supported, all without boundary so every node has a full
stencil:

* Circle        — one periodic direction (n = 1 immersions).
* Torus2        — two periodic directions.  A direction may carry a constant
                  ambient "wrap offset": positions then satisfy
                  F(u + period) = F(u) + offset, which realises flat cylinder
                  factors on a periodic patch.  Derived fields (metric, second
                  fundamental form, ...) are strictly periodic, so the offset
                  only enters gathers of raw positions.
* LatLongSphere — latitude rows offset half a step from the poles, periodic
                  longitude.  Gathers past a pole reflect to the antipodal
                  longitude (theta -> -theta equals phi -> phi + pi on the
                  sphere), which keeps every stencil uniform.  Components of
                  tensors with theta indices flip sign under that reflection;
                  gathers take an optional sign array for this.

Every gather goes through :func:`pad2`, which adds two ghost layers along one
axis; the stencils, and the flow's step bound, slice the padded array.

With the half-step latitude offset the node set is a uniform grid on the
double cover, so sums of smooth fields against sqrt(det g) are trapezoidal
rules on a torus: integration is spectrally accurate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["ParamGrid", "pad2", "stencil_d1", "stencil_d2"]

TOPOLOGIES = ("Circle", "Torus2", "LatLongSphere")

MIN_RESOLUTION = 8


@dataclass(frozen=True)
class ParamGrid:
    """Parameter grid: topology tag plus per-direction point counts."""

    topology: str
    res: tuple[int, ...]

    def __post_init__(self):
        if self.topology not in TOPOLOGIES:
            raise ValueError(f"unknown topology {self.topology!r}; expected one of {TOPOLOGIES}")
        res = tuple(int(r) for r in self.res)
        object.__setattr__(self, "res", res)
        expected = 1 if self.topology == "Circle" else 2
        if len(res) != expected:
            raise ValueError(f"{self.topology} needs {expected} resolution(s), got {res}")
        if any(r < MIN_RESOLUTION for r in res):
            raise ValueError(f"resolutions must be >= {MIN_RESOLUTION}, got {res}")
        if self.topology == "LatLongSphere" and res[1] % 2 != 0:
            raise ValueError("LatLongSphere longitude count must be even (pole reflection)")

    @property
    def ndim(self) -> int:
        return len(self.res)

    @property
    def spacing(self) -> tuple[float, ...]:
        """Parameter step per direction, in radians."""
        if self.topology == "LatLongSphere":
            return (math.pi / self.res[0], 2.0 * math.pi / self.res[1])
        return tuple(2.0 * math.pi / r for r in self.res)

    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    def node_count(self) -> int:
        return int(np.prod(self.res))

    def theta_values(self) -> np.ndarray:
        """Latitude angles of the rows (LatLongSphere only)."""
        if self.topology != "LatLongSphere":
            raise ValueError("theta_values only applies to LatLongSphere grids")
        return (np.arange(self.res[0]) + 0.5) * self.spacing[0]


def _reflect_row(row: np.ndarray, nlon: int, theta_sign) -> np.ndarray:
    out = np.roll(row, -(nlon // 2), axis=0)
    if theta_sign is not None:
        out = out * theta_sign
    return out


def pad2(grid: ParamGrid, field: np.ndarray, axis: int, theta_sign=None,
         wrap_offsets=None) -> np.ndarray:
    """Field extended by two ghost layers on both sides of one axis.

    All stencils slice this array, which costs a single copy of the field per
    (field, axis) pair instead of one per stencil offset.  ``theta_sign``
    flips tensor components across the poles; ``wrap_offsets`` (the
    immersion's, given only when padding raw positions) shifts the ghosts of
    a periodic axis by the offset gained per period.
    """
    work = field if axis == 0 else np.swapaxes(field, 0, axis)
    npts = work.shape[0]
    out = np.empty((npts + 4,) + work.shape[1:], dtype=field.dtype)
    out[2:-2] = work
    if grid.topology == "LatLongSphere" and axis == 0:
        nlon = grid.res[1]
        out[1] = _reflect_row(work[0], nlon, theta_sign)
        out[0] = _reflect_row(work[1], nlon, theta_sign)
        out[-2] = _reflect_row(work[-1], nlon, theta_sign)
        out[-1] = _reflect_row(work[-2], nlon, theta_sign)
    else:
        offset = wrap_offsets.get(axis) if wrap_offsets else None
        out[:2] = work[-2:]
        out[-2:] = work[:2]
        if offset is not None:
            out[:2] -= offset
            out[-2:] += offset
    return out if axis == 0 else np.swapaxes(out, 0, axis)


def _offsets(grid: ParamGrid, field: np.ndarray, axis: int, theta_sign,
             padded: np.ndarray | None) -> list[np.ndarray]:
    """The field at stencil offsets -2..2 along an axis, as slices of its pad."""
    p = padded if padded is not None else pad2(grid, field, axis, theta_sign)
    lead = (slice(None),) * axis
    return [p[lead + (slice(lo, lo - 4 or None),)] for lo in range(5)]


def stencil_d1(grid: ParamGrid, field: np.ndarray, axis: int, *, theta_sign=None,
               padded: np.ndarray | None = None) -> np.ndarray:
    """Fourth-order central first derivative along a parameter axis; slices
    ``padded`` when the caller already padded the field."""
    m2, m1, _, p1, p2 = _offsets(grid, field, axis, theta_sign, padded)
    return (m2 - 8.0 * m1 + 8.0 * p1 - p2) / (12.0 * grid.spacing[axis])


def stencil_d2(grid: ParamGrid, field: np.ndarray, axis: int, *, theta_sign=None,
               padded: np.ndarray | None = None) -> np.ndarray:
    """Fourth-order pure second derivative along a parameter axis; slices
    ``padded`` when the caller already padded the field."""
    m2, m1, c, p1, p2 = _offsets(grid, field, axis, theta_sign, padded)
    return (-m2 + 16.0 * m1 - 30.0 * c + 16.0 * p1 - p2) / (12.0 * grid.spacing[axis] ** 2)
