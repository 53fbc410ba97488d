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
axis; the stencils, and the flow's step bound, slice the padded array.  Fields
hold their grid axes last, (..., *res), vector components first: a pole ghost
row is two slice copies, a wrap offset broadcasts over the component axis, and
each stencil result is contiguous.

With the half-step latitude offset the node set is a uniform grid on the
double cover, so sums of smooth fields against sqrt(det g) are trapezoidal
rules on a torus: integration is spectrally accurate.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

__all__ = ["ParamGrid", "pad2", "stencil_d1", "stencil_d2"]

TOPOLOGIES = ("Circle", "Torus2", "LatLongSphere")

MIN_RESOLUTION = 8


@dataclasses.dataclass(frozen=True)
class ParamGrid:
    """Parameter grid: topology tag plus per-direction point counts.  ``cache``
    keeps constants derived from the grid alone; it takes no part in equality."""

    topology: str
    res: tuple[int, ...]
    cache: dict = dataclasses.field(default_factory=dict, init=False, repr=False, compare=False)

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


def pad2(grid: ParamGrid, field: np.ndarray, axis: int, theta_sign=None,
         wrap_offsets=None) -> np.ndarray:
    """A (..., *res) field extended by two ghost layers on both sides of grid
    axis ``axis``.

    All stencils slice this array, which costs a single copy of the field per
    (field, axis) pair instead of one per stencil offset.  ``theta_sign``,
    shaped like the leading axes, flips tensor components across the poles;
    ``wrap_offsets`` (the immersion's, given only when padding raw positions)
    shifts the ghosts of a periodic axis by the offset gained per period.
    """
    ax = field.ndim - grid.ndim + axis
    out = np.empty(field.shape[:ax] + (field.shape[ax] + 4,) + field.shape[ax + 1:], field.dtype)
    # views with the padded axis last
    o, f = np.moveaxis(out, ax, -1), np.moveaxis(field, ax, -1)
    o[..., 2:-2] = f
    if grid.topology == "LatLongSphere" and axis == 0:
        # a ghost row past a pole is the row on its near side, turned by half
        # a longitude period
        half = grid.res[1] // 2
        for ghost, row in ((1, 0), (0, 1), (-2, -1), (-1, -2)):
            o[..., :half, ghost] = f[..., half:, row]
            o[..., half:, ghost] = f[..., :half, row]
        if theta_sign is not None:
            sign = np.asarray(theta_sign)[..., None, None]
            o[..., :2] *= sign
            o[..., -2:] *= sign
    else:
        o[..., :2] = f[..., -2:]
        o[..., -2:] = f[..., :2]
        offset = wrap_offsets.get(axis) if wrap_offsets else None
        if offset is not None:
            offset = offset.reshape((-1,) + (1,) * grid.ndim)
            o[..., :2] -= offset
            o[..., -2:] += offset
    return out


def _offsets(grid: ParamGrid, field: np.ndarray, axis: int, theta_sign,
             padded: np.ndarray | None) -> list[np.ndarray]:
    """The field at stencil offsets -2..2 along a grid axis, as slices of its pad."""
    p = padded if padded is not None else pad2(grid, field, axis, theta_sign)
    tail = (slice(None),) * (grid.ndim - 1 - axis)
    return [p[(Ellipsis, slice(lo, lo - 4 or None)) + tail] for lo in range(5)]


def stencil_d1(grid: ParamGrid, field: np.ndarray, axis: int, *, theta_sign=None,
               padded: np.ndarray | None = None) -> np.ndarray:
    """Fourth-order central first derivative along a grid axis of a (..., *res)
    field, (m2 - 8 m1 + 8 p1 - p2) / 12h in that order; slices ``padded`` when
    the caller already padded the field."""
    m2, m1, _, p1, p2 = _offsets(grid, field, axis, theta_sign, padded)
    out = m2 - 8.0 * m1
    out += 8.0 * p1
    out -= p2
    out /= 12.0 * grid.spacing[axis]
    return out


def stencil_d2(grid: ParamGrid, field: np.ndarray, axis: int, *, theta_sign=None,
               padded: np.ndarray | None = None) -> np.ndarray:
    """Fourth-order pure second derivative along a grid axis of a (..., *res)
    field, (-m2 + 16 m1 - 30 c + 16 p1 - p2) / 12h^2 in that order; slices
    ``padded`` when the caller already padded the field."""
    m2, m1, c, p1, p2 = _offsets(grid, field, axis, theta_sign, padded)
    out = 16.0 * m1 - m2
    out -= 30.0 * c
    out += 16.0 * p1
    out -= p2
    out /= 12.0 * grid.spacing[axis] ** 2
    return out
