"""Discrete immersions on structured grids and finite-difference geometry.

An immersion F: M^n -> R^(n+k) is stored as positions on a ParamGrid.  The
public arrays are (*res, n+k), but extraction works components first,
(n+k, *res), the layout of :mod:`mcflow.grid`: the positions of flow states,
``ScalarFields.Hvec`` and ``mean_curvature_vector`` are views of such arrays,
not C-ordered copies.  All extraction starts from one core, the same index
loops for every n: ghost-padded positions, fourth-order central differences
for the Jacobian and d2F/du_a du_b, and g = jac^T jac with det g and g^(-1)
from cofactors.  A node whose tr(g) tr(g^(-1)) passes 1e12, or whose det g
is 0, negative, subnormal or not finite, fails the condition check.  On it
sit ``mean_curvature_vector`` (the velocity alone), ``scalar_fields`` (H,
|H|^2, |h|^2, det g: the flow's per-step kernel, which projects each second
derivative without forming P = I - jac g^(-1) jac^T) and ``geometry_fields``
(adds P and hvec_ij = P d2F/du_i du_j, for ``point_curvature_field`` and
covariant gradients; h needs no Christoffel term).  Pair sums run row by row,
diagonal first, so n = 1 and n = 2 keep the bits of their closed forms.

Covariant gradients are assembled gauge-free: h is differentiated as an
ambient-vector field and projected, so no smooth normal frame is needed, and
the Christoffel terms use the same second-order metric derivatives that define
them, which makes discrete metric compatibility (nabla g = 0) hold exactly.

Pointwise scalar invariants (|H|^2, |h|^2, ratio, Gauss curvature) never need
a normal frame; frames are only constructed when the frame-adapted tensor
h[i, j, a] itself is requested, from ``point_curvature_field``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateGeometryError, NonFiniteError
from .grid import ParamGrid, pad2, stencil_d1, stencil_d2

__all__ = [
    "DiscreteImmersion",
    "mean_curvature_vector",
    "ScalarFields",
    "scalar_fields",
    "GeometryFields",
    "geometry_fields",
    "normal_frame",
    "point_curvature_field",
    "covariant_gradient_fields",
    "integrate",
    "gauss_curvature_field",
    "save_snapshot",
    "load_snapshot",
    "snapshot_time",
    "SNAPSHOT_MAGIC",
]

SNAPSHOT_MAGIC = "MCFLOW v1"

CONDITION_CAP = 1e12


@dataclass
class DiscreteImmersion:
    """Positions of an immersed grid in R^(n+k) at one time.

    ``wrap_offsets`` maps a periodic parameter axis to the constant ambient
    vector gained when wrapping that axis once (flat cylinder factors).
    """

    grid: ParamGrid
    n: int
    k: int
    positions: np.ndarray
    t: float
    wrap_offsets: Optional[dict[int, np.ndarray]] = None

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        expected = tuple(self.grid.res) + (self.n + self.k,)
        if pos.shape != expected:
            raise ValueError(f"positions shape {pos.shape} != grid shape {expected}")
        if not np.all(np.isfinite(pos)):
            raise NonFiniteError("positions contain non-finite entries")
        if self.grid.ndim != self.n:
            raise ValueError(f"grid dimension {self.grid.ndim} != n = {self.n}")
        if self.wrap_offsets:
            if self.grid.topology == "LatLongSphere" and 0 in self.wrap_offsets:
                raise ValueError("wrap offsets are only meaningful on periodic axes")
            self.wrap_offsets = {
                int(a): np.asarray(v, dtype=float) for a, v in self.wrap_offsets.items()
            }
        self.positions = pos

    @property
    def ambient_dim(self) -> int:
        return self.n + self.k

    def with_positions(self, positions: np.ndarray, t: float) -> "DiscreteImmersion":
        return DiscreteImmersion(grid=self.grid, n=self.n, k=self.k,
                                 positions=positions, t=t,
                                 wrap_offsets=self.wrap_offsets)

    def copy(self) -> "DiscreteImmersion":
        return self.with_positions(self.positions.copy(), self.t)


@dataclass(frozen=True)
class ScalarFields:
    """Per-node curvature scalars and the flow velocity of one extraction."""

    pads: tuple            # per axis a, positions with pad2 ghosts along a
    detg: np.ndarray       # (*res,)
    Hvec: np.ndarray       # (*res, n+k) mean curvature vector
    normH2: np.ndarray     # (*res,)
    normh2: np.ndarray     # (*res,)

    @property
    def normh02(self) -> np.ndarray:
        return self.normh2 - self.normH2 / len(self.pads)

    @property
    def max_ratio(self) -> float:
        """Max over nodes of the pinching ratio |h|^2 / |H|^2 (inf where |H| = 0)."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return float(np.where(self.normH2 > 0, self.normh2 / self.normH2, np.inf).max())


@dataclass(frozen=True)
class GeometryFields(ScalarFields):
    """Vectorised geometry over the whole grid (ambient-valued, frame-free)."""

    jac: np.ndarray        # (*res, n+k, n)
    g: np.ndarray          # (*res, n, n)
    ginv: np.ndarray
    proj: np.ndarray       # (*res, n+k, n+k) normal projector
    hvec: np.ndarray       # (*res, n, n, n+k) ambient-valued SFF


@dataclass(frozen=True)
class _Extraction:
    """The data every front end starts from, as per-node arrays.  Vectors are
    stored components first, (n+k, *res), so that scaling one by a scalar
    field and dotting two are contiguous sweeps.  Index pairs are nested
    lists whose symmetric entries share one array."""

    pads: tuple
    cols: list             # cols[a] = dF/du_a
    g: list                # g[a][b] = cols[a] . cols[b]
    ginv: list
    detg: np.ndarray
    d2: list               # d2[a][b] = d2F/du_a du_b


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Per-node dot product of two components-first vector fields."""
    return np.einsum("x...,x...->...", u, v)


def _square(m: list) -> np.ndarray:
    """Nested n x n list of per-node arrays as one (*res, n, n) array."""
    return np.stack([np.stack(row, axis=-1) for row in m], axis=-2)


def _total(terms):
    """Sum of arrays left to right from the first, each released once added."""
    it = iter(terms)
    out = next(it)
    for term in it:
        out, term = out + term, None
    return out


def _pairs(nd: int) -> list:
    """Index pairs a <= b of n directions, row by row, diagonal first."""
    return [(a, b) for a in range(nd) for b in range(a, nd)]


def _symmetric(nd: int, entry) -> list:
    """Nested n x n list whose entries (a, b) and (b, a) share entry(a, b)."""
    m = [[None] * nd for _ in range(nd)]
    for a, b in _pairs(nd):
        m[a][b] = m[b][a] = entry(a, b)
    return m


def _cofactor(m: list, a: int, b: int):
    """Signed minor of entry (a, b) of a nested list of per-node arrays."""
    d = _det([row[:b] + row[b + 1:] for i, row in enumerate(m) if i != a])
    return -d if (a + b) % 2 else d


def _det(m: list):
    """Determinant by cofactor expansion along the first row; 1 when empty."""
    if len(m) < 2:
        return m[0][0] if m else 1.0
    return _total(m[0][j] * _cofactor(m, 0, j) for j in range(len(m)))


def _metric(cols: list):
    """Metric, inverse and determinant from cofactors, and the condition
    measure tr(g) tr(g^(-1)), between the eigenvalue ratio kappa and
    n^2 kappa; it is infinite unless det g is a positive, finite normal double."""
    nd = len(cols)
    g = _symmetric(nd, lambda a, b: _dot(cols[a], cols[b]))
    cof = _symmetric(nd, lambda a, b: _cofactor(g, a, b))
    detg = _total(g[0][j] * cof[0][j] for j in range(nd))
    # a degenerate metric shows in cond; the divisions may give inf/nan first
    with np.errstate(divide="ignore", invalid="ignore"):
        ginv = _symmetric(nd, lambda a, b: cof[a][b] / detg)
        tr_g, tr_ginv = (_total(m[a][a] for a in range(nd)) for m in (g, ginv))
        cond = np.where((detg >= np.finfo(float).tiny) & (detg < np.inf), tr_g * tr_ginv, np.inf)
    return g, ginv, detg, cond


def _extract(im: DiscreteImmersion) -> _Extraction:
    """The one extraction core: pads, Jacobian, metric with its condition
    check, and the second derivatives of the positions."""
    grid, nd = im.grid, im.n
    pos = np.moveaxis(im.positions, -1, 0)      # the pads copy it components first
    pads = tuple(pad2(grid, pos, a, wrap_offsets=im.wrap_offsets) for a in range(nd))
    cols = [stencil_d1(grid, pos, a, padded=pads[a]) for a in range(nd)]
    g, ginv, detg, cond = _metric(cols)
    worst = float(np.max(cond))
    if not np.isfinite(worst) or worst > CONDITION_CAP:
        raise DegenerateGeometryError(
            f"metric condition number {worst:.3e} exceeds {CONDITION_CAP:.0e}"
        )
    # off the diagonal, d/du_a of dF/du_b (b > a): no wrap offset or pole flip to pad
    d2 = _symmetric(nd, lambda a, b: stencil_d2(grid, pos, a, padded=pads[a]) if a == b
                    else stencil_d1(grid, cols[b], a))
    return _Extraction(pads, cols, g, ginv, detg, d2)


def _normal_part(ext: _Extraction, v: np.ndarray) -> np.ndarray:
    """v - jac g^(-1) jac^T v as a new array, without forming the projector."""
    w = [_dot(col, v) for col in ext.cols]
    out = tmp = None
    for col, row in zip(ext.cols, ext.ginv):
        # sum() starts from the int 0, which turns a -0.0 coefficient into +0.0
        tmp = np.multiply(col, sum(gab * wb for gab, wb in zip(row, w)), out=tmp)
        out = np.subtract(v if out is None else out, tmp, out=out)
    return out


def _isqrt_metric(g: np.ndarray) -> np.ndarray:
    """Inverse principal square root of a stack of SPD metrics, any n."""
    lam, vec = np.linalg.eigh(g)
    return (vec / np.sqrt(lam)[..., None, :]) @ np.swapaxes(vec, -1, -2)


def _scalar_fields(ext: _Extraction) -> ScalarFields:
    nd, gi = len(ext.cols), ext.ginv
    h = _symmetric(nd, lambda a, b: _normal_part(ext, ext.d2[a][b]))
    # U^a_j = g^{ai} h_ij, summed over i in order: H = U^a_a, |h|^2 = U^a_j . U^j_a.
    # Column j's last U^a_j reuses h_0j, its first term, which no later column reads.
    u = [[None] * nd for _ in range(nd)]
    for j in range(nd):
        for a in range(nd):
            u[a][j] = np.multiply(gi[a][0], h[0][j], out=h[0][j] if a == nd - 1 else None)
            for i in range(1, nd):
                u[a][j] += gi[a][i] * h[i][j]
    Hvec = _total(u[a][a] for a in range(nd))
    normh2 = _total(_dot(u[a][b], u[b][a]) if a == b else 2.0 * _dot(u[a][b], u[b][a])
                    for a, b in _pairs(nd))
    return ScalarFields(pads=ext.pads, detg=ext.detg, Hvec=np.moveaxis(Hvec, 0, -1),
                        normH2=_dot(Hvec, Hvec), normh2=normh2)


def scalar_fields(im: DiscreteImmersion) -> ScalarFields:
    """H, |H|^2, |h|^2 and det g over the whole grid: the per-step kernel.

    Each second derivative is projected on its own, so neither the projector
    nor the full second fundamental form tensor is formed.
    """
    return _scalar_fields(_extract(im))


def geometry_fields(im: DiscreteImmersion) -> GeometryFields:
    """Full first and second fundamental data over the whole grid, for the
    frame-adapted field and covariant gradients.  The scalars and H are those of
    :func:`scalar_fields`; hvec_ij = P d2F/du_i du_j adds the projector."""
    ext = _extract(im)
    nd, amb = im.n, im.ambient_dim
    jac = np.stack([np.moveaxis(c, 0, -1) for c in ext.cols], axis=-1)
    ginv = _square(ext.ginv)
    proj = np.eye(amb) - (jac @ ginv) @ np.swapaxes(jac, -1, -2)
    hvec = np.empty(im.grid.res + (nd, nd, amb))
    for a, b in _pairs(nd):
        hvec[..., a, b, :] = hvec[..., b, a, :] = np.einsum("...xy,y...->...x", proj, ext.d2[a][b])
    return GeometryFields(**vars(_scalar_fields(ext)), jac=jac, g=_square(ext.g),
                          ginv=ginv, proj=proj, hvec=hvec)


def mean_curvature_vector(im: DiscreteImmersion) -> np.ndarray:
    """The flow velocity field only: H = P (g^{ij} d2F/du_i du_j).

    Projecting after the trace skips the second fundamental form; this is the
    kernel of the later Runge-Kutta stages.
    """
    ext = _extract(im)
    gi, d2 = ext.ginv, ext.d2
    tr = _total(gi[a][b] * d2[a][b] if a == b else 2.0 * gi[a][b] * d2[a][b]
                for a, b in _pairs(im.n))
    return np.moveaxis(_normal_part(ext, tr), 0, -1)


# ---------------------------------------------------------------------------
# normal frames
# ---------------------------------------------------------------------------

def normal_frame(jac: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the normal space, deterministic convention.

    Takes one Jacobian (n+k, n) or a stack (..., n+k, n) and returns the
    matching (..., n+k, k).  Columns come from a complete orthogonal
    factorisation, sign-fixed so each normal's largest-magnitude component is
    positive; a diagonal entry of R below 1e-13 times the largest Jacobian
    entry (at least 1) is a rank-deficient Jacobian.
    """
    jac = np.asarray(jac, dtype=float)
    n = jac.shape[-1]
    q, r = np.linalg.qr(jac, mode="complete")
    diag = np.abs(np.diagonal(r[..., :n, :n], axis1=-2, axis2=-1))
    if np.any(diag < 1e-13 * max(1.0, np.abs(jac).max())):
        raise DegenerateGeometryError("rank-deficient Jacobian")
    frames = q[..., n:]
    idx = np.argmax(np.abs(frames), axis=-2)
    picked = np.take_along_axis(frames, idx[..., None, :], axis=-2)[..., 0, :]
    return frames * np.where(picked < 0, -1.0, 1.0)[..., None, :]


def point_curvature_field(im: DiscreteImmersion, gf: GeometryFields | None = None):
    """Frame-adapted h[i, j, a] at every node plus the frames used, those of
    :func:`normal_frame` node by node.  Nothing aligns neighbouring frames:
    every quantity built from h[i, j, a] (|H|^2, |h|^2, R1, R2, |R_perp|^2)
    is invariant under an O(k) change of frame at each node."""
    if gf is None:
        gf = geometry_fields(im)
    frames = normal_frame(gf.jac)
    isq = _isqrt_metric(gf.g)
    hadapt = np.einsum("...ip,...jq,...pqx,...xa->...ija", isq, isq, gf.hvec, frames)
    return hadapt, frames


def covariant_gradient_fields(im: DiscreteImmersion,
                              gf: GeometryFields | None = None):
    """(|grad h|^2, |grad H|^2) at every node.

    The tensor being differentiated is ambient-valued, with its normal
    projection taken at the centre node, so no smooth normal frame enters.
    Fourth-order stencils are used for the metric derivatives feeding the
    Christoffel symbols as well: near the poles of a lat-long grid the
    inverse-metric contractions amplify component errors by 1/sin^2(theta)
    per longitude index, and second-order assembly loses two full orders of
    the result there.
    """
    if gf is None:
        gf = geometry_fields(im)
    grid, nd = im.grid, im.n

    sign_g = sign_h = None
    if grid.topology == "LatLongSphere":     # g_ij and h_ij flip once per theta index
        sign_g = np.array([[1.0, -1.0], [-1.0, 1.0]])
        sign_h = sign_g[:, :, None]

    nodes = tuple(range(nd))
    last = tuple(range(-nd, 0))

    def grad(field, sign=None):
        # d/du_a of a (*res, ...) field for every a, as a C-ordered
        # (*res, nd, ...) array, the layout the einsums below have always
        # summed in; the stencils see the field with its node axes last
        lead = np.moveaxis(field, nodes, last)
        out = np.empty(field.shape[:nd] + (nd,) + field.shape[nd:])
        return np.stack([np.moveaxis(stencil_d1(grid, lead, a, theta_sign=sign), last, nodes)
                         for a in range(nd)], axis=nd, out=out)

    dg = grad(gf.g, sign_g)
    # Gamma^l_{di} = 1/2 g^{lm} (d_d g_{mi} + d_i g_{md} - d_m g_{di})
    comb = dg + np.swapaxes(dg, -3, -1) - np.moveaxis(dg, -2, -3)
    gamma = 0.5 * np.einsum("...lm,...dmi->...dli", gf.ginv, comb)

    dh = grad(gf.hvec, sign_h)
    nab_h = (np.einsum("...xy,...dijy->...dijx", gf.proj, dh)
             - np.einsum("...dli,...ljx->...dijx", gamma, gf.hvec)
             - np.einsum("...dlj,...ilx->...dijx", gamma, gf.hvec))
    gradh2 = np.einsum("...da,...ib,...jc,...dijx,...abcx->...",
                       gf.ginv, gf.ginv, gf.ginv, nab_h, nab_h)

    dH = grad(gf.Hvec)
    nab_H = np.einsum("...xy,...dy->...dx", gf.proj, dH)
    gradH2 = np.einsum("...da,...dx,...ax->...", gf.ginv, nab_H, nab_H)
    return gradh2, gradH2


def integrate(im: DiscreteImmersion, field_values, gf: ScalarFields | None = None) -> float:
    """Integral of a nodal scalar field against the induced area measure."""
    if gf is None:
        gf = _extract(im)
    field_values = np.asarray(field_values, dtype=float)
    if field_values.shape != tuple(im.grid.res):
        raise ValueError("field shape does not match the grid")
    return float(np.sum(field_values * np.sqrt(gf.detg)) * im.grid.cell_volume())


def gauss_curvature_field(im: DiscreteImmersion, gf: ScalarFields | None = None) -> np.ndarray:
    """Gauss curvature of a surface (n = 2): half the flat-ambient scalar curvature."""
    if im.n != 2:
        raise ValueError("Gauss curvature requires n = 2")
    if gf is None:
        gf = scalar_fields(im)
    return (gf.normH2 - gf.normh2) / 2.0


# ---------------------------------------------------------------------------
# snapshot files
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return f"{x:.17g}"


# nodes formatted per write of save_snapshot
_SNAPSHOT_BLOCK = 512


def _format_block_fallback(block) -> bytes:
    """A block of nodes formatted by Python's own ``%.17g``, the text the
    kernel's bytes equal."""
    row = " ".join(["%.17g"] * block.shape[1]) + "\n"
    return ((row * len(block)) % tuple(block.ravel().tolist())).encode()


def save_snapshot(im: DiscreteImmersion, path) -> None:
    """Write the line-oriented snapshot format.

    Header: ``MCFLOW v1 n=<n> k=<k> topology=<name> res=<r1>x<r2> t=<float>``;
    a one-direction grid writes ``res=<r1>x1``.  Nonzero wrap offsets append
    optional ``wrap<axis>=<c0>,<c1>,...`` tokens.  Then one node per line in
    row-major order: each of the n+k coordinates formatted by ``%.17g``
    (the same text as ``f"{x:.17g}"``), one space between coordinates and
    ``"\\n"`` after every node, the last one included.

    Nodes are formatted and written a block of rows at a time, so the whole
    file is never held as one string.  A numpy kernel makes each block's
    bytes, exactly those of ``%.17g``: it finds each value's 17 significant
    digits with an exact product against a power of ten and lays out their
    text by table lookups.  A block falls back to Python's ``%`` when one of
    its values lies outside 1e-280 <= |x| < 1e280 (subnormals, NaN and the
    infinities among them) or rounds within 1e-9 of a tie that an inexact
    power of ten leaves open; zeros and flow states stay on the kernel.
    """
    from ._g17 import format_values     # compiled, and its tables built, on first use

    res = im.grid.res
    r1 = res[0]
    r2 = res[1] if len(res) > 1 else 1
    header = (f"{SNAPSHOT_MAGIC} n={im.n} k={im.k} topology={im.grid.topology} "
              f"res={r1}x{r2} t={_fmt(im.t)}")
    if im.wrap_offsets:
        for axis in sorted(im.wrap_offsets):
            vec = ",".join(_fmt(c) for c in im.wrap_offsets[axis])
            header += f" wrap{axis}={vec}"
    flat = im.positions.reshape(-1, im.ambient_dim)
    seps = np.full((min(len(flat), _SNAPSHOT_BLOCK), im.ambient_dim), ord(" "), np.uint8)
    seps[:, -1] = ord("\n")
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for start in range(0, len(flat), _SNAPSHOT_BLOCK):
            block = flat[start:start + _SNAPSHOT_BLOCK]
            text = format_values(block.ravel(), seps[:len(block)].ravel())
            fh.write(_format_block_fallback(block) if text is None else text)


def _read_header(fh, path) -> tuple:
    """(n, k, topology, (r1, r2), t, wraps) from the header line of an open
    snapshot file."""
    header = fh.readline().strip()
    if not header.startswith(SNAPSHOT_MAGIC):
        raise ValueError(f"{path}: not a {SNAPSHOT_MAGIC} snapshot")
    fields = {}
    wraps = {}
    try:
        for token in header[len(SNAPSHOT_MAGIC):].split():
            key, _, value = token.partition("=")
            if key.startswith("wrap"):
                wraps[int(key[4:])] = np.array([float(c) for c in value.split(",")])
            else:
                fields[key] = value
        n, k = int(fields["n"]), int(fields["k"])
        topology = fields["topology"]
        r1, r2 = (int(r) for r in fields["res"].split("x"))
        t = float(fields["t"])
    except (KeyError, ValueError) as exc:
        raise ValueError(f"{path}: malformed snapshot header {header!r}") from exc
    return n, k, topology, (r1, r2), t, wraps


def snapshot_time(path) -> float:
    """The time in a snapshot file's header, read without its node block."""
    with open(path) as fh:
        return _read_header(fh, path)[4]


def load_snapshot(path) -> DiscreteImmersion:
    """Read a snapshot file written by :func:`save_snapshot`."""
    with open(path) as fh:
        n, k, topology, (r1, r2), t, wraps = _read_header(fh, path)
        res = (r1,) if topology == "Circle" else (r1, r2)
        grid = ParamGrid(topology=topology, res=res)
        data = np.loadtxt(fh, ndmin=2)
    expected = (grid.node_count(), n + k)
    if data.shape != expected:
        raise ValueError(f"{path}: node block shape {data.shape} != {expected}")
    positions = data.reshape(grid.res + (n + k,))
    return DiscreteImmersion(grid=grid, n=n, k=k, positions=positions, t=t,
                             wrap_offsets=wraps or None)
