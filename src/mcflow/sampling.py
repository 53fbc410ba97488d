"""Seeded random generation of second fundamental form tensors.

Plain samples are i.i.d. standard normal entries symmetrised in (i, j).
Pinched families are built constructively — an umbilic part plus a traceless
part scaled under the pinching cap — and every sample is then re-verified
against the exact inequality, with violators rejected.  Pure rejection from
the raw normal distribution is hopeless here: strong pinching confines |h0|^2
to a sliver whose acceptance probability is effectively zero for the sample
counts the suites need.

All samplers take an explicit ``numpy.random.Generator``; suites derive their
generators from a recorded base seed so every report is reproducible.
"""

from __future__ import annotations

import numpy as np

from .curvature import PointCurvature, batch_mean_vector, batch_traceless

__all__ = [
    "generator",
    "symmetric_tensors",
    "pinched_tensors",
    "pinched_cap",
    "sphere_pinched_tensors",
    "random_rotations",
    "rotate_tensors",
    "rotate_point",
]


def generator(seed: int, *subkeys: int) -> np.random.Generator:
    """Deterministic child generator for a (seed, shard...) tuple."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(s) for s in subkeys))
    return np.random.Generator(np.random.PCG64(ss))


def symmetric_tensors(rng: np.random.Generator, count: int, n: int, k: int) -> np.ndarray:
    """i.i.d. standard normal entries, symmetrised in (i, j); shape (count, n, n, k)."""
    a = rng.standard_normal((count, n, n, k))
    h = a + a.transpose(0, 2, 1, 3)
    h /= 2.0
    return h


def pinched_cap(n: int, ratio_bound: float) -> float:
    """Allowed |h0|^2 / |H|^2 under |h|^2 <= ratio_bound * |H|^2.

    Negative means the constraint set is empty (|h|^2 >= |H|^2 / n always).
    """
    return ratio_bound - 1.0 / n


def _magnitudes(rng: np.random.Generator, count: int) -> np.ndarray:
    # lognormal |H| keeps samples spread over a couple of decades
    return np.exp(rng.normal(0.0, 0.5, count))


def pinched_tensors(rng: np.random.Generator, count: int, n: int, k: int,
                    ratio_bound: float) -> np.ndarray:
    """Samples with |H| > 0 and |h|^2 <= ratio_bound * |H|^2 (strict a.s.).

    The traceless part is drawn isotropically and scaled to a uniform fraction
    of the cap; u = 0 (umbilic) is included in the closure.  Raises if the cap
    is empty.  Each batch is verified against the exact inequality before
    being returned.
    """
    cap = pinched_cap(n, ratio_bound)
    if cap <= 0:
        raise ValueError(
            f"pinching |h|^2 <= {ratio_bound} |H|^2 is infeasible for n={n} "
            f"(requires ratio_bound > 1/n)"
        )
    # h0 and then h are built in place; each step is the same elementwise
    # arithmetic as batch_traceless and h0 * scale + eye * hvec / n, done on
    # the diagonal only, where the identity is nonzero
    d = np.arange(n)
    h0 = symmetric_tensors(rng, count, n, k)
    h0[:, d, d, :] -= batch_mean_vector(h0)[:, None, :] / n
    hmag = _magnitudes(rng, count)
    hdir = rng.standard_normal((count, k))
    hdir /= np.linalg.norm(hdir, axis=1, keepdims=True)
    u = rng.uniform(0.0, 1.0, count)
    h0n = np.sqrt(np.einsum("bija,bija->b", h0, h0))
    h0n[h0n == 0] = 1.0
    scale = np.sqrt(u * cap) * hmag / h0n
    hvec = hdir * hmag[:, None]
    h = h0
    h *= scale[:, None, None, None]
    h[:, d, d, :] += hvec[:, None, :] / n
    normh2 = np.einsum("bija,bija->b", h, h)
    hv = batch_mean_vector(h)
    normH2 = np.einsum("ba,ba->b", hv, hv)
    keep = normh2 <= ratio_bound * normH2 * (1.0 + 1e-12)
    return h if keep.all() else h[keep]


def sphere_pinched_tensors(rng: np.random.Generator, count: int, n: int, k: int,
                           h0sq_cap) -> np.ndarray:
    """Samples built in the adapted frame, then randomly rotated.

    The first slice is a random diagonal with trace |H| (so the mean curvature
    points along the first normal before rotation); remaining slices are
    random traceless tensors.  The whole traceless part is scaled so that
    |h0|^2 = u * h0sq_cap(|H|^2) with u uniform in (0, 1).  ``h0sq_cap`` maps
    the squared mean curvature to the sample's |h0|^2 budget; affine caps of
    the form alpha |H|^2 + beta cover every pinching hypothesis used by the
    spherical-background suites.
    """
    hmag = _magnitudes(rng, count)
    normH2 = hmag ** 2

    # adapted-frame construction: diagonal first slice, traceless others
    diag = rng.standard_normal((count, n))
    diag -= diag.mean(axis=1, keepdims=True)
    h = np.zeros((count, n, n, k))
    h[:, np.arange(n), np.arange(n), 0] = diag
    if k > 1:
        rest = batch_traceless(symmetric_tensors(rng, count, n, k - 1))
        h[:, :, :, 1:] = rest
    h0n2 = np.einsum("bija,bija->b", h, h)
    h0n2[h0n2 == 0] = 1.0
    cap = np.asarray(h0sq_cap(normH2), dtype=float)
    u = rng.uniform(0.0, 1.0, count)
    h *= np.sqrt(u * cap / h0n2)[:, None, None, None]
    h[:, np.arange(n), np.arange(n), 0] += hmag[:, None] / n

    o_tan = random_rotations(rng, count, n)
    o_nor = random_rotations(rng, count, k)
    return rotate_tensors(h, o_tan, o_nor)


def random_rotations(rng: np.random.Generator, count: int, d: int) -> np.ndarray:
    """Haar-distributed orthogonal matrices, shape (count, d, d)."""
    if d == 1:
        return np.ones((count, 1, 1))
    a = rng.standard_normal((count, d, d))
    q, r = np.linalg.qr(a)
    sign = np.sign(np.einsum("bii->bi", r))
    sign[sign == 0] = 1.0
    return q * sign[:, None, :]


def rotate_tensors(h: np.ndarray, o_tan: np.ndarray, o_nor: np.ndarray) -> np.ndarray:
    """Apply tangent rotation O and normal rotation U: h'_{ijb} = O_ip O_jq U_ab h_{pqa}.

    Contracted as three two-operand products: the normal factor first, then
    the first and the second tangent factor, about (n^3 k + n^2 k^2) work per
    sample instead of the n^4 k^2 of one four-operand loop.  The sample axis
    is moved last so that each product's inner loop runs over the batch, and
    the last product reuses the first one's buffer.
    """
    def batch_last(a):
        return np.ascontiguousarray(np.moveaxis(a, 0, -1))

    o_t = batch_last(o_tan)
    t = np.einsum("pqaz,abz->pqbz", batch_last(h), batch_last(o_nor))
    s = np.einsum("ipz,pqbz->iqbz", o_t, t)
    r = np.einsum("jqz,iqbz->ijbz", o_t, s, out=t)
    return np.ascontiguousarray(np.moveaxis(r, -1, 0))


def rotate_point(pc: PointCurvature, o_tan: np.ndarray, o_nor: np.ndarray) -> PointCurvature:
    """Rotate one point tensor with the convention of :func:`rotate_tensors`."""
    return PointCurvature(rotate_tensors(pc.h[None], o_tan[None], o_nor[None])[0])
