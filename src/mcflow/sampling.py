"""Seeded random generation of second fundamental form tensors.

Plain samples are i.i.d. standard normal entries symmetrised in (i, j).
Pinched families are built constructively — an umbilic part plus a traceless
part scaled under the pinching cap — and every sample is then re-verified
against the exact inequality, with violators rejected.  Pure rejection from
the raw normal distribution is hopeless here: strong pinching confines |h0|^2
to a sliver whose acceptance probability is effectively zero for the sample
counts the suites need.

Plain and pinched batches are built in place, in the array the generator
fills: no step makes a second array of the batch's size.  The
sphere-background batches are built the same way, then rotated sample-last
in two buffers of the batch's size, so their peak is about two and a half
batches.  A sampler given ``out``, a flat float64 buffer of a batch's size
that the caller draws every batch into, fills its leading entries where it
would allocate a batch: the draw is the same, and the tensors returned are
views of ``out`` that last until the next draw into it.

All samplers take an explicit ``numpy.random.Generator``; suites derive their
generators from a recorded base seed so every report is reproducible.
"""

from __future__ import annotations

import numpy as np

from .curvature import batch_mean_vector

__all__ = [
    "generator",
    "symmetric_tensors",
    "pinched_tensors",
    "pinched_cap",
    "sphere_pinched_tensors",
    "random_rotations",
    "rotate_tensors",
]


def generator(seed: int, *subkeys: int) -> np.random.Generator:
    """Deterministic child generator for a (seed, shard...) tuple."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(s) for s in subkeys))
    return np.random.Generator(np.random.PCG64(ss))


# samples per block of the in-place symmetrisation
_BLOCK = 1024


def symmetric_tensors(rng: np.random.Generator, count: int, n: int, k: int,
                      out=None) -> np.ndarray:
    """i.i.d. standard normal entries, symmetrised in (i, j); shape (count, n, n, k).

    The draw is symmetrised in place, in the array the generator fills, one
    block of samples at a time: each entry becomes (a_ij + a_ji) / 2, and
    the only temporary is one block's a + a^T.
    """
    h = rng.standard_normal(out=_array((count, n, n, k), out))
    for start in range(0, count, _BLOCK):
        b = h[start:start + _BLOCK]
        np.divide(b + b.transpose(0, 2, 1, 3), 2.0, out=b)
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
                    ratio_bound: float, out=None) -> np.ndarray:
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
    # h0, then h, is the generator's array, updated on one diagonal entry
    # (a basic slice) at a time: the same elementwise arithmetic as
    # batch_traceless and h0 * scale + eye * hvec / n, where the identity is
    # nonzero.  scale and hvec are built in place in u and hdir.
    h0 = symmetric_tensors(rng, count, n, k, out)
    mean = batch_mean_vector(h0) / n
    for i in range(n):
        h0[:, i, i, :] -= mean
    del mean    # freed before the side arrays are drawn: it is (count, k)
    hmag = _magnitudes(rng, count)
    hdir = rng.standard_normal((count, k))
    hdir /= np.linalg.norm(hdir, axis=1, keepdims=True)
    u = rng.uniform(0.0, 1.0, count)
    h0n = np.sqrt(np.einsum("bija,bija->b", h0, h0))
    h0n[h0n == 0] = 1.0
    scale = np.sqrt(np.multiply(u, cap, out=u), out=u)
    scale *= hmag
    scale /= h0n
    hvec = np.multiply(hdir, hmag[:, None], out=hdir)
    hvec /= n
    h = h0
    h *= scale[:, None, None, None]
    for i in range(n):
        h[:, i, i, :] += hvec
    normh2 = np.einsum("bija,bija->b", h, h)
    hv = batch_mean_vector(h)
    normH2 = np.einsum("ba,ba->b", hv, hv)
    keep = normh2 <= ratio_bound * normH2 * (1.0 + 1e-12)
    return h if keep.all() else h[keep]


def sphere_pinched_tensors(rng: np.random.Generator, count: int, n: int, k: int,
                           h0sq_cap, out=None) -> np.ndarray:
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

    # adapted-frame construction: diagonal first slice, traceless others; the
    # others are made traceless in the generator's array, on the identity
    # entries only, as pinched_tensors does
    diag = rng.standard_normal((count, n))
    diag -= diag.mean(axis=1, keepdims=True)
    h = np.zeros((count, n, n, k))
    h[:, np.arange(n), np.arange(n), 0] = diag
    del diag
    if k > 1:
        rest = symmetric_tensors(rng, count, n, k - 1, out)
        mean = batch_mean_vector(rest) / n
        for i in range(n):
            rest[:, i, i, :] -= mean
        del mean
        h[:, :, :, 1:] = rest
        del rest
    h0n2 = np.einsum("bija,bija->b", h, h)
    h0n2[h0n2 == 0] = 1.0
    cap = np.asarray(h0sq_cap(normH2), dtype=float)
    u = rng.uniform(0.0, 1.0, count)
    h *= np.sqrt(u * cap / h0n2)[:, None, None, None]
    h[:, np.arange(n), np.arange(n), 0] += hmag[:, None] / n

    # the batch-last copies replace h and the rotations, and the products
    # reuse h's buffer; with ``out``, h's copy and the result are made there
    h = _moved(h, 0, -1, out)
    o_tan = _moved(random_rotations(rng, count, n), 0, -1)
    o_nor = _moved(random_rotations(rng, count, k), 0, -1)
    h = _rotate_batch_last(h, o_tan, o_nor)
    return _moved(h, -1, 0, out)


def random_rotations(rng: np.random.Generator, count: int, d: int) -> np.ndarray:
    """Haar-distributed orthogonal matrices, shape (count, d, d)."""
    if d == 1:
        return np.ones((count, 1, 1))
    a = rng.standard_normal((count, d, d))
    q, r = np.linalg.qr(a)
    sign = np.sign(np.einsum("bii->bi", r))
    sign[sign == 0] = 1.0
    return q * sign[:, None, :]


def _array(shape, out=None) -> np.ndarray:
    """A float64 array of ``shape``: the leading entries of ``out``, or new."""
    return np.empty(shape) if out is None else out[:int(np.prod(shape))].reshape(shape)


def _moved(a: np.ndarray, src: int, dst: int, out=None) -> np.ndarray:
    """A C-contiguous copy of ``a`` with axis ``src`` moved to ``dst``: with
    the sample axis 0 moved last (-1), or back."""
    a = np.moveaxis(a, src, dst)
    copy = _array(a.shape, out)
    np.copyto(copy, a)
    return copy


def _rotate_batch_last(hz: np.ndarray, o_t: np.ndarray, o_n: np.ndarray) -> np.ndarray:
    """The products of :func:`rotate_tensors` on batch-last copies of h,
    (n, n, k, count), and of the rotations.  ``hz``'s buffer takes the
    second product; the result, batch-last, takes the first one's."""
    t = np.einsum("pqaz,abz->pqbz", hz, o_n)
    s = np.einsum("ipz,pqbz->iqbz", o_t, t, out=hz)
    return np.einsum("jqz,iqbz->ijbz", o_t, s, out=t)


def rotate_tensors(h: np.ndarray, o_tan: np.ndarray, o_nor: np.ndarray) -> np.ndarray:
    """Apply tangent rotation O and normal rotation U: h'_{ijb} = O_ip O_jq U_ab h_{pqa}.

    Contracted as three two-operand products: the normal factor first, then
    the first and the second tangent factor, about (n^3 k + n^2 k^2) work per
    sample instead of the n^4 k^2 of one four-operand loop.  The sample axis
    is moved last so that each product's inner loop runs over the batch;
    the products take turns in two buffers of the batch's size.
    """
    return _moved(_rotate_batch_last(_moved(h, 0, -1), _moved(o_tan, 0, -1),
                                     _moved(o_nor, 0, -1)), -1, 0)
