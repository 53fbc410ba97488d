"""Seeded samplers: constraint satisfaction and reproducibility."""

import tracemalloc

import numpy as np
import pytest

from mcflow.curvature import batch_mean_vector, batch_scalars, batch_traceless
from mcflow.sampling import (
    _BLOCK as BLOCK,
    generator,
    pinched_cap,
    pinched_tensors,
    random_rotations,
    sphere_pinched_tensors,
    symmetric_tensors,
)


class TestGenerators:
    def test_same_key_same_stream(self):
        a = generator(42, 3, 2, 1).standard_normal(5)
        b = generator(42, 3, 2, 1).standard_normal(5)
        assert np.array_equal(a, b)

    def test_different_shards_differ(self):
        a = generator(42, 3, 2, 1).standard_normal(5)
        b = generator(42, 3, 2, 2).standard_normal(5)
        assert not np.array_equal(a, b)


class TestSymmetricTensors:
    def test_symmetry_and_shape(self):
        h = symmetric_tensors(generator(1, 0), 10, 4, 3)
        assert h.shape == (10, 4, 4, 3)
        assert np.array_equal(h, h.transpose(0, 2, 1, 3))


class TestPinchedTensors:
    @pytest.mark.parametrize("n,k", [(2, 1), (3, 4), (4, 2)])
    def test_constraint_satisfied(self, n, k):
        bound = 4.0 / (3.0 * n) - 0.01
        h = pinched_tensors(generator(5, n, k), 5000, n, k, bound)
        normH2, normh2, _ = batch_scalars(h)
        assert normH2.min() > 0
        assert (normh2 <= bound * normH2 * (1 + 1e-12)).all()
        # the sampler fills the cap: ratios spread over [1/n, bound]
        ratio = normh2 / normH2
        assert ratio.max() > bound - 0.3 * (bound - 1.0 / n)
        assert ratio.min() < 1.0 / n + 0.1 * (bound - 1.0 / n)

    def test_infeasible_cap_rejected(self):
        assert pinched_cap(4, 1.0 / 3 - 0.1) <= 0
        with pytest.raises(ValueError):
            pinched_tensors(generator(5, 9), 10, 4, 1, 1.0 / 3 - 0.1)


def reference_symmetric(rng, count, n, k):
    """symmetric_tensors as first written, one expression per step."""
    a = rng.standard_normal((count, n, n, k))
    return (a + a.transpose(0, 2, 1, 3)) / 2.0


def reference_pinched(rng, count, n, k, ratio_bound):
    """pinched_tensors as first written, with full identity-times-vector
    arrays for the trace parts and a copy through the keep mask."""
    cap = pinched_cap(n, ratio_bound)
    h0 = batch_traceless(reference_symmetric(rng, count, n, k))
    hmag = np.exp(rng.normal(0.0, 0.5, count))
    hdir = rng.standard_normal((count, k))
    hdir /= np.linalg.norm(hdir, axis=1, keepdims=True)
    u = rng.uniform(0.0, 1.0, count)
    h0n = np.sqrt(np.einsum("bija,bija->b", h0, h0))
    h0n[h0n == 0] = 1.0
    scale = np.sqrt(u * cap) * hmag / h0n
    hvec = hdir * hmag[:, None]
    h = (h0 * scale[:, None, None, None]
         + np.eye(n)[None, :, :, None] * hvec[:, None, None, :] / n)
    normh2 = np.einsum("bija,bija->b", h, h)
    hv = batch_mean_vector(h)
    normH2 = np.einsum("ba,ba->b", hv, hv)
    keep = normh2 <= ratio_bound * normH2 * (1.0 + 1e-12)
    return h[keep]


def fancy_index_pinched(rng, count, n, k, ratio_bound):
    """pinched_tensors with the diagonal gathered and scattered through
    fancy indexing, each step making a (count, n, k) copy."""
    cap = pinched_cap(n, ratio_bound)
    d = np.arange(n)
    h0 = reference_symmetric(rng, count, n, k)
    h0[:, d, d, :] -= batch_mean_vector(h0)[:, None, :] / n
    hmag = np.exp(rng.normal(0.0, 0.5, count))
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


def assert_same_bits(seed, count, n, k):
    bound = 4.0 / (3.0 * n) - 0.01
    got = symmetric_tensors(generator(seed, n, k), count, n, k)
    want = reference_symmetric(generator(seed, n, k), count, n, k)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    got = pinched_tensors(generator(seed, n, k), count, n, k, bound)
    for reference in (reference_pinched, fancy_index_pinched):
        want = reference(generator(seed, n, k), count, n, k, bound)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def reference_rotate(h, o_tan, o_nor):
    """rotate_tensors as first written in three products, with a fresh
    buffer for the second one."""
    def batch_last(a):
        return np.ascontiguousarray(np.moveaxis(a, 0, -1))

    o_t = batch_last(o_tan)
    t = np.einsum("pqaz,abz->pqbz", batch_last(h), batch_last(o_nor))
    s = np.einsum("ipz,pqbz->iqbz", o_t, t)
    r = np.einsum("jqz,iqbz->ijbz", o_t, s, out=t)
    return np.ascontiguousarray(np.moveaxis(r, -1, 0))


def reference_sphere_pinched(rng, count, n, k, h0sq_cap):
    """sphere_pinched_tensors as first written: a zero batch, a traceless
    copy of the other slices' draw, and the rotation on a copy of h."""
    hmag = np.exp(rng.normal(0.0, 0.5, count))
    normH2 = hmag ** 2
    diag = rng.standard_normal((count, n))
    diag -= diag.mean(axis=1, keepdims=True)
    h = np.zeros((count, n, n, k))
    h[:, np.arange(n), np.arange(n), 0] = diag
    if k > 1:
        h[:, :, :, 1:] = batch_traceless(reference_symmetric(rng, count, n, k - 1))
    h0n2 = np.einsum("bija,bija->b", h, h)
    h0n2[h0n2 == 0] = 1.0
    cap = np.asarray(h0sq_cap(normH2), dtype=float)
    u = rng.uniform(0.0, 1.0, count)
    h *= np.sqrt(u * cap / h0n2)[:, None, None, None]
    h[:, np.arange(n), np.arange(n), 0] += hmag[:, None] / n
    o_tan = random_rotations(rng, count, n)
    o_nor = random_rotations(rng, count, k)
    return reference_rotate(h, o_tan, o_nor)


class TestSamplersMatchReference:
    """The in-place samplers return the references' bits, sample for sample."""

    @pytest.mark.parametrize("n", range(2, 7))
    @pytest.mark.parametrize("k", range(1, 5))
    def test_bit_identical(self, n, k):
        for seed in range(3):
            assert_same_bits(seed, 5003, n, k)

    # one sample, and counts that end just past the first and second seam
    # of the symmetrised blocks
    @pytest.mark.parametrize("count", [1, BLOCK + 3, 2 * BLOCK + 1])
    def test_bit_identical_across_block_seams(self, count):
        for n in range(2, 7):
            for k in range(1, 5):
                assert_same_bits(count, count, n, k)

    @pytest.mark.parametrize("n,k", [(5, 4), (4, 1), (2, 3), (6, 2)])
    @pytest.mark.parametrize("count", [1, 7, 3001])
    def test_sphere_pinched_bit_identical(self, n, k, count):
        cap = lambda H2: H2 / (n * (n - 1)) + 2.0
        got = sphere_pinched_tensors(generator(count, n, k), count, n, k, cap)
        want = reference_sphere_pinched(generator(count, n, k), count, n, k, cap)
        assert got.shape == want.shape and got.flags.c_contiguous
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def draw_both(sample, seed, count, n, k):
    """``sample(rng, count, n, k, out)`` without and with a draw buffer (one
    that already holds other values), each followed by the generator's next
    draw."""
    plain_rng, buf_rng = generator(seed, n, k), generator(seed, n, k)
    plain = sample(plain_rng, count, n, k, None)
    buf = np.full(count * n * n * k + 11, np.nan)
    drawn = sample(buf_rng, count, n, k, buf)
    return (plain, plain_rng.standard_normal(5)), (drawn, buf_rng.standard_normal(5)), buf


SAMPLERS = {
    "symmetric": symmetric_tensors,
    "pinched": lambda rng, count, n, k, out: pinched_tensors(
        rng, count, n, k, 4.0 / (3.0 * n) - 0.01, out),
    "sphere-pinched": lambda rng, count, n, k, out: sphere_pinched_tensors(
        rng, count, n, k, lambda H2: H2 / (n * (n - 1)) + 2.0, out),
}


class TestDrawBuffer:
    """A sampler given a draw buffer returns the bits it returns without one,
    and leaves the generator where it leaves it."""

    @pytest.mark.parametrize("name", list(SAMPLERS))
    @pytest.mark.parametrize("n,k", [(2, 1), (3, 4), (4, 1), (5, 2)])
    @pytest.mark.parametrize("count", [1, 7, BLOCK + 3, 2 * BLOCK + 1])
    def test_same_bits_and_stream(self, name, n, k, count):
        (plain, plain_next), (drawn, buf_next), _ = draw_both(SAMPLERS[name], count, count, n, k)
        assert drawn.shape == plain.shape and drawn.flags.c_contiguous
        assert np.array_equal(drawn.view(np.int64), plain.view(np.int64))
        assert np.array_equal(buf_next, plain_next)

    @pytest.mark.parametrize("name", ["symmetric", "sphere-pinched"])
    def test_result_is_a_view_of_the_buffer(self, name):
        _, (drawn, _), buf = draw_both(SAMPLERS[name], 3, 500, 4, 3)
        assert np.shares_memory(drawn, buf)


class TestSamplerMemory:
    """Each batch is built in the array the generator fills: the traced peak
    stays near the result's size, where a copy of the batch would double it."""

    @staticmethod
    def peak_over_result(draw):
        tracemalloc.start()
        try:
            h = draw(generator(12, 4, 4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / h.nbytes

    def test_pinched_tensors_peak(self):
        ratio = self.peak_over_result(
            lambda rng: pinched_tensors(rng, 50_000, 4, 4, 4.0 / 12.0 - 0.01))
        assert ratio <= 1.3

    def test_symmetric_tensors_peak(self):
        ratio = self.peak_over_result(lambda rng: symmetric_tensors(rng, 50_000, 4, 4))
        assert ratio <= 1.15

    def test_sphere_pinched_tensors_peak(self):
        # the traceless slices are made in their draw, which is freed once
        # copied into h, and the rotation runs in h's batch-last copy and one
        # more buffer: about 2.5 batches, where the first version took 5.5
        ratio = self.peak_over_result(
            lambda rng: sphere_pinched_tensors(rng, 20_000, 5, 4, lambda H2: H2 / 20.0 + 2.0))
        assert ratio <= 3.0


class TestSpherePinched:
    def test_cap_respected_after_rotation(self):
        rng = generator(6, 0)
        n, k, K = 5, 3, 1.0
        cap = lambda H2: H2 / (n * (n - 1)) + 2.0 * K
        h = sphere_pinched_tensors(rng, 4000, n, k, cap)
        normH2, normh2, _ = batch_scalars(h)
        h02 = normh2 - normH2 / n
        assert (h02 <= cap(normH2) * (1 + 1e-10)).all()


class TestRotations:
    def test_orthogonality(self):
        q = random_rotations(generator(8, 0), 50, 4)
        eye = np.einsum("bij,bkj->bik", q, q)
        assert np.abs(eye - np.eye(4)).max() <= 1e-12
