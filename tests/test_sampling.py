"""Seeded samplers: constraint satisfaction and reproducibility."""

import numpy as np
import pytest

from mcflow.curvature import batch_mean_vector, batch_scalars, batch_traceless
from mcflow.sampling import (
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


class TestSamplersMatchReference:
    """The in-place samplers return the reference's bits, sample for sample."""

    @pytest.mark.parametrize("n", range(2, 7))
    @pytest.mark.parametrize("k", range(1, 5))
    def test_bit_identical(self, n, k):
        bound = 4.0 / (3.0 * n) - 0.01
        for seed in range(3):
            got = symmetric_tensors(generator(seed, n, k), 5003, n, k)
            want = reference_symmetric(generator(seed, n, k), 5003, n, k)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
            got = pinched_tensors(generator(seed, n, k), 5003, n, k, bound)
            want = reference_pinched(generator(seed, n, k), 5003, n, k, bound)
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


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
