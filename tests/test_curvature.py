"""Pointwise curvature algebra: worked examples and algebraic invariants.

Reference values are hand evaluations on the round sphere (h = identity,
|H|^2 = n^2, |h|^2 = n) and the cylinder point h = diag(1, 0).
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mcflow import cn
from mcflow.curvature import (
    _REACTION_BLOCK as BLOCK,
    batch_adapted_split,
    batch_gauss_operator,
    batch_normal_curvature,
    batch_reaction_estimate_gap,
    batch_reaction_terms,
    batch_scalars,
    batch_traceless,
)
from mcflow.errors import MinimalPointError
from mcflow.sampling import (
    generator,
    pinched_tensors,
    random_rotations,
    rotate_tensors,
    symmetric_tensors,
)
from mcflow.verify import _lemma31


def sphere_point(n=2, k=1):
    """Round unit sphere: h = identity along the first normal."""
    h = np.zeros((n, n, k))
    h[:, :, 0] = np.eye(n)
    return h


def cylinder_point():
    return np.diag([1.0, 0.0])[:, :, None]


def point_scalars(h):
    """(|H|^2, |h|^2, |h0|^2) of one tensor, as row 0 of the batch kernel."""
    return tuple(float(x[0]) for x in batch_scalars(h[None]))


def point_reaction_terms(h):
    """(R1, R2) of one tensor, as row 0 of the batch kernel."""
    return tuple(float(x[0]) for x in batch_reaction_terms(h[None]))


def operator_eigenvalues(h):
    return np.linalg.eigvalsh(batch_gauss_operator(h[None])[0])


def rperp_norm_sq(h):
    return float((batch_normal_curvature(h[None]) ** 2).sum())


class TestScalars:
    def test_round_sphere(self):
        normH2, normh2, normh02 = point_scalars(sphere_point())
        assert normH2 == 4.0
        assert normh2 == 2.0
        assert normh02 == 0.0
        assert normH2 - normh2 == 2.0      # scalar curvature
        assert normh2 / normH2 == 0.5

    def test_cylinder_point(self):
        normH2, normh2, normh02 = point_scalars(cylinder_point())
        assert normH2 == 1.0
        assert normh2 == 1.0
        assert normh02 == 0.5
        assert normH2 - normh2 == 0.0
        assert normh2 / normH2 == 1.0

    def test_zero_tensor_has_undefined_ratio(self):
        normH2, normh2, _ = point_scalars(np.zeros((3, 3, 2)))
        # |h|^2 / |H|^2 has a zero denominator
        assert normH2 == normh2 == normH2 - normh2 == 0.0

    def test_traceless_split_is_exact(self, rng):
        h = symmetric_tensors(rng, 50, 3, 2)
        normH2, normh2, normh02 = batch_scalars(h)
        assert np.array_equal(normh02, normh2 - normH2 / 3)


class TestTraceless:
    def test_umbilic_maps_to_zero(self):
        out = batch_traceless(sphere_point(3)[None])[0]
        assert np.all(out == 0.0)

    def test_cylinder_point(self):
        out = batch_traceless(cylinder_point()[None])[0]
        assert np.allclose(out[:, :, 0], np.diag([0.5, -0.5]), atol=0)

    def test_random_slices_have_zero_trace(self, rng):
        h = symmetric_tensors(rng, 100, 4, 3)
        for sample in h[:10]:
            out = batch_traceless(sample[None])[0]
            scale = max(1.0, np.abs(sample).max())
            assert np.abs(np.trace(out)).max() <= 1e-12 * scale
            back = out + np.eye(4)[:, :, None] * np.einsum("iia->a", sample) / 4
            assert np.abs(back - sample).max() <= 1e-15 * scale


class TestNormalCurvature:
    def test_codimension_one_vanishes(self, rng):
        h = symmetric_tensors(rng, 20, 3, 1)
        rp = batch_normal_curvature(h)
        assert np.all(rp == 0.0)

    def test_commuting_slices_vanish(self):
        h = np.zeros((3, 3, 2))
        h[:, :, 0] = np.diag([1.0, 2.0, 3.0])
        h[:, :, 1] = np.diag([-1.0, 0.5, 2.0])
        assert rperp_norm_sq(h) == 0.0

    def test_antisymmetries(self, rng):
        h = symmetric_tensors(rng, 1, 4, 3)
        rp = batch_normal_curvature(h)[0]
        assert np.abs(rp + rp.transpose(1, 0, 2, 3)).max() == 0.0
        assert np.abs(rp + rp.transpose(0, 1, 3, 2)).max() == 0.0

    def test_full_tensor_equals_traceless_computation(self, rng):
        # the umbilic part drops out of the commutators
        h = symmetric_tensors(rng, 30, 3, 3)
        from_h0 = batch_normal_curvature(h)
        raw = np.einsum("bipa,bjpc->bijac", h, h)
        from_h = raw - raw.transpose(0, 2, 1, 3, 4)
        assert np.abs(from_h0 - from_h).max() <= 1e-12 * max(1.0, np.abs(from_h).max())


class TestGaussOperator:
    def test_round_sphere_is_identity_on_bivectors(self):
        mat = batch_gauss_operator(sphere_point(3)[None])[0]
        assert np.allclose(mat, np.eye(3), atol=1e-15)
        assert operator_eigenvalues(sphere_point(3))[0] == pytest.approx(1.0)

    def test_flat_cylinder_point(self):
        mat = batch_gauss_operator(cylinder_point()[None])[0]
        assert mat.shape == (1, 1)
        assert mat[0, 0] == 0.0

    def test_trace_is_half_scalar_curvature(self, rng):
        h = symmetric_tensors(rng, 50, 4, 2)
        mats = batch_gauss_operator(h)
        normH2, normh2, _ = batch_scalars(h)
        sc = normH2 - normh2
        tr = np.trace(mats, axis1=-2, axis2=-1)
        assert np.abs(2 * tr - sc).max() <= 1e-12 * np.abs(sc).max()

    def test_space_form_shift(self):
        op0 = batch_gauss_operator(sphere_point(3)[None], ambient_k=0.0)[0]
        op1 = batch_gauss_operator(sphere_point(3)[None], ambient_k=2.5)[0]
        assert np.allclose(op1 - op0, 2.5 * np.eye(3))

    def test_pinched_samples_have_pinched_operator(self, rng):
        # strict pinching below 1/(n-1) forces a positive operator gap
        eps = 0.05
        for n in (2, 3, 4):
            h = pinched_tensors(rng, 2000, n, 2, 1.0 / (n - 1) - eps)
            normH2, normh2, _ = batch_scalars(h)
            min_eig = np.linalg.eigvalsh(batch_gauss_operator(h))[:, 0]
            worst = (min_eig - eps / 2 * normH2 + 1e-9 * normh2).min()
            assert worst >= 0.0, f"operator pinching failed at n={n}: {worst}"


class TestReactionTerms:
    def test_round_sphere_values(self):
        r1, r2 = point_reaction_terms(sphere_point())
        assert (r1, r2) == (4.0, 8.0)
        assert r1 - (2.0 / 3.0) * r2 == pytest.approx(-4.0 / 3.0)

    def test_zero(self):
        assert point_reaction_terms(np.zeros((3, 3, 2))) == (0.0, 0.0)

    def test_nonnegative(self, rng):
        r1, r2 = batch_reaction_terms(symmetric_tensors(rng, 500, 3, 3))
        assert r1.min() >= 0.0 and r2.min() >= 0.0

    def test_r1_decomposition_matches_normal_curvature(self, rng):
        # R1 = |C|^2 + |Rp|^2 evaluated exactly from the index formulas; the
        # kernel's fixed-order sums stay within ULPS rounding units of it
        for n, k, count in ((3, 3, 100), (6, 2, 10), (6, 4, 5)):
            h = symmetric_tensors(rng, count, n, k)
            r1, _ = batch_reaction_terms(h)
            for got, sample in zip(r1, h):
                c2, rp2, _ = exact_reaction_parts(sample)
                assert relative_error(got, c2 + rp2) <= ULPS * EPS, (n, k)

    def test_pinched_inequality_small_fuzz(self, rng):
        for n in (2, 3, 4):
            c = 4.0 / (3.0 * n) - 0.01
            h = pinched_tensors(rng, 5000, n, 3, c)
            r1, r2 = batch_reaction_terms(h)
            assert (r1 - c * r2).max() < 0.0


def pinch_q(h, c):
    """Q = |h|^2 - c |H|^2 of one tensor; negative Q certifies pinching."""
    normH2, normh2, _ = point_scalars(h)
    return normh2 - c * normH2


class TestPinchQ:
    def test_unit_sphere(self):
        assert pinch_q(sphere_point(), 2.0 / 3.0) == pytest.approx(-2.0 / 3.0)

    def test_zero(self):
        assert pinch_q(np.zeros((2, 2, 1)), 0.5) == 0.0

    def test_quadratic_homogeneity(self, rng):
        h = symmetric_tensors(rng, 1, 3, 2)[0]
        assert pinch_q(2.0 * h, 0.4) == pytest.approx(4.0 * pinch_q(h, 0.4))


class TestPairIdentity:
    def test_all_pairs_random(self, rng):
        # the lemma31 suite's margin is 1e-10 (1 + |B|^2) - |lhs - rhs| over
        # every eigenvalue pair of each drawn symmetric B
        for n in range(2, 9):
            margins, drawn = _lemma31(rng, 20, n, 0, {})
            assert drawn == 20 and margins.shape == (n * (n - 1) // 2, 20)
            assert (margins >= 0.0).all()

    def test_corollary_sign_definiteness(self, rng):
        # rejection sampling: |B|^2 <= tr(B)^2/(n-1) with tr > 0 forces B >= 0
        accepted = 0
        for n in (2, 3):
            while accepted < (5000 if n == 2 else 10000):
                a = rng.standard_normal((4000, n, n))
                b = (a + a.transpose(0, 2, 1)) / 2
                tr = np.trace(b, axis1=1, axis2=2)
                norm2 = (b ** 2).sum(axis=(1, 2))
                keep = (norm2 - tr ** 2 / (n - 1) <= 0) & (tr > 0)
                eigs = np.linalg.eigvalsh(b[keep])
                assert eigs.min() >= -1e-13
                accepted += int(keep.sum())
        assert accepted >= 10000


class TestCn:
    @pytest.mark.parametrize("n,expected", [
        (2, Fraction(2, 3)), (3, Fraction(4, 9)),
        (4, Fraction(1, 3)), (5, Fraction(1, 4)), (10, Fraction(1, 9)),
    ])
    def test_values(self, n, expected):
        assert cn(n) == expected

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            cn(1)


class TestAdaptedSplit:
    def test_codimension_one_has_no_residual_slices(self, rng):
        h = symmetric_tensors(rng, 1, 3, 1)[0]
        if np.einsum("iia->a", h)[0] == 0:
            h[0, 0, 0] += 1.0
        _, _, hm = batch_adapted_split(h[None])
        assert abs(hm[0]) <= 1e-12 * max(1.0, (h ** 2).sum())

    def test_umbilic(self):
        normH, h01sq, hmsq = (x[0] for x in batch_adapted_split(sphere_point(2, 3)[None]))
        assert normH == 2.0
        assert h01sq == pytest.approx(0.0, abs=1e-14)
        assert hmsq == pytest.approx(0.0, abs=1e-14)

    def test_minimal_point_rejected(self):
        with pytest.raises(MinimalPointError):
            batch_adapted_split(np.zeros((1, 2, 2, 2)))

    def test_split_sums_to_traceless_norm(self, rng):
        h = symmetric_tensors(rng, 40, 3, 4)
        _, h01, hm = batch_adapted_split(h)
        _, _, h02 = batch_scalars(h)
        assert np.abs((h01 + hm) - h02).max() <= 1e-12 * max(1.0, h02.max())


class TestReactionEstimateGap:
    def test_umbilic_gap_is_zero(self):
        gap = batch_reaction_estimate_gap(sphere_point()[None])[0]
        assert gap == pytest.approx(0.0, abs=1e-14)

    def test_codimension_one_is_equality(self, rng):
        h = symmetric_tensors(rng, 3000, 3, 1)
        normH2, normh2, _ = batch_scalars(h)
        gaps = batch_reaction_estimate_gap(h[normH2 > 1e-10])
        tol = 1e-10 * (1.0 + normh2[normH2 > 1e-10] ** 2)
        assert np.abs(gaps).max() <= tol.max()

    def test_fuzz_gap_nonnegative(self, rng):
        # the quartic bound holds without any pinching hypothesis
        total = 0
        for n in range(2, 6):
            for k in range(1, 5):
                h = symmetric_tensors(rng, 6250, n, k)
                normH2, normh2, _ = batch_scalars(h)
                keep = normH2 > 1e-10
                gaps = batch_reaction_estimate_gap(h[keep])
                floor = -1e-10 * (1.0 + normh2[keep] ** 2)
                assert (gaps >= floor).all(), f"gap failure at n={n}, k={k}"
                total += int(keep.sum())
        assert total >= 99000


class TestFrameInvariance:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_rotation_invariance_of_scalars(self, seed):
        rng = generator(seed, 99)
        n, k = int(rng.integers(2, 5)), int(rng.integers(1, 4))
        h = symmetric_tensors(rng, 1, n, k)
        o_tan, o_nor = random_rotations(rng, 1, n), random_rotations(rng, 1, k)
        h, rot = h[0], rotate_tensors(h, o_tan, o_nor)[0]

        (H0, n0, _), (H1, n1, _) = point_scalars(h), point_scalars(rot)
        ref = max(1.0, n0)
        assert abs(H0 - H1) <= 1e-10 * ref
        assert abs(n0 - n1) <= 1e-10 * ref
        r0, r2_0 = point_reaction_terms(h)
        r1, r2_1 = point_reaction_terms(rot)
        assert abs(r0 - r1) <= 1e-10 * max(1.0, abs(r0))
        assert abs(r2_0 - r2_1) <= 1e-10 * max(1.0, abs(r2_0))
        e0, e1 = operator_eigenvalues(h), operator_eigenvalues(rot)
        assert np.abs(e0 - e1).max() <= 1e-10 * max(1.0, np.abs(e0).max())
        assert abs(rperp_norm_sq(h) - rperp_norm_sq(rot)) <= 1e-10 * max(1.0, rperp_norm_sq(h))

    @settings(max_examples=30, deadline=None)
    @given(st.floats(0.1, 10.0), st.integers(0, 10_000))
    def test_scaling_degrees(self, lam, seed):
        rng = generator(seed, 98)
        h = symmetric_tensors(rng, 1, 3, 2)[0]
        scaled = lam * h
        (H0, n0, _), (H1, n1, _) = point_scalars(h), point_scalars(scaled)
        assert n1 == pytest.approx(lam ** 2 * n0, rel=1e-12)
        assert H1 == pytest.approx(lam ** 2 * H0, rel=1e-12)
        assert H1 - n1 == pytest.approx(lam ** 2 * (H0 - n0), rel=1e-9)   # scalar curvature
        if H0 > 0:
            assert n1 / H1 == pytest.approx(n0 / H0, rel=1e-12)
        r10, r20 = point_reaction_terms(h)
        r11, r21 = point_reaction_terms(scaled)
        assert r11 == pytest.approx(lam ** 4 * r10, rel=1e-12)
        assert r21 == pytest.approx(lam ** 4 * r20, rel=1e-12)
        e0, e1 = operator_eigenvalues(h), operator_eigenvalues(scaled)
        assert np.allclose(e1, lam ** 2 * e0, rtol=1e-10, atol=1e-12)
        # the sign of R1 - c R2 is scale invariant
        c = 0.37
        assert math.copysign(1, r11 - c * r21) == math.copysign(1, r10 - c * r20)


EPS = np.finfo(float).eps     # 2^-52, the spacing of floats at 1
ULPS = 4                      # allowed relative error of R1 and R2, in EPS


def exact_reaction_parts(h):
    """(|C|^2, |Rp|^2, R2) of one tensor h[i, j, a] as exact fractions, from
    the index formulas of the curvature module docstring."""
    n, _, k = h.shape
    f = [[[Fraction(float(h[i, j, a])) for a in range(k)] for j in range(n)]
         for i in range(n)]
    H = [sum(f[i][i][a] for i in range(n)) for a in range(k)]
    h0 = [[[f[i][j][a] - (H[a] / n if i == j else 0) for a in range(k)]
           for j in range(n)] for i in range(n)]
    c2 = sum(sum(f[i][j][a] * f[i][j][c] for i in range(n) for j in range(n)) ** 2
             for a in range(k) for c in range(k))
    rp2 = sum(sum(h0[i][p][a] * h0[j][p][c] - h0[j][p][a] * h0[i][p][c]
                  for p in range(n)) ** 2
              for i in range(n) for j in range(n) for a in range(k) for c in range(k))
    r2 = sum(sum(H[a] * f[i][j][a] for a in range(k)) ** 2
             for i in range(n) for j in range(n))
    return c2, rp2, r2


def relative_error(got, exact):
    return float(abs(Fraction(float(got)) - exact) / exact)


class TestReactionAccuracy:
    """batch_reaction_terms against exact rational arithmetic on pinched
    tensors, up to the largest (n, k) the fuzz suites draw."""

    @pytest.mark.parametrize("n,k", [(n, k) for n in range(2, 7) for k in range(1, 5)])
    def test_pinched_terms_within_ulps_of_exact(self, n, k):
        h = pinched_tensors(generator(35, n, k), 20, n, k, 4.0 / (3.0 * n) - 0.01)
        r1, r2 = batch_reaction_terms(h)
        for got1, got2, sample in zip(r1, r2, h):
            c2, rp2, exact2 = exact_reaction_parts(sample)
            assert relative_error(got1, c2 + rp2) <= ULPS * EPS
            assert relative_error(got2, exact2) <= ULPS * EPS


def rotate_by_loops(h, o_tan, o_nor):
    """h'_{ijb} = sum_{p,q,a} O_ip O_jq U_ab h_{pqa}, one entry at a time."""
    count, n, _, k = h.shape
    out = np.zeros_like(h)
    for z, i, j, b in itertools.product(range(count), range(n), range(n), range(k)):
        out[z, i, j, b] = sum(o_tan[z, i, p] * o_tan[z, j, q] * o_nor[z, a, b] * h[z, p, q, a]
                              for p in range(n) for q in range(n) for a in range(k))
    return out


class TestBatchKernels:
    """The fuzz kernels against their definitions: the ordered contractions
    of rotate_tensors and the sample blocks of batch_reaction_terms."""

    @pytest.mark.parametrize("n,k", [(2, 1), (3, 2), (5, 4), (6, 3)])
    def test_rotate_tensors_matches_index_loops(self, n, k):
        rng = generator(31, n, k)
        h = symmetric_tensors(rng, 4, n, k)
        o_tan, o_nor = random_rotations(rng, 4, n), random_rotations(rng, 4, k)
        ref = rotate_by_loops(h, o_tan, o_nor)
        got = rotate_tensors(h, o_tan, o_nor)
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("n,k", [(2, 1), (3, 2), (5, 4), (6, 3)])
    def test_rotate_tensors_round_trip(self, n, k):
        rng = generator(32, n, k)
        h = symmetric_tensors(rng, 50, n, k)
        o_tan, o_nor = random_rotations(rng, 50, n), random_rotations(rng, 50, k)
        there = rotate_tensors(h, o_tan, o_nor)
        back = rotate_tensors(there, o_tan.transpose(0, 2, 1), o_nor.transpose(0, 2, 1))
        assert np.abs(back - h).max() <= 1e-13 * np.abs(h).max()

    @pytest.fixture()
    def stack(self):
        # two full blocks and three more samples
        return symmetric_tensors(generator(33), 2 * BLOCK + 3, 4, 3)

    def test_reaction_terms_blocks_match_pointwise(self, stack):
        R1, R2 = batch_reaction_terms(stack)
        point = np.array([point_reaction_terms(h) for h in stack])
        assert np.array_equal(R1, point[:, 0]) and np.array_equal(R2, point[:, 1])

    # one sample; three slices that start inside the first block, so their
    # samples sit at other places in their blocks than in the whole stack;
    # four across the seams at BLOCK and 2 * BLOCK, one of them a single sample
    @pytest.mark.parametrize("lo,hi", [(0, 1), (510, 515), (511, 1025), (1023, 1027),
                                       (BLOCK - 2, BLOCK + 3), (BLOCK, BLOCK + 1),
                                       (BLOCK - 1, 2 * BLOCK + 1),
                                       (2 * BLOCK - 1, 2 * BLOCK + 3)])
    def test_reaction_terms_independent_of_blocks(self, stack, lo, hi):
        R1, R2 = batch_reaction_terms(stack)
        r1, r2 = batch_reaction_terms(stack[lo:hi])
        assert np.array_equal(R1[lo:hi], r1) and np.array_equal(R2[lo:hi], r2)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_gauss_operator_matches_two_products(self, n):
        pairs = list(itertools.combinations(range(n), 2))
        ii = np.array([p[0] for p in pairs])[:, None]
        jj = np.array([p[1] for p in pairs])[:, None]
        for k in range(1, 5):
            h = symmetric_tensors(generator(34, n, k), 200, n, k)
            rfull = (np.einsum("bika,bjla->bijkl", h, h)
                     - np.einsum("bjka,bila->bijkl", h, h))
            want = rfull[:, ii, jj, ii.T, jj.T]
            assert np.array_equal(batch_gauss_operator(h), want), (n, k)

    @pytest.mark.parametrize("count", [1, 7, 400])
    @pytest.mark.parametrize("ambient_k", [0.0, 0.3])
    def test_gauss_operator_matches_full_tensor(self, ambient_k, count):
        # the full (B, n, n, n, n) tensor, less its (i, j) transpose, gathered
        # on the bivector pairs and shifted by K on the diagonal
        for n in range(2, 7):
            pairs = list(itertools.combinations(range(n), 2))
            ii = np.array([p[0] for p in pairs])[:, None]
            jj = np.array([p[1] for p in pairs])[:, None]
            for k in range(1, 5):
                h = symmetric_tensors(generator(35, n, k), count, n, k)
                r = np.einsum("bika,bjla->bijkl", h, h)
                want = (r - r.transpose(0, 2, 1, 3, 4))[:, ii, jj, ii.T, jj.T]
                if ambient_k != 0.0:
                    want = want + ambient_k * np.eye(len(pairs))[None]
                assert np.array_equal(batch_gauss_operator(h, ambient_k), want), (n, k)
