"""Spherical-ambient functionals: the ratio f, its reaction group, the
gradient-group coefficient, and the decay bound."""

import math
from fractions import Fraction

import numpy as np
import pytest

from mcflow import (
    MinimalPointError,
    PointCurvature,
    SphereAmbient,
    aux_f,
    decay_bound,
    gradient_coefficient,
    term_I_bound_check,
    term_II,
    term_II_case1_check,
)
from mcflow.curvature import batch_reaction_terms, batch_scalars
from mcflow.sampling import generator, sphere_pinched_tensors, symmetric_tensors
from mcflow.sphere import batch_aux_f, batch_term_II


def umbilic(n=3, k=2, scale=1.0):
    h = np.zeros((n, n, k))
    h[:, :, 0] = scale * np.eye(n)
    return PointCurvature(h)


class TestSphereAmbient:
    def test_curvature_radius_relation(self):
        amb = SphereAmbient(2.0)
        assert amb.K * amb.R_amb ** 2 == 1.0

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            SphereAmbient(0.0)

    @pytest.mark.parametrize("radius", [float("nan"), 1e300, 1e-300])
    def test_rejects_radius_whose_curvature_is_not_a_float(self, radius):
        # K = 1/R^2 would overflow (1e-300) or underflow to 0 (1e300)
        with pytest.raises(ValueError):
            SphereAmbient(radius)


class TestAuxF:
    def test_umbilic_gives_zero(self):
        out = aux_f(umbilic(), SphereAmbient(1.0), 1e-3)
        assert out.f == 0.0
        assert out.b == pytest.approx((1 - 1e-3) * 6.0)

    def test_minimal_point_gives_zero(self):
        out = aux_f(PointCurvature(np.zeros((4, 4, 2))), SphereAmbient(1.0), 1e-3)
        assert out.f == 0.0

    def test_zero_denominator_rejected(self):
        # eps = 1 makes b = 0; with H = 0 the ratio is undefined
        with pytest.raises(MinimalPointError):
            aux_f(PointCurvature(np.zeros((4, 4, 2))), SphereAmbient(1.0), 1.0)

    def test_f_bounded_by_one_under_pinching(self):
        rng = generator(7, 1)
        amb = SphereAmbient(1.0)
        for n in (5, 6):
            cap = lambda H2: H2 / (n * (n - 1)) + 2.0 * amb.K
            h = sphere_pinched_tensors(rng, 20_000, n, 3, cap)
            f = batch_aux_f(h, amb, 1e-3)
            assert f.max() <= 1.0, f"f exceeded 1 at n={n}: {f.max()}"

    def test_scale_invariance(self):
        # h -> lam h together with K -> lam^2 K leaves f unchanged
        rng = generator(7, 2)
        h = symmetric_tensors(rng, 1, 4, 2)[0]
        lam = 3.7
        f1 = aux_f(PointCurvature(h), SphereAmbient(1.0), 1e-3).f
        f2 = aux_f(PointCurvature(lam * h), SphereAmbient(1.0 / lam), 1e-3).f
        assert f2 == pytest.approx(f1, rel=1e-12)


class TestTermII:
    def test_umbilic_vanishes(self):
        assert term_II(umbilic(), SphereAmbient(1.0), 1e-3) == pytest.approx(0.0, abs=1e-14)

    def test_zero_tensor_vanishes(self):
        out = term_II(PointCurvature(np.zeros((3, 3, 1))), SphereAmbient(1.0), 1e-3)
        assert out == 0.0

    def test_two_way_assembly_agreement(self):
        # full display vs piecewise accumulation of the same five terms
        rng = generator(7, 3)
        amb = SphereAmbient(1.5)
        n = 4
        h = symmetric_tensors(rng, 500, n, 3)
        normH2, _, normh02 = batch_scalars(h)
        keep = normH2 > 1e-8
        h, normH2, normh02 = h[keep], normH2[keep], normh02[keep]
        full = batch_term_II(h, amb, 2e-3)
        r1, r2 = batch_reaction_terms(h)
        b = (1 - 2e-3) * amb.K * n * (n - 1)
        denom = normH2 + b
        pieces = (r1 - r2 / n) - n * amb.K * normh02 \
            - r2 * normh02 / denom - n * amb.K * normh02 * normH2 / denom
        two_way = 2.0 / denom * pieces
        assert np.abs(full - two_way).max() <= 1e-12 * np.abs(full).max()

    def test_case2_bound_small_fuzz(self):
        rng = generator(7, 4)
        amb = SphereAmbient(1.0)
        for n in (2, 4):
            for k in (1, 3):
                h = sphere_pinched_tensors(rng, 20_000, n, k,
                                           lambda H2: H2 / (3.0 * n))
                f = batch_aux_f(h, amb, 1.0)     # b = 0
                ii = batch_term_II(h, amb, 1.0)
                margin = -4.0 * n * amb.K * f - ii
                assert margin.min() >= -1e-10 * amb.K, f"case-2 fails n={n} k={k}"


class TestCase1:
    def test_umbilic_margin_zero(self):
        amb = SphereAmbient(1.0)
        m = term_II_case1_check(umbilic(4, 2), amb, 1e-3, 0.1, 2e-3)
        assert m == pytest.approx(0.0, abs=1e-14)

    def test_rejects_low_dimension(self):
        with pytest.raises(ValueError):
            term_II_case1_check(umbilic(3, 1), SphereAmbient(1.0), 1e-3, 0.1, 2e-3)

    def test_unpinched_sample_is_rejected_not_errored(self):
        h = np.zeros((4, 4, 1))
        h[:, :, 0] = np.diag([5.0, -5.0, 0.0, 0.0])   # wildly unpinched
        out = term_II_case1_check(PointCurvature(h), SphereAmbient(1.0), 1e-3, 0.1, 2e-3)
        assert out is None

    @pytest.mark.parametrize("n,delta", [(4, 0.1), (5, 0.0)])
    def test_case1_margin_small_fuzz(self, n, delta):
        rng = generator(7, 5 + n)
        amb = SphereAmbient(1.0)
        eps = 1e-3
        theta = 2 * eps
        if n == 4:
            cap = lambda H2: H2 / 12.0 + (2.0 - delta) * amb.K
        else:
            cap = lambda H2: H2 / (n * (n - 1)) + 2.0 * amb.K
        h = sphere_pinched_tensors(rng, 20_000, n, 2, cap)
        f = batch_aux_f(h, amb, eps)
        ii = batch_term_II(h, amb, eps)
        margin = -2.0 * theta * amb.K * f - ii
        assert margin.min() >= -1e-10 * amb.K


class TestGradientGroup:
    def test_coefficient_vanishes_at_four(self):
        assert gradient_coefficient(4) == 0

    def test_coefficient_exact_at_five(self):
        assert gradient_coefficient(5) == Fraction(3, 7) - Fraction(1, 5) - Fraction(3, 20)
        assert gradient_coefficient(5) == Fraction(11, 140)

    def test_coefficient_positive_beyond_four_and_decaying(self):
        vals = [gradient_coefficient(n) for n in range(5, 40)]
        assert all(v > 0 for v in vals)
        assert vals[-1] < vals[0]
        # large n: dominated by 3/(n+2) -> 0+
        assert float(vals[-1]) < 3.0 / 41.0

    def test_bound_assembly(self):
        coeff, bound, term_i = term_I_bound_check(
            5, 1e-3, grad_h_sq=2.0, grad_H_sq=1.0, normH2=4.0, normh02=0.5)
        assert coeff == Fraction(11, 140)
        assert bound < 0.0
        # with |grad h|^2 >= (3/(n+2)) |grad H|^2 the group obeys the bound
        assert term_i <= bound + 1e-12

    def test_rejects_low_dimension(self):
        with pytest.raises(ValueError):
            term_I_bound_check(3, 1e-3, 1.0, 1.0, 1.0, 0.1)


class TestDecayBound:
    def test_zero_rate_is_constant(self):
        assert decay_bound(0.3, 0.0, 1.0, -5.0, -1.0) == 0.3

    def test_zero_later_maximum(self):
        assert decay_bound(0.0, 0.1, 2.0, -9.0, -2.0) == 0.0

    def test_doubling_time(self):
        theta, K = 0.05, 2.0
        dt = math.log(2.0) / (2.0 * theta * K)
        assert decay_bound(1.0, theta, K, -1.0 - dt, -1.0) == pytest.approx(2.0)

    def test_requires_ordered_times(self):
        with pytest.raises(ValueError):
            decay_bound(1.0, 0.1, 1.0, -1.0, -2.0)

    def test_blowup_vs_bounded_contradiction_scale(self):
        # a nonzero max f late in time forces an earlier bound far above 1
        implied = decay_bound(1e-3, 2e-3, 1.0, -1e5, -1.0)
        assert implied > 1.0
