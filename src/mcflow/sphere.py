"""Pointwise functionals for flows inside a round ambient sphere.

For the (n+k)-sphere of radius R (sectional curvature K = 1/R^2) the central
object is the auxiliary ratio

    f = |h0|^2 / (|H|^2 + b),      b = (1 - eps) K n (n - 1),

whose evolution splits into a gradient group I and a reaction group II,

    II = (2 / (|H|^2 + b)) * ( R1 - R2/n - n K |h0|^2
                               - R2 |h0|^2 / (|H|^2 + b)
                               - n K |h0|^2 |H|^2 / (|H|^2 + b) ).

Facts verified by the fuzz suites (all reduce to the adapted-frame reaction
estimate plus elementary algebra):

* under the dimension-n pinching |h|^2 - |H|^2/(n-1) <= 2K with
  n(n-1)(1-eps) >= 2, f <= 1;
* with b = 0 and |h|^2 <= (4/(3n)) |H|^2, II <= -4 n K f;
* under the case-1 hypotheses (n = 4 with slack delta, or n >= 5), II <=
  -2 theta K f for theta = 2 eps small;
* the gradient-group coefficient 3/(n+2) - 1/n - 3/(n(n-1)) is zero at n = 4
  and positive for n >= 5, so the group is nonpositive given the gradient
  estimate |grad h|^2 >= (3/(n+2)) |grad H|^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .curvature import (
    PointCurvature,
    batch_reaction_terms,
    batch_scalars,
)
from .errors import MinimalPointError

__all__ = [
    "SphereAmbient",
    "SphereAux",
    "aux_f",
    "term_II",
    "term_II_case1_check",
    "term_I_bound_check",
    "gradient_coefficient",
    "decay_bound",
    "batch_aux_f",
    "batch_term_II",
]


@dataclass(frozen=True)
class SphereAmbient:
    """Round ambient sphere of radius R_amb; K = 1/R_amb^2."""

    R_amb: float

    def __post_init__(self):
        # beyond these bounds K = 1/R_amb^2 overflows or underflows
        if not 1e-150 <= self.R_amb <= 1e150:
            raise ValueError(f"ambient radius must lie in [1e-150, 1e150]; got {self.R_amb}")

    @property
    def K(self) -> float:
        return 1.0 / self.R_amb ** 2


@dataclass(frozen=True)
class SphereAux:
    """The auxiliary ratio f = |h0|^2 / (|H|^2 + b) at a point, with its
    eps and offset b; the reaction group is :func:`term_II`."""

    eps: float
    b: float
    f: float


def _offset(n: int, K: float, eps: float) -> float:
    return (1.0 - eps) * K * n * (n - 1)


def _denominator(normH2, n: int, K: float, eps: float):
    """|H|^2 + b; MinimalPointError where it is not positive (|H| = 0 with
    b = 0), since f and both groups of its evolution divide by it."""
    denom = normH2 + _offset(n, K, eps)
    if np.any(denom <= 0):
        raise MinimalPointError("f undefined: |H|^2 + b must be positive")
    return denom


def batch_aux_f(h: np.ndarray, amb: SphereAmbient, eps: float) -> np.ndarray:
    """f = |h0|^2 / (|H|^2 + b) for a stack of tensors."""
    normH2, _, normh02 = batch_scalars(h)
    return normh02 / _denominator(normH2, h.shape[1], amb.K, eps)


def batch_term_II(h: np.ndarray, amb: SphereAmbient, eps: float) -> np.ndarray:
    """Reaction group of the evolution of f, assembled from the full display."""
    n, K = h.shape[1], amb.K
    normH2, _, normh02 = batch_scalars(h)
    denom = _denominator(normH2, n, K, eps)
    R1, R2 = batch_reaction_terms(h)
    inner = (R1 - R2 / n - n * K * normh02
             - R2 * normh02 / denom - n * K * normh02 * normH2 / denom)
    return 2.0 / denom * inner


def aux_f(pc: PointCurvature, amb: SphereAmbient, eps: float) -> SphereAux:
    """The ratio f, with the f <= 1 guarantee asserted on its validity domain.

    When the pinching |h|^2 - |H|^2/(n-1) <= 2K holds and n(n-1)(1-eps) >= 2
    (every n >= 4 with small eps), f cannot exceed 1; violating that is an
    internal error, not an input error.
    """
    n = pc.n
    normH2, normh2, _ = (float(x[0]) for x in batch_scalars(pc.h[None]))
    f = float(batch_aux_f(pc.h[None], amb, eps)[0])
    b = _offset(n, amb.K, eps)
    pinched = normh2 - normH2 / (n - 1) <= 2.0 * amb.K * (1.0 + 1e-12) if n >= 2 else False
    if pinched and n * (n - 1) * (1.0 - eps) >= 2.0 and f > 1.0 + 1e-12:
        raise AssertionError(f"f = {f} exceeds 1 under pinching (n={n}, eps={eps})")
    return SphereAux(eps=eps, b=b, f=f)


def term_II(pc: PointCurvature, amb: SphereAmbient, eps: float) -> float:
    """Reaction group II at a point; MinimalPointError where |H| = 0 and b = 0."""
    return float(batch_term_II(pc.h[None], amb, eps)[0])


def term_II_case1_check(pc: PointCurvature, amb: SphereAmbient, eps: float,
                        delta: float, theta: float):
    """Margin of II below -2 theta K f: returns (-2 theta K f) - II.

    Applies under the case-1 hypotheses: |h|^2 - |H|^2/3 <= (2 - delta) K for
    n = 4, or |h|^2 - |H|^2/(n-1) <= 2K for n >= 5.  A sample outside its
    hypothesis is rejected, not an error: the return value is None and the
    fuzz suites simply skip it.  Only n >= 4 is accepted at all.
    """
    n = pc.n
    if n < 4:
        raise ValueError("the case-1 estimate is only claimed for n >= 4")
    normH2, normh2, _ = (float(x[0]) for x in batch_scalars(pc.h[None]))
    K = amb.K
    slack = 1.0 + 1e-12
    if n == 4:
        if normh2 - normH2 / 3.0 > (2.0 - delta) * K * slack:
            return None
    elif normh2 - normH2 / (n - 1) > 2.0 * K * slack:
        return None
    f = float(batch_aux_f(pc.h[None], amb, eps)[0])
    ii = float(batch_term_II(pc.h[None], amb, eps)[0])
    return -2.0 * theta * K * f - ii


def gradient_coefficient(n: int) -> Fraction:
    """Exact value of 3/(n+2) - 1/n - 3/(n(n-1)): zero at n = 4, positive beyond."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return Fraction(3, n + 2) - Fraction(1, n) - Fraction(3, n * (n - 1))


def term_I_bound_check(n: int, eps: float, grad_h_sq: float, grad_H_sq: float,
                       normH2: float, normh02: float):
    """Evaluate the gradient group I and its coefficient bound.

    Returns (coefficient, bound, I) where coefficient is the exact rational
    3/(n+2) - 1/n - 3/(n(n-1)), bound = -(2/(|H|^2+b)) * coefficient *
    |grad H|^2, and I = -(2/(|H|^2+b)) (|grad h|^2 - |grad H|^2/n -
    f |grad H|^2).  The ambient is the unit sphere, K = 1 (the argument list
    carries no curvature scale of its own).  Only n >= 4 is accepted; that is
    the range on which the bound is claimed.
    """
    if n < 4:
        raise ValueError("the gradient-group bound is only claimed for n >= 4")
    coeff = gradient_coefficient(n)
    denom = _denominator(normH2, n, 1.0, eps)
    f = normh02 / denom
    bound = -(2.0 / denom) * float(coeff) * grad_H_sq
    term_i = -(2.0 / denom) * (grad_h_sq - grad_H_sq / n - f * grad_H_sq)
    return coeff, bound, term_i


def decay_bound(f_max_later: float, theta: float, K: float, t: float, t1: float) -> float:
    """Lower bound exp(+2 theta K (t1 - t)) * max f(t1) implied at the earlier
    time t by exponential decay of max f; quantifies the incompatibility of a
    nonzero later maximum with the global bound f <= 1."""
    if not t < t1:
        raise ValueError("need t < t1")
    return math.exp(2.0 * theta * K * (t1 - t)) * f_max_later
