"""Frame-adapted curvature algebra at a point of an immersed submanifold.

The atom of every computation here is the second fundamental form in
orthonormal tangent and normal frames, stored as an array ``h[i, j, a]`` with
tangent indices ``i, j < n`` and normal index ``a < k``, symmetric in
``(i, j)``.  Derived quantities follow the usual conventions:

* mean curvature components   ``H_a = sum_i h[i, i, a]``
* traceless part              ``h0[i, j, a] = h[i, j, a] - (H_a / n) d_ij``
* normal curvature            ``Rp[i, j, a, b] = sum_p h0[i,p,a] h0[j,p,b] - h0[j,p,a] h0[i,p,b]``
* curvature operator on the orthonormal bivector basis {e_i ^ e_j : i < j},
  with matrix entries ``R_ijkl = sum_a h[i,k,a] h[j,l,a] - h[j,k,a] h[i,l,a]``
  in a flat ambient space; a space form of curvature K contributes K times the
  identity on bivectors and nothing to the normal curvature.
* reaction terms
  ``R1 = sum_ab (sum_ij h[i,j,a] h[i,j,b])^2 + |Rp|^2``
  ``R2 = sum_ij (sum_a H_a h[i,j,a])^2``

Everything is homogeneous under ``h -> lam * h``: degree-2 scalars (|h|^2,
|H|^2, Sc, operator eigenvalues) pick up ``lam^2``, the reaction terms pick up
``lam^4``, and the pinching ratio |h|^2/|H|^2 is invariant.

All functions are pure; batch variants (prefixed ``batch_``) operate on
stacked tensors of shape ``(B, n, n, k)`` and power the fuzz suites.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import MinimalPointError

__all__ = [
    "PointCurvature",
    "CurvatureScalars",
    "NormalCurvature",
    "CurvatureOperator",
    "PinchSpec",
    "AdaptedSplit",
    "scalars",
    "traceless",
    "normal_curvature",
    "gauss_operator",
    "reaction_terms",
    "pinch_Q",
    "pinching_pair_identity",
    "cn",
    "adapted_split",
    "reaction_estimate_gap",
]


@dataclass(frozen=True)
class PointCurvature:
    """Second fundamental form h[i, j, a] in orthonormal frames.

    The constructor symmetrises in (i, j); inputs that are asymmetric beyond
    roundoff (relative 1e-8) are rejected rather than silently repaired.
    """

    h: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.h, dtype=float)
        if h.ndim != 3 or h.shape[0] != h.shape[1]:
            raise ValueError(f"h must have shape (n, n, k), got {h.shape}")
        if not np.all(np.isfinite(h)):
            raise ValueError("h contains non-finite entries")
        asym = np.abs(h - h.transpose(1, 0, 2)).max()
        scale = np.abs(h).max()
        if asym > 1e-8 * max(scale, 1.0):
            raise ValueError(f"h is not symmetric in (i, j): asymmetry {asym:.3e}")
        object.__setattr__(self, "h", (h + h.transpose(1, 0, 2)) / 2.0)

    @property
    def n(self) -> int:
        return self.h.shape[0]

    @property
    def k(self) -> int:
        return self.h.shape[2]


@dataclass(frozen=True)
class CurvatureScalars:
    """Pointwise scalar invariants of a second fundamental form.

    ``ratio`` is |h|^2 / |H|^2 and is None at minimal points (|H| = 0).
    Identities, exact by construction: normh2 = normh02 + normH2 / n and
    scalar_curv = normH2 - normh2 (flat-ambient trace of the Gauss equation).
    """

    normH2: float
    normh2: float
    normh02: float
    scalar_curv: float
    ratio: Optional[float]


@dataclass(frozen=True)
class NormalCurvature:
    """Normal bundle curvature Rp[i, j, a, b]; identically zero for k = 1."""

    rperp: np.ndarray

    @property
    def norm_sq(self) -> float:
        return float(np.einsum("ijab,ijab->", self.rperp, self.rperp))


@dataclass(frozen=True)
class CurvatureOperator:
    """Symmetric matrix of the curvature operator on the bivector basis.

    Basis order is lexicographic over pairs (i, j) with i < j, so the matrix
    has dimension n(n-1)/2.
    """

    mat: np.ndarray

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.mat)

    def min_eigenvalue(self) -> float:
        return float(self.eigenvalues()[0])


@dataclass(frozen=True)
class PinchSpec:
    """Parameters of the quadratic pinching quantity Q = |h|^2 + a - c |H|^2.

    The f_sigma functional's sigma and p are ``mcflow.flow.PHI_SIGMA`` and
    ``mcflow.flow.PHI_P``.
    """

    c: float
    a: float = 0.0

    def __post_init__(self):
        if not self.c > 0:
            raise ValueError("c must be positive")
        if self.a < 0:
            raise ValueError("a must be nonnegative")


@dataclass(frozen=True)
class AdaptedSplit:
    """Split of |h0|^2 into the slice along H/|H| and the rest."""

    normH: float
    normh01sq: float
    normhminsq: float


# ---------------------------------------------------------------------------
# batch kernels on stacked tensors of shape (B, n, n, k)
# ---------------------------------------------------------------------------

def batch_mean_vector(h: np.ndarray) -> np.ndarray:
    """Mean curvature components H_a, shape (B, k)."""
    return np.einsum("biia->ba", h)


def batch_scalars(h: np.ndarray):
    """(normH2, normh2, normh02) for a stack of tensors."""
    n = h.shape[1]
    Hv = batch_mean_vector(h)
    normH2 = np.einsum("ba,ba->b", Hv, Hv)
    normh2 = np.einsum("bija,bija->b", h, h)
    return normH2, normh2, normh2 - normH2 / n


def batch_traceless(h: np.ndarray) -> np.ndarray:
    n = h.shape[1]
    Hv = batch_mean_vector(h)
    return h - np.eye(n)[None, :, :, None] * Hv[:, None, None, :] / n


def batch_normal_curvature(h: np.ndarray) -> np.ndarray:
    """Rp[b, i, j, a, c] from the traceless part; (B, n, n, k, k)."""
    h0 = batch_traceless(h)
    r = np.einsum("bipa,bjpc->bijac", h0, h0)
    return r - r.transpose(0, 2, 1, 3, 4)


# samples per block of batch_reaction_terms
_REACTION_BLOCK = 2048


def _ordered_sum(rows):
    """rows[0] + rows[1] + ..., one elementwise add per row, left to right."""
    total = rows[0].copy()
    for row in rows[1:]:
        total += row
    return total


def _symmetric_sum(diag, off):
    """sum_i p_ii + 2 sum_{i<j} p_ij over the entries of a symmetric p."""
    total = _ordered_sum(diag)
    if len(off):
        total += 2.0 * _ordered_sum(off)
    return total


def _reaction_block(h: np.ndarray):
    n, k = h.shape[1], h.shape[3]
    x = np.ascontiguousarray(h.transpose(1, 2, 3, 0))       # (n, n, k, b)
    d, (i, j) = np.arange(n), np.triu_indices(n, 1)
    H = _ordered_sum(x[d, d])
    T = _ordered_sum([H[a] * x[:, :, a] for a in range(k)])  # T_ij = sum_a H_a h_ija
    R2 = _symmetric_sum(T[d, d] ** 2, T[i, j] ** 2)
    C = _symmetric_sum([r[:, None] * r[None] for r in x[d, d]],
                       [r[:, None] * r[None] for r in x[i, j]])  # (k, k, b)
    e, (a, c) = np.arange(k), np.triu_indices(k, 1)
    R1 = _symmetric_sum(C[e, e] ** 2, C[a, c] ** 2)
    if n == 1 or k == 1:
        return R1, R2
    # Rp_ac = [A_a, A_c] for the traceless slices A_a = h_a - (H_a / n) I
    A = x.copy()
    A[d, d] -= H / n
    i, j, a, c = i[:, None], j[:, None], a[None], c[None]
    Rp = _ordered_sum([A[i, p, a] * A[j, p, c] - A[i, p, c] * A[j, p, a]
                       for p in range(n)])                  # (P, Q, b): i < j, a < c
    R1 += 4.0 * _ordered_sum((Rp ** 2).reshape(-1, Rp.shape[-1]))
    return R1, R2


def batch_reaction_terms(h: np.ndarray):
    """(R1, R2) for a stack of tensors; both shape (B,).

    Each block of 2048 samples is copied sample-last to (n, n, k, block), and
    every sum over i, j, a, c is a fixed chain of elementwise products and
    adds of length-block rows, over the independent entries only:

    * sum_ij p_ij q_ij = sum_i p_ii q_ii + 2 sum_{i<j} p_ij q_ij for p, q
      symmetric in (i, j), which gives C_ac = sum_ij h_ija h_ijc and R2;
    * sum_ac C_ac^2 = sum_a C_aa^2 + 2 sum_{a<c} C_ac^2;
    * Rp_ac = [A_a, A_c], the commutator of the traceless slices, is
      antisymmetric in (i, j) and in (a, c), so |Rp|^2 is
      4 sum_{a<c} sum_{i<j} [A_a, A_c]_ij^2 and vanishes for k = 1.

    R1 adds the three partial sums (diagonal C, off-diagonal C, Rp) last.
    Nothing calls a reduction (``sum``, ``einsum``), whose loop order numpy
    picks from the array shapes, and elementwise ufuncs round each sample
    alike whatever the row length, so every sample gets the same arithmetic
    in any block or batch: the results do not depend on the block, and
    ``reaction_terms`` of one tensor equals its row here.  The fixed block
    bounds the memory, not the batch size.
    """
    R1, R2 = np.empty(h.shape[0]), np.empty(h.shape[0])
    for start in range(0, h.shape[0], _REACTION_BLOCK):
        end = start + _REACTION_BLOCK
        R1[start:end], R2[start:end] = _reaction_block(h[start:end])
    return R1, R2


def batch_gauss_operator(h: np.ndarray, ambient_k: float = 0.0) -> np.ndarray:
    """Curvature operator matrices, shape (B, N, N) with N = n(n-1)/2."""
    n = h.shape[1]
    r = np.einsum("bika,bjla->bijkl", h, h)
    rfull = r - r.transpose(0, 2, 1, 3, 4)
    pairs = list(itertools.combinations(range(n), 2))  # lexicographic, i < j
    ii = np.array([p[0] for p in pairs])
    jj = np.array([p[1] for p in pairs])
    # mat[b, p, q] = R[b, i_p, j_p, i_q, j_q]
    mat = rfull[:, ii[:, None], jj[:, None], ii[None, :], jj[None, :]]
    if ambient_k != 0.0:
        mat = mat + ambient_k * np.eye(len(pairs))[None]
    return mat


def batch_adapted_split(h: np.ndarray):
    """(normH, normh01sq, normhminsq); requires |H| > 0 for every sample."""
    n = h.shape[1]
    Hv = batch_mean_vector(h)
    normH2 = np.einsum("ba,ba->b", Hv, Hv)
    if np.any(normH2 <= 0):
        raise MinimalPointError("adapted split undefined where |H| = 0")
    normH = np.sqrt(normH2)
    h1 = np.einsum("ba,bija->bij", Hv / normH[:, None], h)
    h01sq = np.einsum("bij,bij->b", h1, h1) - normH2 / n
    normh2 = np.einsum("bija,bija->b", h, h)
    h02 = normh2 - normH2 / n
    return normH, h01sq, h02 - h01sq


def batch_reaction_estimate_gap(h: np.ndarray) -> np.ndarray:
    """Slack of R1 - R2/n below its adapted-frame quartic bound.

    gap = (|h01|^4 + |h01|^2 |H|^2 / n + 4 |h01|^2 |hm|^2 + 1.5 |hm|^4)
          - (R1 - R2 / n),
    which is nonnegative (an equality when k = 1) for every tensor with
    |H| > 0.
    """
    n = h.shape[1]
    _, h01sq, hmsq = batch_adapted_split(h)
    normH2, _, _ = batch_scalars(h)
    R1, R2 = batch_reaction_terms(h)
    rhs = h01sq ** 2 + h01sq * normH2 / n + 4.0 * h01sq * hmsq + 1.5 * hmsq ** 2
    return rhs - (R1 - R2 / n)


# ---------------------------------------------------------------------------
# pointwise operations
# ---------------------------------------------------------------------------

def scalars(pc: PointCurvature) -> CurvatureScalars:
    """All scalar invariants at a point; ratio is None at minimal points."""
    normH2, normh2, normh02 = (float(x[0]) for x in batch_scalars(pc.h[None]))
    ratio = normh2 / normH2 if normH2 > 0 else None
    return CurvatureScalars(
        normH2=normH2,
        normh2=normh2,
        normh02=normh02,
        scalar_curv=normH2 - normh2,
        ratio=ratio,
    )


def traceless(pc: PointCurvature) -> PointCurvature:
    """Traceless part h0 = h - (H/n) g; adding the umbilic part back recovers h."""
    return PointCurvature(batch_traceless(pc.h[None])[0])


def normal_curvature(pc: PointCurvature) -> NormalCurvature:
    """Normal curvature tensor; antisymmetric in (i, j) and (a, b).

    Depends only on the traceless part, so computing it from h or from h0
    gives the identical tensor; a space-form ambient contributes nothing.
    """
    return NormalCurvature(batch_normal_curvature(pc.h[None])[0])


def gauss_operator(pc: PointCurvature, ambient_k: float = 0.0) -> CurvatureOperator:
    """Curvature operator on bivectors via the Gauss equation.

    The trace relation 2 * tr = Sc holds for ambient_k = 0; a space form of
    curvature K shifts the operator by K * identity.
    """
    return CurvatureOperator(batch_gauss_operator(pc.h[None], ambient_k)[0])


def reaction_terms(pc: PointCurvature) -> tuple[float, float]:
    """The nonnegative reaction terms (R1, R2) of the curvature evolution."""
    R1, R2 = batch_reaction_terms(pc.h[None])
    return float(R1[0]), float(R2[0])


def pinch_Q(pc: PointCurvature, spec: PinchSpec) -> float:
    """Q = |h|^2 + a - c |H|^2; negative Q certifies pinching."""
    s = scalars(pc)
    return s.normh2 + spec.a - spec.c * s.normH2


def pinching_pair_identity(B: np.ndarray, i1: int, i2: int) -> tuple[float, float]:
    """Two-sided evaluation of the eigenvalue-pair trace identity.

    For a symmetric matrix B with eigenvalues kappa (sorted ascending; i1, i2
    index the sorted order),

        |B|^2 - (tr B)^2 / (n-1)
          = -2 k_{i1} k_{i2} + (k_{i1} + k_{i2} - tr B / (n-1))^2
            + sum_{l != i1, i2} (k_l - tr B / (n-1))^2.

    Returns (lhs, rhs).  A corollary: if the left side is <= 0, all
    eigenvalues share a sign, so tr B > 0 forces positive definiteness.
    """
    B = np.asarray(B, dtype=float)
    if B.ndim != 2 or B.shape[0] != B.shape[1]:
        raise ValueError("B must be a square matrix")
    n = B.shape[0]
    if n < 2:
        raise ValueError("identity requires n >= 2")
    if not np.allclose(B, B.T, rtol=0.0, atol=1e-10 * max(1.0, np.abs(B).max())):
        raise ValueError("B must be symmetric")
    if i1 == i2:
        raise ValueError("eigenvalue pair indices must differ")
    kappa = np.linalg.eigvalsh(B)
    tr = kappa.sum()
    mean = tr / (n - 1)
    lhs = float((kappa ** 2).sum() - tr ** 2 / (n - 1))
    others = [l for l in range(n) if l not in (i1, i2)]
    rhs = float(
        -2.0 * kappa[i1] * kappa[i2]
        + (kappa[i1] + kappa[i2] - mean) ** 2
        + sum((kappa[l] - mean) ** 2 for l in others)
    )
    return lhs, rhs


def cn(n: int) -> Fraction:
    """The dimension-dependent pinching constant: 4/(3n) for n in {2, 3},
    1/(n-1) for n >= 4, as an exact rational."""
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ValueError("n must be an integer >= 2")
    if n <= 3:
        return Fraction(4, 3 * n)
    return Fraction(1, n - 1)


def adapted_split(pc: PointCurvature) -> AdaptedSplit:
    """Rotate the normal frame so the first normal is H/|H| and split |h0|^2.

    Also cross-checks the exact identity R2 = |h01|^2 |H|^2 + |H|^4 / n, which
    ties the split to the reaction term.
    """
    normH, h01sq, hmsq = (float(x[0]) for x in batch_adapted_split(pc.h[None]))
    _, R2 = reaction_terms(pc)
    expected = h01sq * normH ** 2 + normH ** 4 / pc.n
    if abs(R2 - expected) > 1e-10 * max(1.0, abs(R2)):
        raise AssertionError(
            f"adapted-split consistency failure: R2={R2!r} vs {expected!r}"
        )
    return AdaptedSplit(normH=normH, normh01sq=h01sq, normhminsq=hmsq)


def reaction_estimate_gap(pc: PointCurvature) -> float:
    """Slack of R1 - R2/n below the adapted-frame quartic bound (>= 0 up to
    roundoff of order 1e-10 * (1 + |h|^4))."""
    return float(batch_reaction_estimate_gap(pc.h[None])[0])
