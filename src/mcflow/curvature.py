"""Frame-adapted curvature algebra of second fundamental forms.

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
* adapted split: h01 is the slice of h0 along H/|H| and hm the rest, so
  |h0|^2 = |h01|^2 + |hm|^2 and R2 = |h01|^2 |H|^2 + |H|^4 / n (|H| > 0)

Everything is homogeneous under ``h -> lam * h``: degree-2 scalars (|h|^2,
|H|^2, Sc, operator eigenvalues) pick up ``lam^2``, the reaction terms pick up
``lam^4``, and the pinching ratio |h|^2/|H|^2 is invariant.

Every kernel is pure and takes a stack of tensors of shape ``(B, n, n, k)``;
one tensor ``h`` is the stack ``h[None]``, and its values are row 0 of the
results.  The kernels do not check symmetry or finiteness; callers pass
finite tensors symmetric in (i, j).  ``cn`` is the theorem's pinching
constant.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from .errors import MinimalPointError

__all__ = [
    "cn", "batch_mean_vector", "batch_scalars", "batch_traceless", "batch_normal_curvature",
    "batch_reaction_terms", "batch_gauss_operator", "batch_adapted_split",
    "batch_reaction_estimate_gap",
]


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
    in any block or batch: the results do not depend on the block, and one
    tensor ``h`` gets from ``batch_reaction_terms(h[None])`` the bits of its
    row in any stack.  The fixed block bounds the memory, not the batch size.
    """
    R1, R2 = np.empty(h.shape[0]), np.empty(h.shape[0])
    for start in range(0, h.shape[0], _REACTION_BLOCK):
        end = start + _REACTION_BLOCK
        R1[start:end], R2[start:end] = _reaction_block(h[start:end])
    return R1, R2


def batch_gauss_operator(h: np.ndarray, ambient_k: float = 0.0) -> np.ndarray:
    """Curvature operator matrices, shape (B, N, N) with N = n(n-1)/2.

    Only the N x N entries on bivector pairs are computed: row p = (i, j),
    i < j in lexicographic order, is R_ij(kl) = sum_a h_ika h_jla - h_jka h_ila
    over the columns (k, l), one two-operand product per term.
    """
    n = h.shape[1]
    pairs = list(itertools.combinations(range(n), 2))  # lexicographic, i < j
    ii = np.array([p[0] for p in pairs])
    jj = np.array([p[1] for p in pairs])
    mat = np.empty((h.shape[0], len(pairs), len(pairs)))
    for p, (i, j) in enumerate(pairs):
        mat[:, p] = (np.einsum("bqa,bqa->bq", h[:, i, ii], h[:, j, jj])
                     - np.einsum("bqa,bqa->bq", h[:, j, ii], h[:, i, jj]))
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


def cn(n: int) -> Fraction:
    """The dimension-dependent pinching constant: 4/(3n) for n in {2, 3},
    1/(n-1) for n >= 4, as an exact rational."""
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ValueError("n must be an integer >= 2")
    if n <= 3:
        return Fraction(4, 3 * n)
    return Fraction(1, n - 1)
