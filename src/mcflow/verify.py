"""Randomised verification suites for the pointwise curvature estimates.

Each suite draws seeded samples, checks one inequality or identity on every
sample, and reports one row per (dimension, codimension) cell:

    suite, n, k, samples, violations, worstMargin, seed

``worstMargin`` is the minimum over samples of the quantity that the claim
requires to be nonnegative (or positive); a violation is a sample on the
wrong side of the stated tolerance.  Cells whose hypothesis class is empty
(e.g. |h|^2 - |H|^2/(n-1) <= -eps |H|^2 needs eps < 1/(n(n-1))) are skipped.

The suites are the entries of ``_TABLE``: a cell builder (options -> (label,
n, k, params)), a batch function ((rng, take, n, k, params) -> (margins,
samples drawn)), the violation rule (margin < -tol, or <= -tol for a strict
claim) and the least n of the claim.  One loop, ``_run``, draws each cell
from its own generator, derived from the base seed, so a report is
reproducible from its seed column alone.  A run with no cell, fewer samples
than cells, a smaller n or k < 1 raises ``ValueError`` before it samples.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import sampling
from .curvature import (
    batch_adapted_split,
    batch_gauss_operator,
    batch_reaction_terms,
    batch_scalars,
)
from .sphere import SphereAmbient, batch_aux_f, batch_term_II

__all__ = ["SuiteRow", "SUITES", "run_suite", "write_report", "REPORT_COLUMNS"]

REPORT_COLUMNS = ("suite", "n", "k", "samples", "violations", "worstMargin", "seed")

_BATCH = 50_000

_SUITE_IDS = {"lemma31": 1, "operator-pinch": 2, "reaction": 3, "adapted-r2": 4,
              "sphere-case1": 5, "sphere-case2": 6, "f-bound": 7}


@dataclass(frozen=True)
class SuiteRow:
    suite: str
    n: int
    k: int
    samples: int
    violations: int
    worst_margin: float
    seed: int


def _split(total: int, cells: int) -> list[int]:
    base, extra = divmod(total, cells)
    return [base + (1 if i < extra else 0) for i in range(cells)]


def _batches(count: int) -> list[int]:
    return [min(_BATCH, count - i) for i in range(0, count, _BATCH)]


def _grid(n, k, dims, codims=range(1, 5)) -> list[tuple[int, int]]:
    """(n, k) cells: the given n and k, or the suite's defaults for either."""
    return [(d, c) for d in ([n] if n is not None else dims)
            for c in ([k] if k is not None else codims)]


# batch functions: (rng, take, n, k, params) -> (margins, samples drawn)

def _lemma31(rng, take, n, k, p):
    """Two-sided check of the eigenvalue-pair trace identity over all pairs;
    tolerance 1e-10 * (1 + |B|^2)."""
    a = rng.standard_normal((take, n, n))
    kappa = np.linalg.eigvalsh((a + a.transpose(0, 2, 1)) / 2.0)
    tr = kappa.sum(axis=1)
    norm2 = (kappa ** 2).sum(axis=1)
    lhs = norm2 - tr ** 2 / (n - 1)
    m = tr / (n - 1)
    s_all = ((kappa - m[:, None]) ** 2).sum(axis=1)
    tol = 1e-10 * (1.0 + norm2)
    pairs = [(i1, i2) for i1 in range(n) for i2 in range(i1 + 1, n)]
    margins = np.empty((len(pairs), take))
    for row, (i1, i2) in enumerate(pairs):
        k1, k2 = kappa[:, i1], kappa[:, i2]
        rhs = (s_all - (k1 - m) ** 2 - (k2 - m) ** 2
               + (k1 + k2 - m) ** 2 - 2.0 * k1 * k2)
        margins[row] = tol - np.abs(lhs - rhs)
    return margins, take


def _operator_pinch(rng, take, n, k, p):
    """min eig of the curvature operator >= (eps/2)|H|^2 - 1e-9 |h|^2 under
    |h|^2 - |H|^2/(n-1) <= -eps |H|^2."""
    e = p["eps"]
    h = sampling.pinched_tensors(rng, take, n, k, 1.0 / (n - 1) - e)
    normH2, normh2, _ = batch_scalars(h)
    min_eig = np.linalg.eigvalsh(batch_gauss_operator(h))[:, 0]
    return min_eig - (e / 2.0) * normH2 + 1e-9 * normh2, h.shape[0]


def _reaction(rng, take, n, k, p):
    """R1 - c R2 < 0 under |h|^2 <= c |H|^2: the margin c R2 - R1 must be
    strictly positive."""
    h = sampling.pinched_tensors(rng, take, n, k, p["c"])
    r1, r2 = batch_reaction_terms(h)
    return p["c"] * r2 - r1, h.shape[0]


def _adapted_r2(rng, take, n, k, p):
    """Identity R2 = |h01|^2 |H|^2 + |H|^4 / n to 1e-10 relative."""
    h = sampling.symmetric_tensors(rng, take, n, k)
    normH2, _, _ = batch_scalars(h)
    keep = normH2 > 1e-12
    h, normH2 = h[keep], normH2[keep]
    _, r2 = batch_reaction_terms(h)
    _, h01sq, _ = batch_adapted_split(h)
    diff = np.abs(r2 - (h01sq * normH2 + normH2 ** 2 / n))
    return 1e-10 * np.maximum(1.0, np.abs(r2)) - diff, take


def _sphere_case1(rng, take, n, k, p):
    """II <= -2 theta K f with theta = 2 eps under the case-1 pinching
    (n = 4 uses slack delta = 0.1 by default, n >= 5 uses delta = 0)."""
    amb, eps, K = p["amb"], p["eps"], p["amb"].K
    if n == 4:
        cap = lambda H2: H2 / 12.0 + (2.0 - p["delta"]) * K
    else:
        cap = lambda H2: H2 / (n * (n - 1)) + 2.0 * K
    h = sampling.sphere_pinched_tensors(rng, take, n, k, cap)
    f = batch_aux_f(h, amb, eps)
    theta = 2.0 * eps
    return -2.0 * theta * K * f - batch_term_II(h, amb, eps), take


def _sphere_case2(rng, take, n, k, p):
    """II <= -4 n K f with b = 0 under |h|^2 <= (4/(3n)) |H|^2."""
    amb = p["amb"]
    h = sampling.sphere_pinched_tensors(rng, take, n, k, lambda H2: H2 / (3.0 * n))
    f = batch_aux_f(h, amb, 1.0)        # eps = 1 makes b = 0
    return -4.0 * n * amb.K * f - batch_term_II(h, amb, 1.0), take


def _f_bound(rng, take, n, k, p):
    """f <= 1 under the n >= 5 pinching |h|^2 - |H|^2/(n-1) <= 2K."""
    K = p["amb"].K
    h = sampling.sphere_pinched_tensors(
        rng, take, n, k, lambda H2: H2 / (n * (n - 1)) + 2.0 * K)
    return 1.0 - batch_aux_f(h, p["amb"], p["eps"]), take


# cell builders: options -> [(label, n, k, params)]

def _operator_pinch_cells(n, k, eps=None, **_):
    eps_grid = [eps] if eps is not None else [0.01, 0.1]
    return [(f"operator-pinch[eps={e}]", d, c, {"eps": e})
            for d, c in _grid(n, k, range(2, 7)) for e in eps_grid
            if sampling.pinched_cap(d, 1.0 / (d - 1) - e) > 0]


def _reaction_cells(n, k, c=None, **_):
    """Default c = 4/(3n) - 0.01.  Unpinchable c (<= 1/n) makes a cell empty;
    c beyond 4/(3n) is allowed and will generally produce violations."""
    cells = [(d, cod, c if c is not None else 4.0 / (3.0 * d) - 0.01)
             for d, cod in _grid(n, k, [2, 3, 4])]
    return [("reaction", d, cod, {"c": cd}) for d, cod, cd in cells
            if sampling.pinched_cap(d, cd) > 0]


def _sphere_cells(label, dims):
    """Cells of a spherical-background suite; ``label`` is formatted with the
    cell's params.  The case-1 slack delta defaults to 0.1 at n = 4, else 0."""
    def cells(n, k, eps=1e-3, delta=None, r_amb=1.0, **_):
        amb = SphereAmbient(r_amb)
        params = [(d, c, {"amb": amb, "eps": eps,
                          "delta": delta if delta is not None else (0.1 if d == 4 else 0.0)})
                  for d, c in _grid(n, k, dims)]
        return [(label.format(**p), d, c, p) for d, c, p in params]
    return cells


@dataclass(frozen=True)
class _Suite:
    cells: Callable[..., list]
    batch: Callable[..., tuple]
    least_n: int = 2
    tol: Callable[[dict], float] = lambda p: 0.0    # a violation: margin < -tol,
    strict: bool = False                             # or margin <= -tol if strict


_TABLE = {
    "lemma31": _Suite(lambda n, k, **_: [("lemma31", d, c, {})
                                         for d, c in _grid(n, 0, range(2, 9))], _lemma31),
    "operator-pinch": _Suite(_operator_pinch_cells, _operator_pinch),
    "reaction": _Suite(_reaction_cells, _reaction, strict=True),
    "adapted-r2": _Suite(lambda n, k, **_: [("adapted-r2", d, c, {})
                                            for d, c in _grid(n, k, range(2, 6))],
                         _adapted_r2),
    "sphere-case1": _Suite(_sphere_cells("sphere-case1[delta={delta}]", [4, 5]), _sphere_case1,
                           least_n=4, tol=lambda p: 1e-10 * p["amb"].K),
    "sphere-case2": _Suite(_sphere_cells("sphere-case2", [2, 3, 4, 5]), _sphere_case2,
                           tol=lambda p: 1e-10 * p["amb"].K),
    "f-bound": _Suite(_sphere_cells("f-bound", [5, 6]), _f_bound, least_n=5,
                      tol=lambda p: 1e-12),
}


def _cells(name: str, samples: int, n=None, k=None, **options) -> list[tuple]:
    """The cells of one suite, once the run is known to mean something."""
    least = _TABLE[name].least_n
    if n is not None and n < least:
        raise ValueError(f"{name} is only claimed for n >= {least}; got n={n}")
    if k is not None and k < 1:
        raise ValueError(f"k must be >= 1; got k={k}")
    cells = _TABLE[name].cells(n, k, **options)
    if not cells:
        raise ValueError(f"{name} has no cell whose hypothesis holds for these options")
    if samples < len(cells):
        raise ValueError(f"{name} needs a sample for each of its {len(cells)} cells; "
                         f"got samples={samples}")
    return cells


def _run(name: str, samples: int, seed: int, **options) -> list[SuiteRow]:
    """Split the samples over the suite's cells, draw each cell from its own
    generator, and keep its worst margin and its violation count."""
    suite = _TABLE[name]
    cells = _cells(name, samples, **options)
    rows = []
    for (label, dim, cod, params), count in zip(cells, _split(samples, len(cells))):
        rng = sampling.generator(seed, _SUITE_IDS[name], dim, cod)
        tol = suite.tol(params)
        worst, bad, drawn = math.inf, 0, 0
        for take in _batches(count):
            margin, got = suite.batch(rng, take, dim, cod, params)
            drawn += got
            bad += int((margin <= -tol).sum() if suite.strict else (margin < -tol).sum())
            worst = min(worst, float(margin.min()))
        rows.append(SuiteRow(label, dim, cod, drawn, bad, worst, seed))
    return rows


SUITES = {name: functools.partial(_run, name) for name in _TABLE}


def run_suite(name: str, samples: int, seed: int, **kwargs) -> list[SuiteRow]:
    """Run one named suite (or every suite for name == 'all'); every suite's
    options are checked before any of them runs."""
    if name != "all" and name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; expected one of "
                       f"{', '.join([*SUITES, 'all'])}")
    names = list(SUITES) if name == "all" else [name]
    for sub in names:
        _cells(sub, samples, **kwargs)
    return [row for sub in names for row in SUITES[sub](samples, seed, **kwargs)]


def write_report(rows: list[SuiteRow], path) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(REPORT_COLUMNS) + "\n")
        fh.writelines(f"{r.suite},{r.n},{r.k},{r.samples},{r.violations},"
                      f"{r.worst_margin:.17g},{r.seed}\n" for r in rows)
