"""Correctness checks for the benchmark, written apart from mcflow.

Nothing here imports mcflow.  Outputs are read with the benchmark's own
parsers and held against closed-form laws, symmetries and invariants, or
against an index-loop recomputation of the reaction terms taken from the
definitions in the docstring of ``mcflow/curvature.py``:

    R1 = sum_ab (sum_ij h[i,j,a] h[i,j,b])^2 + |Rp|^2
    Rp[i,j,a,b] = sum_p h0[i,p,a] h0[j,p,b] - h0[j,p,a] h0[i,p,b]
    R2 = sum_ij (sum_a H_a h[i,j,a])^2

Tolerances are no looser than the acceptance tests use for the same law.  Every
check raises CheckFailed with a one-line reason, and the law checks return
the largest relative error they saw.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

# Tolerances, each named after the acceptance test it copies.
RADIUS_TOL = 5e-3          # half of criterion 5's radius tolerance for a flowed sphere
AREA_TOL = 1e-2            # criterion 5: area of a flowed sphere
GAUSS_BONNET_TOL = 5e-3    # criterion 5: Gauss curvature integral
VERONESE_RATIO_TOL = 1e-3  # criterion 4: Veronese pinching ratio 5/6
TYPE1_C2_TOL = 1e-2        # flowed-law tolerance of criterion 5, applied to C^2
AREA_EXPONENT_TOL = 2e-2   # TestAreaDecayFit: exponent of area ~ c |t|^r
TYPE2_L_TOL = 1e-2         # flowed-law tolerance of criterion 5, applied to L
TAU0_MAXH_TOL = 1e-10      # criterion 8: max |H| on the tau = 0 slice
MIN_REJECTION_SHARE = 0.99  # share of requested samples a rejection suite keeps
REACTION_RTOL = 1e-11      # index-loop R1, R2 against the batch kernels

SUITES = ("lemma31", "operator-pinch", "reaction", "adapted-r2",
          "sphere-case1", "sphere-case2", "f-bound")
REJECTION_SUITES = ("operator-pinch", "reaction")


class CheckFailed(Exception):
    """An output of mcflow broke a law or an invariant."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# readers
# ---------------------------------------------------------------------------

def read_snapshot(path: str) -> tuple[float, np.ndarray]:
    """(t, positions of shape (nodes, n + k)) from a ``MCFLOW v1`` text file."""
    with open(path) as fh:
        header = fh.readline().split()
        body = fh.read()
    require(header[:2] == ["MCFLOW", "v1"], f"{path}: not a snapshot")
    fields = dict(tok.split("=", 1) for tok in header[2:])
    dim = int(fields["n"]) + int(fields["k"])
    r1, r2 = (int(r) for r in fields["res"].split("x"))
    coords = np.array(body.split(), dtype=float)
    require(coords.size == r1 * r2 * dim,
            f"{path}: {coords.size} numbers for {r1}x{r2} nodes in R^{dim}")
    return float(fields["t"]), coords.reshape(r1 * r2, dim)


def read_csv(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_manifest(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def snapshot_files(directory: str) -> list[str]:
    return sorted(f for f in os.listdir(directory)
                  if f.startswith("snap_") and f.endswith(".txt"))


# ---------------------------------------------------------------------------
# flows
# ---------------------------------------------------------------------------

def check_record_counts(manifest: dict, on_disk: list[str], rows: list[dict]) -> None:
    """Snapshots listed in the manifest, present on disk and diagnostics rows agree."""
    listed = [f for f in manifest["outputs"] if f.startswith("snap_")]
    require(listed == on_disk,
            f"manifest lists {len(listed)} snapshots, directory holds {len(on_disk)}")
    require(len(rows) == len(listed),
            f"{len(rows)} diagnostics rows against {len(listed)} snapshots")


def check_radius_law(snaps, radius, tol: float = RADIUS_TOL) -> float:
    """max over snapshots and nodes of |r / radius(t) - 1|."""
    worst = 0.0
    for t, pos in snaps:
        err = float(np.abs(np.linalg.norm(pos, axis=1) / radius(t) - 1.0).max())
        require(err <= tol, f"radius off the law by {err:.3e} at t={t!r}")
        worst = max(worst, err)
    return worst


def check_area_law(rows, area, tol: float = AREA_TOL) -> float:
    worst = 0.0
    for row in rows:
        t = float(row["t"])
        err = abs(float(row["area"]) / area(t) - 1.0)
        require(err <= tol, f"area off the law by {err:.3e} at t={t!r}")
        worst = max(worst, err)
    return worst


def check_gauss_bonnet(rows, tol: float = GAUSS_BONNET_TOL) -> float:
    """max over records of |int K dmu - 4 pi| / 4 pi."""
    worst = 0.0
    for row in rows:
        require(row["gaussBonnet"] != "", f"no Gauss-Bonnet value at t={row['t']}")
        err = abs(float(row["gaussBonnet"]) - 4.0 * math.pi) / (4.0 * math.pi)
        require(err <= tol, f"Gauss-Bonnet off 4 pi by {err:.3e} at t={row['t']}")
        worst = max(worst, err)
    return worst


def check_zero_coordinate(snaps, axis: int) -> None:
    """A seed symmetric under x -> -x along ``axis`` keeps that coordinate 0."""
    for t, pos in snaps:
        worst = float(np.abs(pos[:, axis]).max())
        require(worst == 0.0, f"coordinate {axis + 1} reaches {worst:.3e} at t={t!r}")


def check_pinched(rows) -> None:
    """minQ (the minimum of -Q over nodes) stays positive."""
    for row in rows:
        require(float(row["minQ"]) > 0.0, f"pinching lost at t={row['t']}: minQ={row['minQ']}")


def check_stop_reason(manifest: dict, expected: str = "t_end") -> None:
    got = manifest.get("stop_reason")
    require(got == expected, f"stop_reason {got!r}, expected {expected!r}")


def check_ratio(rows, value: float, tol: float = VERONESE_RATIO_TOL,
                column: str = "maxRatio") -> None:
    for row in rows:
        err = abs(float(row[column]) - value)
        require(err <= tol, f"pinching ratio {row[column]} is {err:.3e} off {value!r}")


def check_type1(classify_row: dict, c2: float, tol: float = TYPE1_C2_TOL) -> None:
    require(classify_row["kind"] == "TypeI", f"classified {classify_row['kind']}, expected TypeI")
    err = abs(float(classify_row["C2"]) / c2 - 1.0)
    require(err <= tol, f"type-I C^2={classify_row['C2']} is {err:.3e} off {c2!r}")


def check_area_exponent(fit_row: dict, r: float, tol: float = AREA_EXPONENT_TOL) -> None:
    err = abs(float(fit_row["r"]) - r)
    require(err <= tol, f"area-decay exponent {fit_row['r']} is {err:.3e} off {r!r}")


def check_type2(times, summary_rows, tol: float = TYPE2_L_TOL) -> None:
    """Curvature-normalised blow-up of an ancient run.

    ``times`` are the recorded times t_i and ``summary_rows`` the rescaled
    slices tau_i = (t_i - t_j) L in the same order.  The tau = 0 slice names
    t_j; L follows from the slice farthest from it.  Requires L = 1/(-t_j)
    and max |H| = 1 on the tau = 0 slice.
    """
    require(len(summary_rows) == len(times),
            f"{len(summary_rows)} rescaled slices against {len(times)} records")
    taus = [float(r["tau"]) for r in summary_rows]
    zero = [i for i, tau in enumerate(taus) if tau == 0.0]
    require(len(zero) == 1, f"{len(zero)} slices at tau = 0")
    j = zero[0]
    far = max(range(len(times)), key=lambda i: abs(times[i] - times[j]))
    require(far != j, "a single record cannot fix L")
    L = taus[far] / (times[far] - times[j])
    err = abs(L * -times[j] - 1.0)
    require(err <= tol, f"type-2 L={L!r} is {err:.3e} off 1/(-t_j) at t_j={times[j]!r}")
    maxH = float(summary_rows[j]["maxH"])
    require(abs(maxH - 1.0) <= TAU0_MAXH_TOL, f"tau = 0 slice has max|H|={maxH!r}")


# ---------------------------------------------------------------------------
# fuzz reports
# ---------------------------------------------------------------------------

def base_suite(label: str) -> str:
    return label.split("[", 1)[0]


def expected_cells(suite: str) -> set[tuple[str, int, int]]:
    """(row label, n, k) of every cell a default run of ``suite`` reports.

    Cells whose hypothesis class is empty are left out, as the suites do:
    operator pinching needs eps < 1/(n(n-1)), the reaction suite needs
    c = 4/(3n) - 0.01 > 1/n.
    """
    codims = range(1, 5)
    if suite == "lemma31":
        return {("lemma31", n, 0) for n in range(2, 9)}
    if suite == "operator-pinch":
        return {(f"operator-pinch[eps={eps}]", n, k)
                for eps in (0.01, 0.1) for n in range(2, 7) for k in codims
                if 1.0 / (n * (n - 1)) > eps}
    if suite == "reaction":
        return {("reaction", n, k) for n in (2, 3, 4) for k in codims
                if 4.0 / (3.0 * n) - 0.01 > 1.0 / n}
    if suite == "adapted-r2":
        return {("adapted-r2", n, k) for n in range(2, 6) for k in codims}
    if suite == "sphere-case1":
        return {(f"sphere-case1[delta={0.1 if n == 4 else 0.0}]", n, k)
                for n in (4, 5) for k in codims}
    if suite == "sphere-case2":
        return {("sphere-case2", n, k) for n in range(2, 6) for k in codims}
    if suite == "f-bound":
        return {("f-bound", n, k) for n in (5, 6) for k in codims}
    raise ValueError(f"unknown suite {suite!r}")


def check_fuzz_report(rows, suites, requested: int, seed: int) -> dict[str, int]:
    """Zero violations, the expected cells, and sample totals per suite.

    Returns the sample total of each suite.
    """
    cells = {(r["suite"], int(r["n"]), int(r["k"])) for r in rows}
    want = set().union(*(expected_cells(s) for s in suites))
    require(cells == want, f"cells differ: missing {sorted(want - cells)[:3]}, "
                           f"unexpected {sorted(cells - want)[:3]}")
    require(len(rows) == len(cells), "a cell is reported twice")
    totals = {s: 0 for s in suites}
    for r in rows:
        require(int(r["violations"]) == 0,
                f"{r['suite']} n={r['n']} k={r['k']}: {r['violations']} violations")
        require(int(r["seed"]) == seed, f"{r['suite']}: seed {r['seed']}, expected {seed}")
        totals[base_suite(r["suite"])] += int(r["samples"])
    for s, got in totals.items():
        if s in REJECTION_SUITES:
            ok = MIN_REJECTION_SHARE * requested <= got <= requested
        else:
            ok = got == requested
        require(ok, f"{s}: {got} samples for {requested} requested")
    return totals


def reaction_terms_loops(h: np.ndarray) -> tuple[float, float]:
    """R1 and R2 of one tensor h[i, j, a], by explicit index loops."""
    n, _, k = h.shape
    h = h.tolist()
    H = [sum(h[i][i][a] for i in range(n)) for a in range(k)]
    h0 = [[[h[i][j][a] - (H[a] / n if i == j else 0.0) for a in range(k)]
           for j in range(n)] for i in range(n)]
    r1 = 0.0
    for a in range(k):
        for b in range(k):
            c_ab = sum(h[i][j][a] * h[i][j][b] for i in range(n) for j in range(n))
            r1 += c_ab * c_ab
    for i in range(n):
        for j in range(n):
            for a in range(k):
                for b in range(k):
                    rp = sum(h0[i][p][a] * h0[j][p][b] - h0[j][p][a] * h0[i][p][b]
                             for p in range(n))
                    r1 += rp * rp
    r2 = 0.0
    for i in range(n):
        for j in range(n):
            t_ij = sum(H[a] * h[i][j][a] for a in range(k))
            r2 += t_ij * t_ij
    return r1, r2


def check_reaction_terms(h: np.ndarray, r1, r2, rtol: float = REACTION_RTOL) -> None:
    """Batch values (r1, r2) of a stack h (B, n, n, k) against the loops."""
    for b in range(h.shape[0]):
        want1, want2 = reaction_terms_loops(h[b])
        for name, got, want in (("R1", r1[b], want1), ("R2", r2[b], want2)):
            require(abs(got - want) <= rtol * abs(want),
                    f"{name} of sample {b}: {got!r} against {want!r} from the loops")


def check_pinching_bound(h: np.ndarray, c: float) -> None:
    """|h|^2 <= c |H|^2 for every tensor of a stack, by direct sums."""
    normh2 = (h ** 2).sum(axis=(1, 2, 3))
    Hv = np.trace(h, axis1=1, axis2=2)
    normH2 = (Hv ** 2).sum(axis=1)
    bad = np.flatnonzero(normh2 > c * normH2 * (1.0 + 1e-12))
    require(bad.size == 0, f"{bad.size} tensors break |h|^2 <= {c} |H|^2")
