"""Streamed ``simulate`` and ``report``: the files of a run collected in
memory byte for byte, the type-2 base of an exhaustive search, and memory
that stays flat as the records grow."""

import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import mcflow.cli as cli
from mcflow.cli import main
from mcflow.flow import (
    FlowConfig,
    Trajectory,
    _type2_candidates,
    blowup_type2,
    diagnostics,
    read_diagnostics_csv,
    rescale_type1,
    write_diagnostics_csv,
)
from mcflow.grid import ParamGrid
from mcflow.immersion import load_snapshot, save_snapshot, scalar_fields
from mcflow.solutions import SolutionSpec, seed_immersion
from conftest import collect_run


def run_cli(*argv):
    return main([str(a) for a in argv])


def tree(root):
    """Every file under ``root`` but the manifest, by relative path."""
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file() and p.name != "manifest.json"}


def write_in_memory(snaps, traj, slices, rescale, out):
    """The files of ``simulate`` and ``report --rescale``, written from a run's
    snapshots in a list, its trajectory and its rescaled slices."""
    out.mkdir()
    for i, snap in enumerate(snaps):
        save_snapshot(snap, out / f"snap_{i:06d}.txt")
    write_diagnostics_csv(traj.diagnostics, out / "diagnostics.csv")
    sub = out / f"rescale_{rescale}"
    sub.mkdir()
    lines = ["tau,maxH,maxRatio"]
    for i, snap in enumerate(slices):
        save_snapshot(snap, sub / f"snap_{i:06d}.txt")
        gf = scalar_fields(snap)
        lines.append(f"{snap.t:.17g},{math.sqrt(gf.normH2.max()):.17g},{gf.max_ratio:.17g}")
    (sub / "summary.csv").write_text("\n".join(lines) + "\n")


def exhaustive_base(snaps, mode, T):
    """The type-2 base ``(L, node, t)`` by the exact key (-q, t, node) over
    every snapshot, with q = (-t) max|H|^2 (Ancient) or (T - t) max|H|^2."""
    best = None
    for s in snaps:
        h2 = scalar_fields(s).normH2.reshape(-1)
        idx = int(np.argmax(h2))
        q = (-s.t if mode == "Ancient" else T - s.t) * float(h2[idx])
        if best is None or (-q, s.t, idx) < best[0]:
            best = (-q, s.t, idx), float(h2[idx])
    (_, t, idx), L = best
    return L, idx, t


# name: (seed spec, grid, mode, t0, config, simulate argv, report argv)
RUNS = {
    "ancient-veronese-type2": (
        SolutionSpec(kind="Veronese", n=2, k=3), (24, 48), "Ancient", -1.0,
        FlowConfig(t_end=-0.9, snapshot_every=1),
        ["--spec", "veronese", "--grid", "24x48", "--mode", "ancient", "--t0", "-1",
         "--t-end", "-0.9", "--snapshot-every", "1"],
        ["--rescale", "type2"]),
    "forward-perturbed-sphere-type2": (
        SolutionSpec(kind="Sphere", n=2, k=2, perturb_amp=0.02, perturb_mode=3), (16, 32),
        "Forward", 0.0, FlowConfig(t_end=0.17, snapshot_every=5),
        ["--spec", "sphere", "--k", "2", "--grid", "16x32", "--perturb", "0.02:3",
         "--t-end", "0.17", "--snapshot-every", "5"],
        ["--rescale", "type2"]),
    "ancient-sphere-type1": (
        SolutionSpec(kind="Sphere", n=2, k=1), (16, 32), "Ancient", -0.25,
        FlowConfig(t_end=-0.12, snapshot_every=2),
        ["--spec", "sphere", "--grid", "16x32", "--mode", "ancient", "--t0", "-0.25",
         "--t-end", "-0.12", "--snapshot-every", "2"],
        ["--rescale", "type1", "--tj", "-0.124"]),
}


@pytest.mark.parametrize("name", list(RUNS))
def test_streamed_files_match_the_in_memory_path(tmp_path, name):
    spec, res, mode, t0, config, sim_argv, report_argv = RUNS[name]
    streamed = tmp_path / "streamed"
    assert run_cli("simulate", *sim_argv, "--out", streamed) == 0
    assert run_cli("report", "--in", streamed, *report_argv) == 0

    snaps, traj = collect_run(seed_immersion(spec, ParamGrid("LatLongSphere", res), t0),
                              config, mode=mode)
    if report_argv[1] == "type2":
        slices, *_ = blowup_type2(traj, snaps.__getitem__)
    else:
        slices, *_ = rescale_type1(traj, snaps.__getitem__, float(report_argv[3]))
    write_in_memory(snaps, traj, slices, report_argv[1], tmp_path / "in_memory")

    got, want = tree(streamed), tree(tmp_path / "in_memory")
    assert sorted(got) == sorted(want)
    assert [f for f in got if got[f] != want[f]] == []


def spy_on_base(monkeypatch):
    """The (L, base point, base time) that ``report`` chose, once it runs."""
    seen = {}
    real = cli.blowup_type2

    def spy(*args, **kwargs):
        out = real(*args, **kwargs)
        seen["base"] = out[1:]
        return out
    monkeypatch.setattr(cli, "blowup_type2", spy)
    return seen


def load_run(out):
    manifest = json.loads((out / "manifest.json").read_text())
    snaps = [load_snapshot(out / f) for f in manifest["outputs"] if f.startswith("snap_")]
    return snaps, Trajectory(diagnostics=read_diagnostics_csv(out / "diagnostics.csv"),
                             mode=manifest["mode"], T_singular=manifest["T_singular"])


def test_report_base_matches_blowup_type2_on_a_forward_run(tmp_path, monkeypatch):
    out = tmp_path / "fwd"
    assert run_cli("simulate", "--spec", "sphere", "--k", "2", "--grid", "16x32",
                   "--perturb", "0.05:2", "--t-end", "0.1", "--snapshot-every", "3",
                   "--out", out) == 0
    snaps, traj = load_run(out)
    assert traj.mode == "Forward" and traj.T_singular is not None
    # the records narrow the search: they name fewer snapshots than the run holds
    assert 0 < len(_type2_candidates(traj.diagnostics)) < len(snaps)
    seen = spy_on_base(monkeypatch)
    assert run_cli("report", "--in", out, "--rescale", "type2") == 0
    assert seen["base"] == exhaustive_base(snaps, traj.mode, traj.T_singular)


def test_near_tie_is_decided_by_the_exact_key(tmp_path, monkeypatch):
    """Two records within 1e-12 of each other are both searched, and the
    exact key (-q, t, node) decides, even where the records rank them the
    other way round."""
    grid = ParamGrid("LatLongSphere", (16, 32))
    spec = SolutionSpec(kind="Sphere", n=2, k=1)
    # shrinking spheres have (-t) max|H|^2 = 1 up to roundoff at any time; the
    # last slice has the positions of t = -1 at t = -0.25, so its q is 1/4
    a, b = seed_immersion(spec, grid, -1.0), seed_immersion(spec, grid, -0.5)
    snaps = [a, b, a.with_positions(a.positions, -0.25)]
    records = [diagnostics(s, mode="Ancient") for s in snaps]
    want = exhaustive_base(snaps, "Ancient", None)
    win = [s.t for s in snaps].index(want[2])
    lose = 1 - win
    assert win in (0, 1)
    # the records put the exact loser 5e-13 above the winner
    records[lose] = replace(records[lose], tIq=records[win].tIq * (1.0 + 5e-13))
    assert max(range(3), key=lambda i: records[i].tIq) == lose
    assert list(_type2_candidates(records)) == [0, 1]

    out = tmp_path / "tie"
    out.mkdir()
    names = [f"snap_{i:06d}.txt" for i in range(len(snaps))]
    for name, snap in zip(names, snaps):
        save_snapshot(snap, out / name)
    write_diagnostics_csv(records, out / "diagnostics.csv")
    (out / "manifest.json").write_text(json.dumps({
        "mode": "Ancient", "T_singular": None, "stop_reason": "t_end",
        "outputs": names + ["diagnostics.csv"]}))
    seen = spy_on_base(monkeypatch)
    assert run_cli("report", "--in", out, "--rescale", "type2") == 0
    assert seen["base"] == want


# a generous bound on what one record costs the commands: its ten floats
# (about 380 bytes as a DiagnosticsRecord) plus its snapshot's file name and
# path; a snapshot of the 16x32 sphere in R^4 takes 16 KiB
RECORD_BYTES = 1024


def traced_peak(argv):
    tracemalloc.start()
    try:
        assert run_cli(*argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_stays_flat_as_records_grow(tmp_path):
    """The traced peaks of ``simulate`` and of ``report --rescale type2`` grow
    from 20 to 160 records by less than two snapshots plus the records
    themselves; holding every snapshot grows them by 140 snapshots."""
    def flow(records, out):
        return ("simulate", "--spec", "sphere", "--k", "2", "--grid", "16x32",
                "--t-end", "0.3", "--snapshot-every", "1", "--max-steps", records - 1,
                "--out", out)

    # a first round, so that lazy imports and caches land outside the figures
    run_cli(*flow(3, tmp_path / "warm"))
    run_cli("report", "--in", tmp_path / "warm", "--rescale", "type2")
    peaks = {}
    for records in (20, 160):
        out = tmp_path / f"r{records}"
        simulate = traced_peak(flow(records, out))
        report = traced_peak(("report", "--in", out, "--rescale", "type2"))
        assert len(read_diagnostics_csv(out / "diagnostics.csv")) == records
        peaks[records] = simulate, report
    snapshot_bytes = load_snapshot(tmp_path / "r20" / "snap_000000.txt").positions.nbytes
    budget = 2 * snapshot_bytes + 140 * RECORD_BYTES
    growth = [b - a for a, b in zip(peaks[20], peaks[160])]
    assert growth[0] < budget, f"simulate grew by {growth[0]} bytes"
    assert growth[1] < budget, f"report grew by {growth[1]} bytes"
