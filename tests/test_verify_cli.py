"""Verification suites and the command-line surface: report format, exit
codes, manifests, and byte-level determinism."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mcflow.cli import main
from mcflow.verify import REPORT_COLUMNS, SUITES, run_suite, write_report


class TestSuites:
    @pytest.mark.parametrize("name", list(SUITES))
    def test_small_runs_are_clean(self, name):
        rows = run_suite(name, 2000, seed=11)
        assert rows, f"suite {name} produced no cells"
        assert sum(r.violations for r in rows) == 0

    def test_unknown_suite(self):
        with pytest.raises(KeyError):
            run_suite("bogus", 10, 1)

    def test_seeds_reproduce_margins(self):
        a = run_suite("reaction", 3000, seed=5)
        b = run_suite("reaction", 3000, seed=5)
        assert [r.worst_margin for r in a] == [r.worst_margin for r in b]

    def test_operator_pinch_skips_infeasible_cells(self):
        rows = run_suite("operator-pinch", 1000, seed=3)
        # eps = 0.1 requires eps < 1/(n(n-1)): only n = 2, 3 qualify
        strict = [r for r in rows if "eps=0.1" in r.suite]
        assert {r.n for r in strict} == {2, 3}

    def test_unpinched_c_yields_violations(self):
        rows = run_suite("reaction", 20_000, seed=42, n=4, c=0.5)
        assert sum(r.violations for r in rows) > 0

    def test_report_format(self, tmp_path):
        rows = run_suite("lemma31", 500, seed=9)
        path = tmp_path / "rep.csv"
        write_report(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(REPORT_COLUMNS)
        first = lines[1].split(",")
        assert first[0] == "lemma31"
        assert int(first[3]) > 0
        assert first[6] == "9"


def run_cli(*args):
    return main(list(args))


class TestCliSimulate:
    def test_small_sphere_run(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli("simulate", "--spec", "sphere", "--n", "2", "--k", "2",
                       "--radius", "1", "--grid", "16x32", "--t-end", "0.05",
                       "--snapshot-every", "10", "--out", str(out))
        assert code == 0
        assert (out / "diagnostics.csv").exists()
        assert (out / "manifest.json").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["stop_reason"] == "t_end"
        assert manifest["config"]["grid"] == "16x32"
        snaps = [f for f in os.listdir(out) if f.startswith("snap_")]
        assert manifest["outputs"][: len(snaps)] == sorted(snaps)

    def test_usage_errors(self, tmp_path):
        assert run_cli("simulate", "--spec", "sphere", "--grid", "4x8",
                       "--t-end", "0.1", "--out", str(tmp_path / "x")) == 64
        assert run_cli("simulate", "--grid", "16x32", "--t-end", "0.1",
                       "--out", str(tmp_path / "y")) == 64            # no --spec
        assert run_cli("simulate", "--spec", "sphere", "--grid", "16x32",
                       "--out", str(tmp_path / "z")) == 64            # no --t-end
        assert run_cli("nonsense") == 64
        assert run_cli("simulate", "--spec", "sphere", "--grid", "16x32",
                       "--t-end", "0.1", "--threads", "1",
                       "--out", str(tmp_path / "w")) == 64      # no such option

    @pytest.mark.parametrize("t_end", ["nan", "inf", "-1"])
    def test_meaningless_end_time_is_usage_error(self, tmp_path, capsys, t_end):
        out = tmp_path / "bad"
        code = run_cli("simulate", "--spec", "sphere", "--grid", "16x32",
                       "--t-end", t_end, "--out", str(out))
        assert code == 64
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("cap", ["nan", "-1", "0"])
    def test_meaningless_blowup_cap_is_usage_error(self, tmp_path, capsys, cap):
        out = tmp_path / "bad"
        code = run_cli("simulate", "--spec", "sphere", "--grid", "16x32",
                       "--t-end", "0.01", "--blowup-cap", cap, "--out", str(out))
        assert code == 64
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and err.count("\n") == 1
        assert not out.exists()

    def test_infinite_blowup_cap_means_no_cap(self, tmp_path):
        out = tmp_path / "nocap"
        assert run_cli("simulate", "--spec", "sphere", "--grid", "16x32", "--t-end", "0.01",
                       "--blowup-cap", "inf", "--out", str(out)) == 0
        assert json.loads((out / "manifest.json").read_text())["stop_reason"] == "t_end"

    @pytest.mark.parametrize("argv", [
        ("--t-end", "0.01", "--radius", "1e-160"),          # a stage turns non-finite
        ("--t0", "-1", "--t-end", "-0.9", "--cfl", "1e-300"),  # dt below the ulp of t
    ])
    def test_stalled_or_non_finite_run_ends_degenerate(self, tmp_path, capsys, argv):
        out = tmp_path / "run"
        code = run_cli("simulate", "--spec", "sphere", "--grid", "16x32", "--max-steps", "20",
                       *argv, "--out", str(out))
        assert code == 3
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 and lines[0].startswith("degenerate:")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["stop_reason"] == "degenerate"
        assert manifest["outputs"] == ["snap_000000.txt", "diagnostics.csv"]
        assert all((out / name).exists() for name in manifest["outputs"])

    def test_non_finite_seed_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "bad"
        assert run_cli("simulate", "--spec", "sphere", "--grid", "16x32", "--t-end", "0.01",
                       "--radius", "nan", "--out", str(out)) == 64
        assert capsys.readouterr().err.startswith("usage error:")
        assert not out.exists()

    def test_blowup_exit_code(self, tmp_path):
        out = tmp_path / "blow"
        code = run_cli("simulate", "--spec", "sphere", "--grid", "16x32",
                       "--t-end", "0.24", "--blowup-cap", "50",
                       "--out", str(out))
        assert code == 2

    def test_veronese_static_diagnostics(self, tmp_path):
        out = tmp_path / "ver"
        code = run_cli("simulate", "--spec", "veronese", "--grid", "32x64",
                       "--t-end", "0", "--out", str(out))
        assert code == 0
        rows = (out / "diagnostics.csv").read_text().splitlines()
        assert len(rows) == 2   # header + single record
        max_ratio = float(rows[1].split(",")[5])
        assert abs(max_ratio - 5.0 / 6.0) <= 1e-3

    def test_torus_seed_flows(self, tmp_path):
        out = tmp_path / "torus"
        code = run_cli("simulate", "--spec", "torus", "--grid", "16x16",
                       "--radius", "1", "--t-end", "0.02",
                       "--snapshot-every", "5", "--out", str(out))
        assert code == 0
        rows = (out / "diagnostics.csv").read_text().splitlines()[1:]
        areas = [float(r.split(",")[1]) for r in rows]
        assert all(b < a for a, b in zip(areas, areas[1:]))
        # flat seed: Gauss curvature integral starts at ~0
        assert abs(float(rows[0].split(",")[8])) <= 1e-6

    def test_config_file_precedence(self, tmp_path):
        cfg = tmp_path / "flow.cfg"
        cfg.write_text("spec=sphere\ngrid=16x32\nt_end=0.02\nsnapshot_every=5\n")
        out = tmp_path / "run"
        code = run_cli("simulate", "--config", str(cfg), "--t-end", "0.01",
                       "--out", str(out))
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["t_end"] == 0.01     # flag beats config file
        assert manifest["config"]["snapshot_every"] == 5

    @pytest.mark.parametrize("line", ["spec=cube", "mode=sideways"])
    def test_bad_config_choice_is_usage_error(self, tmp_path, capsys, line):
        cfg = tmp_path / "flow.cfg"
        cfg.write_text(f"spec=sphere\ngrid=16x32\nt_end=0.01\n{line}\n")
        capsys.readouterr()
        assert run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "run")) == 64
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and err.count("\n") == 1


class TestCliVerify:
    def test_clean_suite_exit_zero(self, tmp_path):
        rep = tmp_path / "r.csv"
        assert run_cli("verify", "--suite", "lemma31", "--samples", "500",
                       "--seed", "1", "--out", str(rep)) == 0
        assert rep.exists()

    def test_violations_exit_one(self, tmp_path):
        rep = tmp_path / "r.csv"
        code = run_cli("verify", "--suite", "reaction", "--c", "0.5", "--n", "4",
                       "--samples", "20000", "--out", str(rep))
        assert code == 1

    def test_unknown_suite_usage(self, tmp_path):
        assert run_cli("verify", "--suite", "wat") == 64

    def test_config_file_sets_suite_options(self, tmp_path):
        cfg = tmp_path / "verify.cfg"
        cfg.write_text("suite=reaction\nn=4\nc=0.5\nsamples=20000\n")
        by_file, by_flags = tmp_path / "file.csv", tmp_path / "flags.csv"
        assert run_cli("verify", "--config", str(cfg), "--out", str(by_file)) == 1
        assert run_cli("verify", "--suite", "reaction", "--n", "4", "--c", "0.5",
                       "--samples", "20000", "--out", str(by_flags)) == 1
        assert by_file.read_bytes() == by_flags.read_bytes()
        rows = by_file.read_text().splitlines()[1:]
        assert {int(r.split(",")[1]) for r in rows} == {4}
        assert sum(int(r.split(",")[4]) for r in rows) > 0

    @pytest.mark.parametrize("argv", [
        ("--suite", "lemma31", "--samples", "0"),
        ("--suite", "reaction", "--samples", "-5"),
        ("--suite", "all", "--samples", "20"),            # operator-pinch has 28 cells
        ("--suite", "lemma31", "--n", "1"),
        ("--suite", "operator-pinch", "--n", "1"),
        ("--suite", "sphere-case1", "--n", "3"),
        ("--suite", "all", "--n", "4"),                   # f-bound needs n >= 5
        ("--suite", "reaction", "--n", "0"),
        ("--suite", "adapted-r2", "--k", "0"),
        ("--suite", "reaction", "--n", "4", "--c", "0.2"),  # c <= 1/n: no cell
        ("--suite", "f-bound", "--eps", "nan"),
        ("--suite", "lemma31", "--threads", "1"),
        ("--suite", "lemma31", "--samples", "100", "--out", "{tmp}/missing/r.csv"),
        ("--suite", "sphere-case1", "--r-amb", "1e300"),  # K = 1/R^2 underflows
        ("--suite", "f-bound", "--r-amb", "1e-300"),      # K overflows
    ])
    def test_meaningless_run_is_usage_error(self, tmp_path, capsys, argv):
        rep = tmp_path / "r.csv"
        argv = [a.format(tmp=tmp_path) for a in argv]   # a later --out wins
        assert run_cli("verify", "--out", str(rep), *argv) == 64
        captured = capsys.readouterr()
        assert captured.err.startswith("usage error:") and captured.err.count("\n") == 1
        assert captured.out == ""
        assert not rep.exists()

    def test_all_suites_in_one_report(self, tmp_path):
        rep = tmp_path / "all.csv"
        assert run_cli("verify", "--suite", "all", "--samples", "700",
                       "--seed", "2", "--out", str(rep)) == 0
        names = {line.split(",")[0].split("[")[0]
                 for line in rep.read_text().splitlines()[1:]}
        assert names == set(SUITES)


class TestCliReport:
    @pytest.fixture()
    def run_dir(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli("simulate", "--spec", "sphere", "--k", "2",
                       "--grid", "16x32", "--t-end", "0.17",
                       "--snapshot-every", "8", "--out", str(out))
        assert code == 0
        return out

    def test_classify_and_fit(self, run_dir):
        assert run_cli("report", "--in", str(run_dir), "--classify",
                       "--fit-area-decay") == 0
        kind, c, c2, sup, trend = (run_dir / "classify.csv").read_text() \
            .splitlines()[1].split(",")
        assert kind == "TypeI"
        assert abs(float(c2) - 1.0) <= 1e-2
        _, r, _ = (run_dir / "area_fit.csv").read_text().splitlines()[1].split(",")
        assert abs(float(r) - 1.0) <= 0.02

    def test_rescale_type2_outputs(self, run_dir):
        assert run_cli("report", "--in", str(run_dir), "--rescale", "type2") == 0
        sub = run_dir / "rescale_type2"
        assert (sub / "summary.csv").exists()
        rows = (sub / "summary.csv").read_text().splitlines()[1:]
        taus = [float(r.split(",")[0]) for r in rows]
        max_h_at_0 = [float(r.split(",")[1]) for r in rows if abs(float(r.split(",")[0])) < 1e-12]
        assert len(max_h_at_0) == 1
        assert abs(max_h_at_0[0] - 1.0) <= 1e-10

    def test_missing_directory_is_data_error(self, tmp_path):
        assert run_cli("report", "--in", str(tmp_path / "absent"), "--classify") == 65

    def test_ancient_run_and_type1_rescale(self, tmp_path):
        out = tmp_path / "anc"
        code = run_cli("simulate", "--spec", "sphere", "--grid", "16x32",
                       "--mode", "ancient", "--t0", "-0.25", "--t-end", "-0.12",
                       "--snapshot-every", "2", "--out", str(out))
        assert code == 0
        assert run_cli("report", "--in", str(out), "--rescale", "type1",
                       "--tj", "-0.124") == 0
        rows = (out / "rescale_type1" / "summary.csv").read_text().splitlines()[1:]
        # rescaled sphere trajectory: |H| = n / sqrt(-2 n tau) = 1/sqrt(-tau)
        for row in rows:
            tau, max_h, _ = row.split(",")
            expect = (-float(tau)) ** -0.5
            assert abs(float(max_h) / expect - 1.0) <= 1e-2

    def test_reused_out_is_refused(self, tmp_path, capsys):
        out = tmp_path / "reused"
        argv = ("simulate", "--spec", "sphere", "--grid", "16x32", "--t-end", "0.05",
                "--out", str(out))
        assert run_cli(*argv, "--snapshot-every", "5") == 0
        before = {f: (out / f).read_bytes() for f in os.listdir(out)}
        capsys.readouterr()
        assert run_cli(*argv, "--snapshot-every", "100") == 64
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and err.count("\n") == 1
        assert "holds an earlier run" in err
        assert {f: (out / f).read_bytes() for f in os.listdir(out)} == before
        # a directory holding a stray snapshot and no manifest is refused too
        stray = tmp_path / "stray"
        stray.mkdir()
        (stray / "snap_000000.txt").write_text("")
        assert run_cli("simulate", "--spec", "sphere", "--grid", "16x32",
                       "--t-end", "0.05", "--out", str(stray)) == 64
        capsys.readouterr()
        assert run_cli("simulate", "--spec", "sphere", "--grid", "16x32",
                       "--t-end", "0.05", "--out", str(stray / "snap_000000.txt")) == 64
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "not a directory" in err

    def test_report_reads_only_the_listed_snapshots(self, tmp_path, capsys):
        from mcflow.cli import _load_trajectory
        out = tmp_path / "run"
        assert run_cli("simulate", "--spec", "sphere", "--grid", "16x32", "--t-end", "0.05",
                       "--snapshot-every", "100", "--out", str(out)) == 0
        # a snapshot the manifest does not list is ignored
        stray = (out / "snap_000000.txt").read_text()
        (out / "snap_999999.txt").write_text(stray)
        traj = _load_trajectory(str(out))
        assert len(traj.snapshots) == len(traj.diagnostics) == 2
        capsys.readouterr()
        assert run_cli("report", "--in", str(out), "--classify") == 65
        err = capsys.readouterr().err   # two records are too few to classify
        assert err.startswith("data error: need >= 10 records") and err.count("\n") == 1
        assert (out / "snap_999999.txt").read_text() == stray

    def test_rescale_replaces_an_earlier_report(self, tmp_path):
        out = tmp_path / "rerun"
        sub = out / "rescale_type2"
        for every in ("10", "1000"):
            assert run_cli("simulate", "--spec", "sphere", "--grid", "16x32",
                           "--mode", "ancient", "--t0", "-0.25", "--t-end", "-0.12",
                           "--snapshot-every", every, "--out", str(out)) == 0
            assert run_cli("report", "--in", str(out), "--rescale", "type2") == 0
            (sub / "notes.txt").write_text("not written by report\n")
            # remove the run, so that the next simulate may reuse the directory
            manifest = json.loads((out / "manifest.json").read_text())
            for name in manifest["outputs"] + ["manifest.json"]:
                (out / name).unlink()
        snaps = [f for f in os.listdir(sub) if f.startswith("snap_")]
        rows = (sub / "summary.csv").read_text().splitlines()[1:]
        assert len(snaps) == len(rows) == 2
        assert (sub / "notes.txt").exists()

    def test_out_of_order_manifest_is_data_error(self, run_dir, capsys):
        path = run_dir / "manifest.json"
        manifest = json.loads(path.read_text())
        snaps = [f for f in manifest["outputs"] if f.startswith("snap_")]
        manifest["outputs"] = snaps[::-1] + ["diagnostics.csv"]
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert run_cli("report", "--in", str(run_dir), "--classify") == 65
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_corrupt_snapshot_is_data_error(self, run_dir):
        snaps = sorted(f for f in os.listdir(run_dir) if f.startswith("snap_"))
        (run_dir / snaps[0]).write_text("MCFLOW v1 garbage\n")
        assert run_cli("report", "--in", str(run_dir), "--classify") == 65

    def test_truncated_diagnostics_row_is_data_error(self, run_dir, capsys):
        path = run_dir / "diagnostics.csv"
        lines = path.read_text().splitlines()
        lines[2] = ",".join(lines[2].split(",")[:7])
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run_cli("report", "--in", str(run_dir), "--classify") == 65
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1

    def test_bad_fit_window_is_usage_error(self, run_dir, capsys):
        capsys.readouterr()
        assert run_cli("report", "--in", str(run_dir), "--fit-area-decay",
                       "--fit-window", "0.1") == 64
        err = capsys.readouterr().err
        assert err == "usage error: bad window '0.1'; expected lo:hi\n"
        assert not (run_dir / "area_fit.csv").exists()

    def test_config_file_sets_report_options(self, run_dir, tmp_path):
        outputs = ("classify.csv", "rescale_type2/summary.csv")
        assert run_cli("report", "--in", str(run_dir), "--rescale", "type2",
                       "--classify") == 0
        by_flags = [(run_dir / f).read_bytes() for f in outputs]
        (run_dir / "classify.csv").unlink()
        (run_dir / "rescale_type2" / "summary.csv").unlink()
        cfg = tmp_path / "report.cfg"
        cfg.write_text(f"in_dir={run_dir}\nrescale=type2\nclassify=1\n")
        assert run_cli("report", "--config", str(cfg)) == 0
        assert [(run_dir / f).read_bytes() for f in outputs] == by_flags

    @pytest.mark.parametrize("line", ["rescale=type3", "tj=soon", "n_tau=many", "n_tau=0",
                                      "classify=maybe", "fit_window=abc"])
    def test_bad_config_value_is_usage_error(self, run_dir, tmp_path, capsys, line):
        cfg = tmp_path / "report.cfg"
        cfg.write_text(f"in_dir={run_dir}\nrescale=type1\n{line}\n")
        capsys.readouterr()
        assert run_cli("report", "--config", str(cfg)) == 64
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and err.count("\n") == 1
        assert not (run_dir / "rescale_type1").exists()


DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "verify_all_2000_seed42.csv"


def assert_matches_golden(path, golden):
    """Header and row count exactly; numeric fields within 1e-12 absolute +
    1e-9 relative (LAPACK builds may differ in the last digits), the others
    exactly."""
    got, want = Path(path).read_text().splitlines(), golden.read_text().splitlines()
    assert got[0] == want[0] and len(got) == len(want), golden.name
    for g_row, w_row in zip(got[1:], want[1:]):
        g_vals, w_vals = g_row.split(","), w_row.split(",")
        assert len(g_vals) == len(w_vals), golden.name
        for col, g, w in zip(want[0].split(","), g_vals, w_vals):
            try:
                gv, wv = float(g), float(w)
            except ValueError:
                assert g == w, (golden.name, col)
                continue
            assert g == w or abs(gv - wv) <= 1e-12 + 1e-9 * abs(wv), (golden.name, col, g, w)


class TestDeterminism:
    def test_verify_reports_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run_cli("verify", "--suite", "reaction", "--samples", "5000",
                           "--seed", "42", "--out", str(out)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_simulate_csv_byte_identical(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run_cli("simulate", "--spec", "sphere", "--grid", "16x32",
                           "--t-end", "0.03", "--out", str(out)) == 0
            outs.append((out / "diagnostics.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_report_matches_golden(self, tmp_path):
        """Cell order, labels, sample split and per-cell seeding of
        ``verify --suite all --samples 2000 --seed 42`` against a committed
        report; worst margins to 1e-12 absolute + 1e-9 relative, since LAPACK
        builds may differ in the last digits."""
        rep = tmp_path / "all.csv"
        assert run_cli("verify", "--suite", "all", "--samples", "2000",
                       "--seed", "42", "--out", str(rep)) == 0
        with open(GOLDEN) as fh:
            want = list(csv.DictReader(fh))
        with open(rep) as fh:
            got = list(csv.DictReader(fh))
        assert rep.read_text().splitlines()[0] == GOLDEN.read_text().splitlines()[0]
        assert len(got) == len(want) == 95
        exact = ("suite", "n", "k", "samples", "violations", "seed")
        for g, w in zip(got, want):
            assert [g[c] for c in exact] == [w[c] for c in exact]
            gm, wm = float(g["worstMargin"]), float(w["worstMargin"])
            assert abs(gm - wm) <= 1e-12 + 1e-9 * abs(wm), (w["suite"], w["n"], w["k"])

    FORWARD_GOLDENS = (("diagnostics.csv", "sphere_k2_16x32_perturb_diagnostics.csv"),)
    ANCIENT_GOLDENS = tuple(
        (name, f"veronese_24x48_ancient_{golden}.csv")
        for name, golden in (("diagnostics.csv", "diagnostics"), ("classify.csv", "classify"),
                             ("area_fit.csv", "area_fit"),
                             ("rescale_type2/summary.csv", "type2_summary")))

    @pytest.fixture(scope="class")
    def forward_run(self, tmp_path_factory):
        """A perturbed 16x32 sphere in R^4 flowed forward to t = 0.17."""
        out = tmp_path_factory.mktemp("golden") / "pert"
        assert run_cli("simulate", "--spec", "sphere", "--k", "2", "--grid", "16x32",
                       "--perturb", "0.02:3", "--t-end", "0.17", "--out", str(out)) == 0
        return out

    @pytest.fixture(scope="class")
    def ancient_run(self, tmp_path_factory):
        """An Ancient Veronese run recording every step, then its type-I
        classification, area fit and type-2 blow-up."""
        out = tmp_path_factory.mktemp("golden") / "ver"
        assert run_cli("simulate", "--spec", "veronese", "--grid", "24x48",
                       "--mode", "ancient", "--t0", "-1", "--t-end", "-0.9",
                       "--snapshot-every", "1", "--out", str(out)) == 0
        assert run_cli("report", "--in", str(out), "--classify", "--fit-area-decay",
                       "--rescale", "type2") == 0
        return out

    def test_forward_flow_matches_golden(self, forward_run):
        """The flow path pinned like the fuzz report, against committed
        diagnostics."""
        for name, golden in self.FORWARD_GOLDENS:
            assert_matches_golden(forward_run / name, DATA / golden)

    def test_ancient_report_matches_golden(self, ancient_run):
        for name, golden in self.ANCIENT_GOLDENS:
            assert_matches_golden(ancient_run / name, DATA / golden)

    def test_flow_goldens_match_byte_for_byte(self, forward_run, ancient_run):
        """The same files, byte for byte: a change to the order of the flow's
        arithmetic shows here before it shows in the tolerances above."""
        for run, goldens in ((forward_run, self.FORWARD_GOLDENS),
                             (ancient_run, self.ANCIENT_GOLDENS)):
            for name, golden in goldens:
                assert (run / name).read_bytes() == (DATA / golden).read_bytes(), golden

    def test_entry_point_subprocess(self, tmp_path):
        # the installed console script path works end to end
        res = subprocess.run(
            [sys.executable, "-m", "mcflow.cli", "verify", "--suite", "lemma31",
             "--samples", "200", "--out", str(tmp_path / "r.csv")],
            capture_output=True, text=True)
        assert res.returncode == 0
        assert "violations=0" in res.stdout
