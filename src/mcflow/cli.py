"""Command-line entry points: simulate, verify, report.

Exit codes: 0 success, 1 property violations, 2 blow-up cap stop,
3 geometry degeneracy, 64 usage error, 65 data error.

``simulate`` writes a JSON manifest (atomically, last) recording the command
line, the resolved configuration, the package version, wall-clock duration
and the list of output files; ``report`` reads the snapshots it lists.
An ``--out`` that holds an earlier run's manifest or snapshots is refused.
``verify`` writes only its CSV report, whose seed column reproduces it.
Every command runs in one process, in a fixed order, so re-running with the
same inputs reproduces all numeric outputs byte-for-byte.  Options may also
come from a ``--config`` file of ``key=value`` lines; a flag beats the file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

from . import __version__
from .errors import DegenerateGeometryError
from .flow import (
    FlowConfig,
    Trajectory,
    blowup_type2,
    classify_type,
    fit_area_decay,
    read_diagnostics_csv,
    rescale_type1,
    run,
    write_diagnostics_csv,
)
from .grid import ParamGrid
from .immersion import load_snapshot, save_snapshot, scalar_fields
from .solutions import SolutionSpec, seed_immersion
from .verify import SUITES, run_suite, write_report

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_BLOWUP = 2
EXIT_DEGENERATE = 3
EXIT_USAGE = 64
EXIT_DATA = 65


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _parse_pair(text: str, sep: str, casts, what: str, form: str) -> tuple:
    """Two values separated by ``sep`` (case-insensitive), cast by ``casts``;
    a usage error names the option and the expected form."""
    try:
        a, b = text.lower().split(sep)
        return casts[0](a), casts[1](b)
    except Exception:
        raise _UsageError(f"bad {what} {text!r}; expected {form}") from None


def _load_config_file(path) -> dict:
    values = {}
    try:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                key, _, val = line.partition("=")
                values[key.strip().replace("-", "_")] = val.strip()
    except OSError as exc:
        raise _UsageError(f"cannot read config file {path}: {exc}") from None
    return values


def _resolve(args, key: str, default, cast):
    """Precedence: explicit flag > config file > default.  A config value
    that ``cast`` refuses is a ValueError naming the key."""
    val = getattr(args, key, None)
    if val is not None:
        return val
    cfg = getattr(args, "_config_values", {})
    if key in cfg:
        try:
            return cast(cfg[key])
        except ValueError as exc:
            raise ValueError(f"bad {key} {cfg[key]!r} in the config file: {exc}") from None
    return default


def _choice(names):
    """Cast for the config value of an option with fixed choices."""
    def cast(text: str) -> str:
        if text not in names:
            raise ValueError(f"expected one of {', '.join(names)}")
        return text
    return cast


def _switch(text: str) -> bool:
    """Cast for the config value of an on/off flag."""
    val = text.lower()
    if val not in ("1", "true", "0", "false"):
        raise ValueError("expected 1, true, 0 or false")
    return val in ("1", "true")


def _write_manifest(out_dir: str, payload: dict) -> None:
    path = os.path.join(out_dir, "manifest.json")
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

_KINDS = {"sphere": "Sphere", "cylinder": "Cylinder",
          "veronese": "Veronese", "torus": "TorusSeed"}
_MODES = {"forward": "Forward", "ancient": "Ancient"}


def _add_simulate(sub):
    p = sub.add_parser("simulate", help="flow a seed surface and record diagnostics")
    p.add_argument("--spec", choices=tuple(_KINDS))
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--radius", type=float)
    p.add_argument("--grid", type=str)
    p.add_argument("--perturb", type=str)
    p.add_argument("--t-end", dest="t_end", type=float)
    p.add_argument("--t0", type=float)
    p.add_argument("--mode", choices=tuple(_MODES))
    p.add_argument("--cfl", type=float)
    p.add_argument("--snapshot-every", dest="snapshot_every", type=int)
    p.add_argument("--max-steps", dest="max_steps", type=int)
    p.add_argument("--blowup-cap", dest="blowup_cap", type=float)
    p.add_argument("--out", type=str)
    p.add_argument("--config", type=str)


def _is_snapshot(name: str) -> bool:
    return name.startswith("snap_") and name.endswith(".txt")


def _check_out(out_dir: str) -> None:
    """Refuse an ``out_dir`` that is not a directory, or that holds a manifest
    or a snapshot: runs never mix in one directory."""
    if not os.path.isdir(out_dir):
        if os.path.exists(out_dir):
            raise _UsageError(f"--out {out_dir} is not a directory")
        return
    names = os.listdir(out_dir)
    if "manifest.json" in names or any(_is_snapshot(f) for f in names):
        raise _UsageError(f"--out {out_dir} holds an earlier run; "
                          f"remove it or choose another directory")


def _build_seed(args):
    spec_name = _resolve(args, "spec", None, _choice(_KINDS))
    if spec_name is None:
        raise _UsageError("--spec is required")
    n = _resolve(args, "n", 2, int)
    k = _resolve(args, "k", None, int)
    radius = _resolve(args, "radius", 1.0, float)
    g1, g2 = _parse_pair(_resolve(args, "grid", "64x128", str), "x", (int, int),
                         "--grid value", "WxH")
    amp, mode_no = 0.0, 2
    perturb = _resolve(args, "perturb", None, str)
    if perturb:
        amp, mode_no = _parse_pair(perturb, ":", (float, int), "--perturb value", "amp:mode")

    kind = _KINDS[spec_name]
    if kind == "Veronese":
        n, k = 2, 3
    if k is None:
        k = {"Sphere": 1, "Cylinder": 1, "TorusSeed": 2}.get(kind, 1)
    if kind in ("Sphere", "Veronese"):
        topology = "Circle" if n == 1 else "LatLongSphere"
    else:
        topology = "Torus2"
    grid = ParamGrid(topology=topology, res=(g1,) if topology == "Circle" else (g1, g2))
    sol = SolutionSpec(kind=kind, n=n, k=k, radius=radius,
                       perturb_amp=amp, perturb_mode=mode_no)
    t0 = _resolve(args, "t0", 0.0, float)
    return sol, grid, t0


def cmd_simulate(args) -> int:
    try:
        sol, grid, t0 = _build_seed(args)
        t_end = _resolve(args, "t_end", None, float)
        if t_end is None:
            raise _UsageError("--t-end is required")
        # t_end == t0 records the seed alone (static diagnostics)
        if not (math.isfinite(t0) and math.isfinite(t_end)) or t_end < t0:
            raise _UsageError(f"--t-end must be finite and not before t0; "
                              f"got t0={t0!r}, t_end={t_end!r}")
        out_dir = _resolve(args, "out", None, str)
        if not out_dir:
            raise _UsageError("--out is required")
        _check_out(out_dir)
        mode = _MODES[_resolve(args, "mode", "forward", _choice(_MODES))]
        config = FlowConfig(
            t_end=t_end,
            cfl=_resolve(args, "cfl", 0.2, float),
            snapshot_every=_resolve(args, "snapshot_every", 25, int),
            max_steps=_resolve(args, "max_steps", 1_000_000, int),
            stop_on_blowup=_resolve(args, "blowup_cap", 1e6, float),
        )
        seed_im = seed_immersion(sol, grid, t0)
    except (_UsageError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    started = time.time()
    os.makedirs(out_dir, exist_ok=True)
    try:
        traj = run(seed_im, config, mode=mode)
    except DegenerateGeometryError as exc:
        print(f"degenerate geometry: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE

    outputs = []
    for i, snap in enumerate(traj.snapshots):
        name = f"snap_{i:06d}.txt"
        save_snapshot(snap, os.path.join(out_dir, name))
        outputs.append(name)
    write_diagnostics_csv(traj.diagnostics, os.path.join(out_dir, "diagnostics.csv"))
    outputs.append("diagnostics.csv")

    _write_manifest(out_dir, {
        "command": "simulate",
        "argv": list(getattr(args, "_argv", [])),
        "version": __version__,
        "config": {
            "spec": sol.kind, "n": sol.n, "k": sol.k, "radius": sol.radius,
            "grid": "x".join(str(r) for r in grid.res),
            "topology": grid.topology,
            "perturb_amp": sol.perturb_amp, "perturb_mode": sol.perturb_mode,
            "t0": t0, "t_end": config.t_end, "cfl": config.cfl,
            "snapshot_every": config.snapshot_every,
            "max_steps": config.max_steps, "blowup_cap": config.stop_on_blowup,
            "integrator": config.integrator,
        },
        "mode": mode,
        "T_singular": traj.T_singular,
        "stop_reason": traj.stop_reason,
        "duration_s": time.time() - started,
        "outputs": outputs,
    })
    print(f"{traj.stop_reason}: {len(traj.snapshots)} snapshots, "
          f"t in [{traj.snapshots[0].t:.6g}, {traj.snapshots[-1].t:.6g}]")
    if traj.stop_reason == "blowup":
        return EXIT_BLOWUP
    if traj.stop_reason == "degenerate":
        return EXIT_DEGENERATE
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _add_verify(sub):
    p = sub.add_parser("verify", help="run a randomised property suite")
    p.add_argument("--suite", choices=tuple(SUITES) + ("all",))
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--c", type=float)
    p.add_argument("--eps", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--r-amb", dest="r_amb", type=float)
    p.add_argument("--out", type=str)
    p.add_argument("--config", type=str)


def cmd_verify(args) -> int:
    """Run one suite of :mod:`mcflow.verify` (or all seven) and write its report.

    n, k, c, eps, delta and r_amb narrow or parametrise the suite's cells; a
    run that would mean nothing (too few samples, n or k out of range, an
    option that is not finite) or could not write its report (``--out`` in a
    directory that does not exist) is a usage error, raised before any sample
    is drawn."""
    suite = _resolve(args, "suite", None, str)
    started = time.time()
    try:
        if suite is None:
            raise ValueError("--suite is required")
        samples = _resolve(args, "samples", 10_000, int)
        seed = _resolve(args, "seed", 42, int)
        out = _resolve(args, "out", "fuzz_report.csv", str)
        if not os.path.isdir(os.path.dirname(out) or "."):
            raise ValueError(f"--out directory {os.path.dirname(out)!r} does not exist")
        kwargs = {}
        for key, cast in (("n", int), ("k", int), ("c", float), ("eps", float),
                          ("delta", float), ("r_amb", float)):
            val = _resolve(args, key, None, cast)
            if val is not None:
                if not math.isfinite(val):
                    raise ValueError(f"--{key.replace('_', '-')} must be finite; got {val}")
                kwargs[key] = val
        rows = run_suite(suite, samples, seed, **kwargs)
    except (KeyError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    write_report(rows, out)
    total_bad = sum(r.violations for r in rows)
    print(f"suite={suite} seed={seed} samples={sum(r.samples for r in rows)} "
          f"violations={total_bad} elapsed={time.time() - started:.1f}s")
    for r in rows:
        print(f"  {r.suite} n={r.n} k={r.k}: {r.violations} violations, "
              f"worst margin {r.worst_margin:.3e}")
    return EXIT_OK if total_bad == 0 else EXIT_VIOLATIONS


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

_RESCALES = ("type1", "type2")


def _add_report(sub):
    p = sub.add_parser("report", help="post-process a simulation directory")
    p.add_argument("--in", dest="in_dir", type=str)
    p.add_argument("--rescale", choices=_RESCALES)
    p.add_argument("--classify", action="store_true", default=None)
    p.add_argument("--fit-area-decay", dest="fit_area", action="store_true", default=None)
    p.add_argument("--tj", type=float)
    p.add_argument("--n-tau", dest="n_tau", type=int)
    p.add_argument("--fit-window", dest="fit_window", type=str)
    p.add_argument("--config", type=str)


def _load_trajectory(in_dir: str) -> Trajectory:
    """The run that wrote ``in_dir``: the snapshots its manifest lists, in
    that order, with its diagnostics."""
    manifest_path = os.path.join(in_dir, "manifest.json")
    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        records = read_diagnostics_csv(os.path.join(in_dir, "diagnostics.csv"))
        snaps = [f for f in manifest["outputs"] if f.startswith("snap_")]
        if not snaps:
            raise ValueError("the manifest lists no snapshots")
        snapshots = [load_snapshot(os.path.join(in_dir, f)) for f in snaps]
        return Trajectory(snapshots=snapshots, diagnostics=records,
                          mode=manifest.get("mode", "Forward"),
                          T_singular=manifest.get("T_singular"),
                          stop_reason=manifest.get("stop_reason", "t_end"))
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        raise IOError(f"cannot load trajectory from {in_dir}: {exc}") from exc


def _rescaled_summary(result, path):
    lines = ["tau,maxH,maxRatio"]
    for snap in result.trajectory.snapshots:
        gf = scalar_fields(snap)
        lines.append(f"{snap.t:.17g},{math.sqrt(gf.normH2.max()):.17g},"
                     f"{gf.max_ratio:.17g}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_report(args) -> int:
    """Classify, fit and rescale the run in ``--in``, writing into it; a run
    these analyses cannot use is a data error (exit 65)."""
    try:
        in_dir = _resolve(args, "in_dir", None, str)
        if not in_dir:
            raise _UsageError("--in is required")
        window_txt = _resolve(args, "fit_window", None, str)
        window = (_parse_pair(window_txt, ":", (float, float), "window", "lo:hi")
                  if window_txt else None)
        classify = _resolve(args, "classify", False, _switch)
        fit_area = _resolve(args, "fit_area", False, _switch)
        rescale = _resolve(args, "rescale", None, _choice(_RESCALES))
        tj = _resolve(args, "tj", None, float)
        n_tau = _resolve(args, "n_tau", 11, int)
        if n_tau < 1:
            raise _UsageError(f"--n-tau must be at least 1; got {n_tau}")
    except (_UsageError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        traj = _load_trajectory(in_dir)
    except IOError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA

    try:
        if classify:
            res = classify_type(traj)
            with open(os.path.join(in_dir, "classify.csv"), "w") as fh:
                fh.write("kind,C,C2,supTIq,trend\n")
                fh.write(f"{res.kind},{res.C:.17g},{res.C ** 2:.17g},"
                         f"{res.sup_tIq:.17g},{res.trend:.17g}\n")
            print(f"{res.kind} C2={res.C ** 2:.6g} trend={res.trend:.4f}")

        if fit_area:
            c_fit, r_fit = fit_area_decay(traj, window)
            with open(os.path.join(in_dir, "area_fit.csv"), "w") as fh:
                fh.write("c,r,mode\n")
                fh.write(f"{c_fit:.17g},{r_fit:.17g},{traj.mode}\n")
            print(f"area ~ c|t|^r fit: c={c_fit:.6g} r={r_fit:.4f}")

        if rescale:
            if rescale == "type2":
                result = blowup_type2(traj)
            else:
                if tj is None:
                    times = traj.times
                    tj = float(times[0] / 2.0) if traj.mode == "Ancient" else None
                    if tj is None or tj >= 0:
                        raise ValueError("--tj is required for type1 on this trajectory")
                result = rescale_type1(traj, tj, n_tau=n_tau)
            sub = os.path.join(in_dir, f"rescale_{rescale}")
            os.makedirs(sub, exist_ok=True)
            for name in os.listdir(sub):    # an earlier report's output
                if name == "summary.csv" or _is_snapshot(name):
                    os.remove(os.path.join(sub, name))
            for i, snap in enumerate(result.trajectory.snapshots):
                save_snapshot(snap, os.path.join(sub, f"snap_{i:06d}.txt"))
            _rescaled_summary(result, os.path.join(sub, "summary.csv"))
            print(f"{rescale}: L={result.L:.6g} base_time={result.base_time:.6g} "
                  f"-> {sub}")
    except (ValueError, DegenerateGeometryError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="mcflow", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    _add_simulate(sub)
    _add_verify(sub)
    _add_report(sub)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = getattr(args, "config", None)
        args._config_values = _load_config_file(config) if config else {}
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    args._argv = argv
    command = {"simulate": cmd_simulate, "verify": cmd_verify,
               "report": cmd_report}.get(args.command)
    if command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    return command(args)


if __name__ == "__main__":
    sys.exit(main())
