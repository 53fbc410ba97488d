"""Command-line entry points: simulate, verify, report.

Exit codes: 0 success, 1 property violations, 2 blow-up cap stop,
3 geometry degeneracy, 64 usage error, 65 data error.

``simulate`` writes each snapshot as it is recorded, then the run's
trajectory: the diagnostics and a JSON manifest (atomically, last) recording
the command line, the resolved configuration, the package version,
wall-clock duration and the list of output files.  An ``--out`` that holds an
earlier run's manifest or snapshots is refused.  ``report`` reads the
trajectory back and checks its records one for one against the snapshots the
manifest lists; a mismatch, or a singular time that is not null or a finite
number, is a data error, as is a diagnostics row that does not parse (its
field count differs from the header's, or a field is not a number).
Classification and the area fit read the records only, and a rescaling
loads, rescales and writes one snapshot at a time, so neither command's
memory grows with the number of snapshots.  A non-finite
``--tj`` or ``--fit-window`` bound, a window with lo >= hi, and an option
no requested analysis reads (``--tj`` or ``--n-tau`` without ``--rescale
type1``, ``--fit-window`` without ``--fit-area-decay``) are usage errors,
refused before anything is read or removed.
``verify`` writes only its CSV report, whose seed column reproduces it.
Every command runs in one process, in a fixed order, so re-running with the
same inputs reproduces all numeric outputs byte-for-byte.  Options may also
come from a ``--config`` file of ``key=value`` lines, one per option's
destination (``t_end``, ``in_dir``, ``fit_area``): the lines become flags that
one parser reads ahead of the command line, so a flag beats the file, and a
key that names no option of the command is a usage error.  ``simulate``
refuses an option its seed does not read.  A command's lines for standard
output are printed once its run is done; a reader that closes the stream
early (``| head -1``) changes neither the outputs nor the exit code.
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
    finish_records,
    fit_area_decay,
    iter_records,
    read_diagnostics_csv,
    rescale_type1,
    write_diagnostics_csv,
)
from .grid import ParamGrid
from .immersion import load_snapshot, save_snapshot, scalar_fields, snapshot_time
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

    def parse_known_args(self, args=None, namespace=None):
        """As argparse, but an option that takes a value, named in full or
        abbreviated, reads a next token that starts with one '-' and names no
        option (``--tj -inf``, ``--fit-window -0.95:-0.91``) as its value."""
        names = {s for a in self._actions for s in a.option_strings}
        takes = [s for a in self._actions if a.nargs is None for s in a.option_strings]
        joined = []
        for tok in args if args is not None else sys.argv[1:]:
            prev = joined[-1] if joined else ""
            if (len(prev) > 2 and any(s.startswith(prev) for s in takes)
                    and tok.startswith("-") and not tok.startswith("--") and tok not in names):
                joined[-1] += "=" + tok
            else:
                joined.append(tok)
        return super().parse_known_args(joined, namespace)


def _parse_pair(text: str, sep: str, casts, what: str, form: str) -> tuple:
    """Two values separated by ``sep`` (case-insensitive), cast by ``casts``;
    a usage error names the option and the expected form."""
    try:
        a, b = text.lower().split(sep)
        return casts[0](a), casts[1](b)
    except Exception:
        raise _UsageError(f"bad {what} {text!r}; expected {form}") from None


def _config_flags(parser, command: str, path) -> list[str]:
    """The flags that the ``key=value`` lines of a config file stand for.

    A key is an option's destination (``t_end``, ``in_dir``, ``fit_area``;
    ``-`` reads as ``_``).  An option that takes a value becomes one
    ``--flag=value`` token, so a value may start with a dash; an on/off flag
    is given for ``1``/``true`` and left out for ``0``/``false``.  A key that
    names no option of ``command``, or a value that option refuses, is a usage
    error that names the file."""
    actions = {a.dest: a for a in parser.commands[command]._actions
               if a.dest not in ("help", "config")}
    flags = []
    try:
        with open(path) as fh:
            lines = [line.strip() for line in fh]
    except OSError as exc:
        raise _UsageError(f"cannot read config file {path}: {exc}") from None
    for line in lines:
        if not line or line.startswith("#"):
            continue
        key, _, val = line.partition("=")
        key, val = key.strip().replace("-", "_"), val.strip()
        action = actions.get(key)
        if action is None:
            raise _UsageError(f"config file {path}: {command} has no option {key!r}")
        if action.nargs is None:
            flags.append(f"{action.option_strings[0]}={val}")
        elif val.lower() in ("1", "true"):
            flags.append(action.option_strings[0])
        elif val.lower() not in ("0", "false"):
            raise _UsageError(f"config file {path}: bad {key} {val!r}; "
                              f"expected 1, true, 0 or false")
    try:
        parser.parse_args([command, *flags])
    except _UsageError as exc:
        raise _UsageError(f"config file {path}: {exc}") from None
    return flags


def _given(args, *names, **renamed) -> dict:
    """The options among ``names`` that were given, by name, and each
    ``field=dest`` of ``renamed`` whose option was given, by field: every
    other field keeps the default of the type it builds."""
    pairs = [(name, name) for name in names] + list(renamed.items())
    return {field: getattr(args, dest) for field, dest in pairs
            if getattr(args, dest) is not None}


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
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--mode", choices=tuple(_MODES), default="forward")
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
    """The seed's solution and grid.  An option the seed does not read is a
    usage error: ``--perturb`` off an n = 2 sphere or with amplitude 0,
    ``--n`` or ``--k`` for the Veronese (n = 2, k = 3), ``--radius`` where
    t0 < 0 and the seed follows its ancient law (every kind but the torus),
    and a second ``--grid`` extent for a circle (an n = 1 sphere), which
    takes ``--grid N`` (default 64; 64x128 for a surface)."""
    if args.spec is None:
        raise _UsageError("--spec is required")
    kind = _KINDS[args.spec]
    fields = _given(args, "n", "k", "radius")
    if kind == "Veronese":
        for key in ("n", "k"):
            if key in fields:
                raise _UsageError(f"--{key} does not apply to the veronese seed, "
                                  f"which is n = 2, k = 3")
        fields.update(n=2, k=3)
    if "radius" in fields and args.t0 < 0 and kind != "TorusSeed":
        raise _UsageError(f"--radius does not apply at t0 < 0, where the {args.spec} "
                          f"seed follows its ancient law")
    if kind == "TorusSeed":
        fields.setdefault("k", 2)
    if args.perturb is not None:
        fields["perturb_amp"], fields["perturb_mode"] = _parse_pair(
            args.perturb, ":", (float, int), "--perturb value", "amp:mode")
    sol = SolutionSpec(kind=kind, **fields)
    if args.perturb is not None and (kind, sol.n) != ("Sphere", 2):
        raise _UsageError(f"--perturb applies only to an n = 2 sphere; "
                          f"this seed is a {args.spec} with n = {sol.n}")
    if args.perturb is not None and sol.perturb_amp == 0:
        raise _UsageError(f"--perturb {args.perturb} has amplitude 0 and perturbs nothing")
    if kind in ("Sphere", "Veronese"):
        topology = "Circle" if sol.n == 1 else "LatLongSphere"
    else:
        topology = "Torus2"
    if topology == "Circle":
        text = args.grid or "64"
        if "x" in text.lower():
            raise _UsageError(f"--grid {text} gives a circle a second extent; "
                              f"an n = 1 sphere takes --grid N")
        try:
            res = (int(text),)
        except ValueError:
            raise _UsageError(f"bad --grid value {text!r}; expected N") from None
    else:
        res = _parse_pair(args.grid or "64x128", "x", (int, int), "--grid value", "WxH")
    grid = ParamGrid(topology=topology, res=res)
    return sol, grid


def cmd_simulate(args, stdout: list) -> int:
    try:
        sol, grid = _build_seed(args)
        t0, t_end = args.t0, args.t_end
        if t_end is None:
            raise _UsageError("--t-end is required")
        # t_end == t0 records the seed alone (static diagnostics)
        if not (math.isfinite(t0) and math.isfinite(t_end)) or t_end < t0:
            raise _UsageError(f"--t-end must be finite and not before t0; "
                              f"got t0={t0!r}, t_end={t_end!r}")
        out_dir = args.out
        if not out_dir:
            raise _UsageError("--out is required")
        _check_out(out_dir)
        mode = _MODES[args.mode]
        config = FlowConfig(t_end=t_end, **_given(args, "cfl", "snapshot_every", "max_steps",
                                                  stop_on_blowup="blowup_cap"))
        seed_im = seed_immersion(sol, grid, t0)
    except (_UsageError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    started = time.time()
    os.makedirs(out_dir, exist_ok=True)
    # each snapshot is written as it is recorded; only the records are kept
    outputs, records = [], []
    stream = iter_records(seed_im, config, mode=mode)
    try:
        while True:
            try:
                state, record = next(stream)
            except StopIteration as end:
                stop_reason = end.value
                break
            name = f"snap_{len(outputs):06d}.txt"
            save_snapshot(state, os.path.join(out_dir, name))
            outputs.append(name)
            records.append(record)
    except DegenerateGeometryError as exc:
        print(f"degenerate geometry: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE

    traj = finish_records(records, mode, stop_reason)
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
        },
        "mode": traj.mode,
        "T_singular": traj.T_singular,
        "stop_reason": traj.stop_reason,
        "duration_s": time.time() - started,
        "outputs": outputs,
    })
    stdout.append(f"{stop_reason}: {len(records)} snapshots, "
                  f"t in [{records[0].t:.6g}, {records[-1].t:.6g}]")
    if stop_reason == "blowup":
        return EXIT_BLOWUP
    if stop_reason == "degenerate":
        return EXIT_DEGENERATE
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _add_verify(sub):
    p = sub.add_parser("verify", help="run a randomised property suite")
    p.add_argument("--suite", choices=tuple(SUITES) + ("all",))
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--c", type=float)
    p.add_argument("--eps", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--r-amb", dest="r_amb", type=float)
    p.add_argument("--out", type=str, default="fuzz_report.csv")
    p.add_argument("--config", type=str)


def cmd_verify(args, stdout: list) -> int:
    """Run one suite of :mod:`mcflow.verify` (or all seven) and write its report.

    n, k, c, eps, delta and r_amb narrow or parametrise the suite's cells; a
    run that would mean nothing (too few samples, n or k out of range, an
    option that is not finite, an option the named suite does not read) or
    could not write its report (``--out`` in a directory that does not exist)
    is a usage error, raised before any sample is drawn.  ``--suite all``
    gives each suite only the options it reads."""
    suite, samples, seed, out = args.suite, args.samples, args.seed, args.out
    started = time.time()
    try:
        if suite is None:
            raise ValueError("--suite is required")
        if not os.path.isdir(os.path.dirname(out) or "."):
            raise ValueError(f"--out directory {os.path.dirname(out)!r} does not exist")
        kwargs = _given(args, "n", "k", "c", "eps", "delta", "r_amb")
        for key, val in kwargs.items():
            if not math.isfinite(val):
                raise ValueError(f"--{key.replace('_', '-')} must be finite; got {val}")
        rows = run_suite(suite, samples, seed, **kwargs)
    except (KeyError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    write_report(rows, out)
    total_bad = sum(r.violations for r in rows)
    stdout.append(f"suite={suite} seed={seed} samples={sum(r.samples for r in rows)} "
                  f"violations={total_bad} elapsed={time.time() - started:.1f}s")
    for r in rows:
        stdout.append(f"  {r.suite} n={r.n} k={r.k}: {r.violations} violations, "
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
    p.add_argument("--classify", action="store_true")
    p.add_argument("--fit-area-decay", dest="fit_area", action="store_true")
    p.add_argument("--tj", type=float)
    p.add_argument("--n-tau", dest="n_tau", type=int)
    p.add_argument("--fit-window", dest="fit_window", type=str)
    p.add_argument("--config", type=str)


def _read_run(in_dir: str) -> tuple[Trajectory, list[str]]:
    """The trajectory of the run that wrote ``in_dir`` and the paths of the
    snapshots its manifest lists, in that order.  The records must pair with
    those snapshots one for one, each row's t equal to the t in its
    snapshot's header (only the header line is read)."""
    manifest_path = os.path.join(in_dir, "manifest.json")
    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        records = read_diagnostics_csv(os.path.join(in_dir, "diagnostics.csv"))
        paths = [os.path.join(in_dir, f) for f in manifest["outputs"] if f.startswith("snap_")]
        if len(records) != len(paths):
            raise ValueError(f"{len(records)} diagnostics rows against {len(paths)} snapshots")
        for r, path in zip(records, paths):
            t = snapshot_time(path)
            if r.t != t:
                raise ValueError(f"the diagnostics row at t={r.t!r} is paired with "
                                 f"{os.path.basename(path)} at t={t!r}")
        traj = Trajectory(diagnostics=records,
                          mode=manifest.get("mode", "Forward"),
                          T_singular=manifest.get("T_singular"),
                          stop_reason=manifest.get("stop_reason", "t_end"))
        return traj, paths
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        raise IOError(f"cannot load trajectory from {in_dir}: {exc}") from exc


def _clear_rescaled(sub: str) -> None:
    """Remove the snapshots and the summary of a report from ``sub``, and
    nothing else there."""
    for name in os.listdir(sub):
        if name == "summary.csv" or _is_snapshot(name):
            os.remove(os.path.join(sub, name))


def _write_rescaled(slices, sub: str) -> None:
    """Write each rescaled snapshot as it comes, then ``summary.csv``, whose
    rows take max|H| and the pinching ratio from each slice's own
    ``scalar_fields``.  An earlier report's output is replaced; a slice that
    fails leaves no output of this one."""
    os.makedirs(sub, exist_ok=True)
    _clear_rescaled(sub)
    lines = ["tau,maxH,maxRatio"]
    try:
        for i, snap in enumerate(slices):
            save_snapshot(snap, os.path.join(sub, f"snap_{i:06d}.txt"))
            gf = scalar_fields(snap)
            lines.append(f"{snap.t:.17g},{math.sqrt(gf.normH2.max()):.17g},"
                         f"{gf.max_ratio:.17g}")
        with open(os.path.join(sub, "summary.csv"), "w") as fh:
            fh.write("\n".join(lines) + "\n")
    except Exception:
        _clear_rescaled(sub)
        raise


def cmd_report(args, stdout: list) -> int:
    """Classify, fit and rescale the run in ``--in``, writing into it; a run
    these analyses cannot use, or whose diagnostics do not pair with its
    snapshots, is a data error (exit 65).  The type-2 base is searched among
    the snapshots whose recorded tIq is near the largest, and each rescaled
    snapshot is written as it is made."""
    try:
        in_dir, window_txt, tj = args.in_dir, args.fit_window, args.tj
        if not in_dir:
            raise _UsageError("--in is required")
        for option, value, needs, given in (
                ("--tj", tj, "--rescale type1", args.rescale == "type1"),
                ("--n-tau", args.n_tau, "--rescale type1", args.rescale == "type1"),
                ("--fit-window", window_txt, "--fit-area-decay", args.fit_area)):
            if value is not None and not given:
                raise _UsageError(f"{option} applies only with {needs}")
        window = (_parse_pair(window_txt, ":", (float, float), "window", "lo:hi")
                  if window_txt else None)
        if window and not -math.inf < window[0] < window[1] < math.inf:
            raise _UsageError(f"bad window {window_txt!r}; expected finite lo < hi")
        if tj is not None and not math.isfinite(tj):
            raise _UsageError(f"--tj must be finite; got {tj}")
        if args.n_tau is not None and args.n_tau < 1:
            raise _UsageError(f"--n-tau must be at least 1; got {args.n_tau}")
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        traj, paths = _read_run(in_dir)
    except IOError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA

    try:
        if args.classify:
            res = classify_type(traj)
            with open(os.path.join(in_dir, "classify.csv"), "w") as fh:
                fh.write("kind,C,C2,supTIq,trend\n")
                fh.write(f"{res.kind},{res.C:.17g},{res.C ** 2:.17g},"
                         f"{res.sup_tIq:.17g},{res.trend:.17g}\n")
            stdout.append(f"{res.kind} C2={res.C ** 2:.6g} trend={res.trend:.4f}")

        if args.fit_area:
            c_fit, r_fit = fit_area_decay(traj, window)
            with open(os.path.join(in_dir, "area_fit.csv"), "w") as fh:
                fh.write("c,r,mode\n")
                fh.write(f"{c_fit:.17g},{r_fit:.17g},{traj.mode}\n")
            stdout.append(f"area ~ c|t|^r fit: c={c_fit:.6g} r={r_fit:.4f}")

        rescale = args.rescale
        if rescale:
            load = lambda i: load_snapshot(paths[i])    # read when a rescaling asks
            if rescale == "type2":
                stream = blowup_type2(traj, load)
            else:   # t_j defaults to half the first record's time
                t_j = traj.diagnostics[0].t / 2.0 if tj is None else tj
                stream = rescale_type1(traj, load, t_j, **_given(args, "n_tau"))
            slices, L, _, base_time = stream
            sub = os.path.join(in_dir, f"rescale_{rescale}")
            _write_rescaled(slices, sub)
            stdout.append(f"{rescale}: L={L:.6g} base_time={base_time:.6g} -> {sub}")
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
    parser.commands = sub.choices
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            # argparse keeps an option's last value: a flag beats the file
            rest = argv[argv.index(args.command) + 1:]
            args = parser.parse_args([args.command,
                                      *_config_flags(parser, args.command, args.config),
                                      *rest])
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    args._argv = argv
    command = {"simulate": cmd_simulate, "verify": cmd_verify,
               "report": cmd_report}.get(args.command)
    if command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    stdout: list[str] = []
    code = command(args, stdout)
    try:
        for line in stdout:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early (``| head -1``): the run's outputs are written
        # and its code stands; the rest of stdout, and its flush at exit, go
        # to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
