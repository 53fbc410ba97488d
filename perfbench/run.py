"""Benchmark for mcflow: flows, blow-up reports and fuzz suites through the CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree.  The program is imported from ``src/``
and driven in this one process through ``mcflow.cli.main``, one round of the
workload's commands after another, until the next round would end past S
seconds (at least one round).  Every round writes into a fresh directory
under ``.perfbench-out/tmp`` and removes it afterwards.  The first round's
outputs are checked against closed-form laws (see ``checks.py``); later rounds
must reproduce them byte for byte.

The last line of standard output is one JSON object.  With ``--trace 0`` it
holds the end-to-end metrics.  With ``--trace 1`` a cold round runs first,
then untraced and traced rounds in turn, and it holds the per-layer metrics;
the spans are written to ``.perfbench-out/traces/``.  The exit code is 0 when every output
was correct, 1 when a check failed and 2 when the program cannot be imported.
"""

import os
import sys
import time


def _process_start() -> float:
    """Process start on the CLOCK_BOOTTIME scale (10 ms resolution)."""
    now = time.clock_gettime(time.CLOCK_BOOTTIME)
    try:
        with open("/proc/self/stat") as fh:
            ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        start = ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError):
        return now
    return start if 0.0 <= now - start < 60.0 else now


PROCESS_START = _process_start()
# One BLAS thread: the load comes from this process alone, and numpy reads
# these variables when it is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".perfbench-out")
SRC = os.path.join(ROOT, "src")

END_TO_END = {"setup_s": "s", "command_s": "s", "peak_rss_mb": "MB"}


def _import_program():
    sys.path.insert(0, SRC)
    try:
        import mcflow.cli
    except ImportError as exc:
        print(f"perfbench: cannot import mcflow from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    where = os.path.realpath(mcflow.cli.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        print(f"perfbench: mcflow was imported from {where}, not from {SRC}", file=sys.stderr)
        sys.exit(2)
    return mcflow.cli


import checks  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    for fn in spans.FUNCTIONS:
        units[f"{fn}.calls"] = "count"
        units[f"{fn}.self_s"] = "s"
    for suite in spans.SUITES:
        units[f"verify.{suite}.samples_per_s"] = "samples/s"
    units.update({
        "flow.step.ms_per_call": "ms",
        "immersion.save_snapshot.mb": "MB",
        "immersion.load_snapshot.mb": "MB",
        "immersion.geometry_fields.result_mb": "MB-computed",
        "sampling.pinched_tensors.accept_ratio": "1",
        "cli.simulate.wall_s": "s",
        "cli.report.wall_s": "s",
        "cli.verify.samples_per_s": "samples/s",
        "accuracy.radius_rel_err": "1",
        "accuracy.gauss_bonnet_rel_err": "1",
        "trace.overhead_s": "s",
        "trace.overhead_pct": "%",
    })
    return units


def _digest(directory: str) -> str:
    """Hash of every file a round wrote, except the manifest (it holds the
    wall time and the output path)."""
    h = hashlib.sha256()
    for base, dirs, files in os.walk(directory):
        dirs.sort()
        for name in sorted(files):
            if name == "manifest.json":
                continue
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, directory).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _layer_values(agg: dict) -> dict[str, float]:
    """Per-layer figures of one traced round, from Tracer.aggregate."""
    empty = {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "notes": []}
    get = lambda name: agg.get(name, empty)
    out = {}
    for fn in spans.FUNCTIONS:
        out[f"{fn}.calls"] = get(fn)["calls"]
        out[f"{fn}.self_s"] = get(fn)["self_s"]
    for suite in spans.SUITES:
        acc = get(f"verify.{suite}")
        out[f"verify.{suite}.samples_per_s"] = (
            sum(acc["notes"]) / acc["incl_s"] if acc["calls"] else 0.0)
    step = get("flow.step")
    out["flow.step.ms_per_call"] = 1e3 * step["incl_s"] / step["calls"] if step["calls"] else 0.0
    for fn in ("save_snapshot", "load_snapshot"):
        out[f"immersion.{fn}.mb"] = sum(get(f"immersion.{fn}")["notes"]) / 1e6
    out["immersion.geometry_fields.result_mb"] = sum(get("immersion.geometry_fields")["notes"]) / 1e6
    drawn = get("sampling.pinched_tensors")["notes"]
    asked = sum(a for a, _ in drawn)
    out["sampling.pinched_tensors.accept_ratio"] = sum(k for _, k in drawn) / asked if asked else 0.0
    return out


class Bench:
    def __init__(self, cli, workload, seed: int, seconds: float, trace: bool):
        self.cli, self.w, self.seed, self.seconds = cli, workload, seed, seconds
        self.params = workload.params(seed)
        self.attempted = self.failed = 0
        self.rounds: list[tuple[bool, dict]] = []   # (traced, command label -> wall s)
        self.reference = None
        self.figures: dict = {}                     # what the checks of the first round measured
        self.tracer = spans.Tracer() if trace else None
        self.layers: list[dict] = []                # _layer_values of each traced round

    def _command(self, argv: list[str]) -> float:
        self.attempted += 1
        buf = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                code = self.cli.main(argv)   # looked up per call: the tracer rebinds it
        except Exception:
            code = None
            buf.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
        if code != 0:
            self.failed += 1
            raise checks.CheckFailed(f"mcflow {argv[0]} exited {code}:\n{buf.getvalue()}")
        return elapsed

    def round(self, traced: bool = False) -> None:
        os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)
        out = tempfile.mkdtemp(prefix=f"{self.w.name}-", dir=os.path.join(OUT, "tmp"))
        commands = self.w.commands(self.params, out)
        walls, ranges = {}, {}
        try:
            if traced:
                self.tracer.install()
            for i, (label, argv) in enumerate(commands):
                lo = len(self.tracer.spans) if traced else 0
                try:
                    walls[label] = self._command(argv)
                except checks.CheckFailed:
                    self.attempted += len(commands) - i - 1
                    self.failed += len(commands) - i - 1
                    raise
                if traced:
                    ranges[label] = (lo, len(self.tracer.spans))
            self.rounds.append((traced, walls))
            digest = _digest(out)
            if self.reference is None:
                self.figures = self.w.check(self.params, out)
                self.reference = digest
            elif digest != self.reference:
                raise checks.CheckFailed("a round's outputs differ from the first round's")
            if traced:
                counts = {label: self.tracer.aggregate(lo, hi)
                          for label, (lo, hi) in ranges.items()}
                self.w.coverage(self.params, out, counts)
                whole = self.tracer.aggregate(ranges[commands[0][0]][0], ranges[commands[-1][0]][1])
                self.layers.append(_layer_values(whole))
        finally:
            if self.tracer is not None:
                self.tracer.uninstall()
            shutil.rmtree(out, ignore_errors=True)

    def run(self) -> None:
        """Rounds until the next would end past the run length.  A traced run
        starts with a cold round, then alternates untraced and traced rounds,
        so that both see the same drift of the machine."""
        started = time.perf_counter()
        cycle = (False,)
        if self.tracer is not None:
            self.round()
            cycle = (False, True)
        while True:
            begun = time.perf_counter()
            for traced in cycle:
                self.round(traced)
            now = time.perf_counter()
            if now - started + (now - begun) > self.seconds:
                break
        self.w.final_check(self.params, self.seed)

    def end_to_end(self, setup_s: float) -> dict[str, float]:
        return {"setup_s": setup_s,
                "command_s": statistics.median(sum(w.values()) for _, w in self.rounds),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}

    def per_layer(self) -> dict[str, float]:
        out = {name: statistics.median_low(r[name] for r in self.layers) for name in self.layers[0]}
        untraced = [w for traced, w in self.rounds[1:] if not traced]
        wall = lambda label: statistics.median(w[label] for w in untraced) if label in untraced[0] else 0.0
        out["cli.simulate.wall_s"] = wall("simulate")
        out["cli.report.wall_s"] = wall("report")
        samples = self.figures.get("samples", 0)
        out["cli.verify.samples_per_s"] = samples / wall("verify") if samples else 0.0
        out["accuracy.radius_rel_err"] = self.figures.get("radius_rel_err", 0.0)
        out["accuracy.gauss_bonnet_rel_err"] = self.figures.get("gauss_bonnet_rel_err", 0.0)
        plain_s = statistics.median(sum(w.values()) for w in untraced)
        traced_s = statistics.median(sum(w.values()) for traced, w in self.rounds if traced)
        out["trace.overhead_s"] = traced_s - plain_s
        out["trace.overhead_pct"] = 100.0 * (traced_s - plain_s) / plain_s
        return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = _import_program()
    bench = Bench(cli, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    setup_s = time.clock_gettime(time.CLOCK_BOOTTIME) - PROCESS_START

    correct = True
    try:
        bench.run()
    except (checks.CheckFailed, OSError, KeyError, ValueError) as exc:
        correct = False
        print(f"perfbench: check failed: {type(exc).__name__}: {exc}", file=sys.stderr)
    if bench.tracer is not None:
        bench.tracer.write(os.path.join(OUT, "traces", f"{args.workload}-seed{args.seed}.csv"))

    if not correct:
        metrics = {}
    elif args.trace:
        values = bench.per_layer()
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in per_layer_units().items()}
    else:
        values = bench.end_to_end(setup_s)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
