"""Random argv for the three subcommands, run in-process through ``main``.

Every bad input and every bad run state must end in a documented exit code
and a message, never a traceback.  Runs are kept small: ``simulate`` draws
grids of at most 16x32 and always passes ``--max-steps`` <= 20 (a tiny
``--cfl`` would otherwise step for hours), ``report`` reads a copy of one
small fixture run, and ``verify`` draws at most 200 samples.
"""

import contextlib
import io
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from mcflow.cli import main
from mcflow.verify import SUITES

EXIT_CODES = {0, 1, 2, 3, 64, 65}

FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.too_slow])

JUNK = st.sampled_from(["nan", "inf", "-inf", "-1", "0", "1e300", "1e-300", "abc", "", "1.5"])


def mostly(good, bad=JUNK):
    """One draw in eight from ``bad``, so that most runs get past the parser."""
    return st.integers(0, 7).flatmap(lambda i: bad if i == 0 else good)


def floats(lo, hi, *special):
    return mostly(st.one_of(st.sampled_from(special or (repr(lo),)),
                            st.floats(lo, hi).map(repr)))


def ints(lo, hi):
    return mostly(st.integers(lo, hi).map(str))


def options(required=(), **strategies):
    """Argv for a random subset of the options, plus every ``required`` one,
    each with a drawn value as ``--flag=value`` (so a value may start with a
    dash); a value of True draws the bare flag."""
    items = [strategy.map(lambda v, f=flag: (f, v)) if flag in required
             else st.one_of(st.none(), strategy.map(lambda v, f=flag: (f, v)))
             for flag, strategy in strategies.items()]

    def flatten(picked):
        argv = []
        for item in picked:
            if item is not None:
                flag, value = item
                argv.append(flag if value is True else f"{flag}={value}")
        return argv
    return st.tuples(*items).map(flatten)


def run_main(argv):
    """Exit code and stderr of one in-process command; an exception escaping
    ``main`` is what a process would print as a traceback."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def check(argv):
    code, err = run_main(argv)
    assert "Traceback" not in err, (argv, err)
    assert code in EXIT_CODES, (argv, code, err)


SIMULATE = options(
    required=("--spec", "--grid"),
    **{
        "--spec": mostly(st.sampled_from(["sphere", "cylinder", "veronese", "torus"]),
                         st.just("cube")),
        "--n": ints(1, 3),
        "--k": ints(1, 3),
        "--radius": floats(0.05, 10.0, "1", "1e-160", "1e300"),
        "--grid": mostly(st.builds("{}x{}".format, st.integers(8, 16),
                                   st.integers(4, 16).map(lambda m: 2 * m)),
                         st.sampled_from(["4x8", "16x31", "16", "ax8", "16x32x2", ""])),
        "--perturb": mostly(st.builds("{}:{}".format, st.floats(-0.5, 0.5), st.integers(0, 6)),
                            st.sampled_from(["0.1", "a:b", "nan:2", "0.1:-3"])),
        "--mode": mostly(st.sampled_from(["forward", "ancient"]), st.just("sideways")),
        "--cfl": floats(1e-3, 1.0, "1", "1e-300"),
        "--snapshot-every": ints(1, 25),
        "--blowup-cap": floats(1.0, 1e6, "inf", "50"),
    })


@st.composite
def times(draw):
    """``--t0`` and ``--t-end``, mostly with the end a short span after the start."""
    t0 = draw(mostly(st.sampled_from([0.0, -1.0, -0.25]) | st.floats(-2.0, 2.0)))
    if isinstance(t0, float):
        t_end = draw(mostly(st.floats(0.0, 0.3).map(lambda span: repr(t0 + span))))
        t0 = repr(t0)
    else:
        t_end = draw(JUNK)
    return [f"--t0={t0}", f"--t-end={t_end}"]


@FUZZ
@given(argv=SIMULATE, times=times(), max_steps=st.integers(-2, 20))
def test_simulate_argv(argv, times, max_steps):
    with tempfile.TemporaryDirectory() as tmp:
        check(["simulate", *argv, *times, f"--max-steps={max_steps}",
               f"--out={Path(tmp) / 'run'}"])


@pytest.fixture(scope="module")
def fixture_run(tmp_path_factory):
    """An Ancient 16x32 sphere with 13 records: enough to classify."""
    out = tmp_path_factory.mktemp("fuzz") / "run"
    assert main(["simulate", "--spec", "sphere", "--grid", "16x32", "--mode", "ancient",
                 "--t0", "-0.25", "--t-end", "-0.2", "--snapshot-every", "2",
                 "--max-steps", "24", "--out", str(out)]) in (0, 2, 3)
    return out


REPORT = options(**{
    "--classify": st.just(True),
    "--fit-area-decay": st.just(True),
    "--rescale": mostly(st.sampled_from(["type1", "type2"]), st.just("type3")),
    "--tj": floats(-0.3, 0.1, "-0.11"),
    "--n-tau": ints(1, 30),
    "--fit-window": mostly(st.builds("{}:{}".format, st.floats(-0.3, 0.0), st.floats(-0.3, 0.0)),
                           st.sampled_from(["abc", "1:2:3", "nan:inf"])),
})


@FUZZ
@given(argv=REPORT, where=st.sampled_from(["copy", "absent", "file"]))
def test_report_argv(fixture_run, argv, where):
    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp) / "run"
        if where == "copy":
            shutil.copytree(fixture_run, target)
        elif where == "file":
            target.write_text("not a run\n")
        check(["report", "--in", str(target), *argv])


VERIFY = options(
    required=("--suite",),
    **{
        "--suite": mostly(st.sampled_from(list(SUITES) + ["all"]), st.just("bogus")),
        "--seed": mostly(st.integers(0, 2 ** 40).map(str)),
        "--n": ints(1, 6),
        "--k": ints(1, 4),
        "--c": floats(0.0, 1.0, "0.3"),
        "--eps": floats(0.0, 1.0, "0.1"),
        "--delta": floats(0.0, 1.0, "0.1"),
        "--r-amb": floats(0.1, 10.0, "1", "1e300", "1e-300"),
    })


@FUZZ
@given(argv=VERIFY, samples=st.integers(-5, 200), out=st.sampled_from(["ok", "absent"]))
def test_verify_argv(argv, samples, out):
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / ("report.csv" if out == "ok" else "absent/report.csv")
        check(["verify", *argv, "--samples", str(samples), "--out", str(report)])
