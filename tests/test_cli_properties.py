"""Property suite over the command line: every input ends in exit 0, 2 or 3.

Random configurations (ordinary values, and 0, negatives, nan, inf, 1e308,
the largest float, 1e-300 and the smallest subnormal 5e-324, now and then
with a line that is not UTF-8) meet random commands and flags, and an
output path that is sometimes a missing directory or a directory; the
configs at the edges of the float range in `test_cli.EDGE_RUNS` are
explicit examples.  No exception other than argparse's ``SystemExit(2)`` may
escape `cli.main`, and a refusal (exit 2) or a numerical failure (exit 3)
leaves stdout empty.  The step and grid caps are patched low so that every
example stays fast.

A second suite draws ordinary configurations only and checks that the
analytic commands give the same exit code and verdicts in three time units.
"""

import contextlib
import io
import math

import pytest

from hemohopf import cli, ddesim
from test_cli import (ANALYTIC_COMMANDS, EDGE_RUNS, OVERFLOW_CONFIGS, REF_CONFIG,
                      config_text, in_time_unit, verdict_words)

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

SPECIAL = st.sampled_from([0.0, -1.5, math.nan, math.inf, -math.inf, 1e308, 5e-324, 1e-300,
                           1.7976931348623157e308])
# ordinary ranges around the reference configuration, so that runs also get
# past the refusals
ORDINARY = {
    "beta0": (0.5, 5.0),
    "n": (2.0, 20.0),
    "delta": (0.01, 0.5),
    "gamma": (0.3, 3.0),
    "k": (1.05, 1.95),
    "r": (0.05, 1.0),
    None: (0.01, 30.0),
}


def _value(draw, key=None):
    """An ordinary value of `key`, or one time in ten a special one."""
    if draw(st.integers(0, 9)) == 0:
        return draw(SPECIAL)
    return draw(st.floats(*ORDINARY[key]))


@st.composite
def configs(draw):
    """Config file bytes: beta0, n, delta, gamma or k, and maybe r; one time
    in ten with a comment line that is not UTF-8."""
    keys = ["beta0", "n", "delta", draw(st.sampled_from(["gamma", "k"]))]
    if draw(st.integers(0, 3)) != 0:
        keys.append("r")
    lines = [f"{key} = {_value(draw, key)!r}\n".encode() for key in keys]
    if draw(st.sampled_from(range(10))) == 9:
        lines.insert(draw(st.integers(0, len(lines))), b"# \xff\n")
    return b"".join(lines)


@st.composite
def flags(draw):
    """A command and a random subset of the CLI's flags."""
    argv = [draw(st.sampled_from(cli.COMMANDS))]

    def maybe(odds, *values):
        """Append the flag and its values with probability 1/odds."""
        if draw(st.integers(1, odds)) == 1:
            argv.extend(values)

    for key in ("beta0", "n", "delta", "gamma", "k", "r"):
        maybe(6, f"--{key}", repr(_value(draw, key)))
    maybe(2, "--t-end", repr(_value(draw)))
    maybe(4, "--steps-per-delay", str(draw(st.integers(-2, 60))))
    maybe(4, "--stride", str(draw(st.integers(-1, 5))))
    maybe(4, "--transient-fraction", repr(_value(draw)))
    maybe(4, "--bracket", repr(_value(draw, "r")), repr(_value(draw, "r")))
    maybe(4, "--delta-r", repr(_value(draw)))
    maybe(2, "--r-grid", repr(_value(draw, "r")), repr(_value(draw, "r")),
          repr(float(draw(st.integers(-1, 60)))))
    if draw(st.integers(0, 4)):
        # a file in the work directory, or one time in five a missing
        # directory or the work directory itself; _run makes it absolute
        path = "out.csv"
        if draw(st.integers(0, 9)) in (4, 5):
            path = draw(st.sampled_from(["missing/out.csv", "."]))
        argv.extend(["-o", path])
    return argv


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ddesim, "MAX_STEPS", 5_000)
        mp.setattr(cli, "MAX_GRID_POINTS", 50)
        mp.setattr(cli, "MAX_SWEEP_STEPS", 20_000)
        yield tmp_path_factory.mktemp("cli_properties")


def _run(workdir, config, argv):
    path = workdir / "run.cfg"
    path.write_bytes(config)
    argv = [argv[0], str(path)] + argv[1:]
    if "-o" in argv:
        i = argv.index("-o") + 1
        argv[i] = str(workdir / argv[i])
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refusing a flag
            code = exc.code
    return code, stdout.getvalue()


def _edge_examples(test):
    """One explicit example for each run of `EDGE_RUNS`."""
    for config, argv, _, _ in EDGE_RUNS.values():
        test = example(config=config.encode(), argv=argv)(test)
    return test


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(config=configs(), argv=flags())
@_edge_examples
@example(config=OVERFLOW_CONFIGS[0][0].encode(),
         argv=["simulate", *OVERFLOW_CONFIGS[0][1], "-o", "out.csv"])
@example(config=OVERFLOW_CONFIGS[1][0].encode(),
         argv=["simulate", *OVERFLOW_CONFIGS[1][1], "-o", "out.csv"])
# random runs that draw a bad -o path rarely get as far as the write
@example(config=REF_CONFIG.encode(), argv=["simulate", "--r", "0.36", "--t-end", "10", "-o", "."])
def test_main_exits_0_2_or_3_and_refusals_print_nothing(workdir, config, argv):
    code, stdout = _run(workdir, config, argv)
    assert code in (0, 2, 3)
    if code != 0:
        assert stdout == ""


@st.composite
def ordinary_configs(draw):
    """beta0, n, delta, gamma or k, and r, each drawn from its ordinary range."""
    keys = ["beta0", "n", "delta", draw(st.sampled_from(["gamma", "k"])), "r"]
    return {key: draw(st.floats(*ORDINARY[key])) for key in keys}


def _verdicts(workdir, values):
    config = config_text(values).encode()
    verdicts = {}
    for command in ANALYTIC_COMMANDS:
        code, stdout = _run(workdir, config, [command])
        verdicts[command] = code, verdict_words(stdout)
    return verdicts


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(values=ordinary_configs())
def test_analytic_verdicts_hold_in_every_time_unit(workdir, values):
    # rates times s and the delay over s describe the same dynamics
    expected = _verdicts(workdir, values)
    for s in (1e-6, 1e6):
        assert _verdicts(workdir, in_time_unit(values, s)) == expected
