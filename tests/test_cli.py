import csv
import math
import os
import re
import subprocess
import sys

import pytest

import refvals as rv
from hemohopf import cli, ddesim, hopf, linstab, model
from hemohopf.errors import ConfigError, ConvergenceError, NumericsError
from test_hopf import NONFINITE_NORMAL_FORMS, STEEP_G_DRAW, _count_calls

REF_CONFIG = """\
# benchmark parameter set
beta0 = 1.77
n = 12
delta = 0.05
k = 1.180746972
r = 0.3559207407
"""

GAMMA_CONFIG = "beta0=1.77\nn=12\ndelta=0.05\ngamma=1.48067\nr=0.36\n"


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "params.cfg"
    path.write_text(REF_CONFIG)
    return str(path)


@pytest.fixture
def gamma_config_path(tmp_path):
    path = tmp_path / "gamma.cfg"
    path.write_text(GAMMA_CONFIG)
    return str(path)


# --------------------------------------------------------------- parse_config


def test_parse_config_reference():
    values = cli.parse_config(REF_CONFIG)
    assert values == {
        "beta0": 1.77,
        "n": 12.0,
        "delta": 0.05,
        "k": 1.180746972,
        "r": 0.3559207407,
    }


def test_parse_config_empty_lists_missing_keys():
    with pytest.raises(ConfigError) as err:
        cli.parse_config("")
    message = str(err.value)
    for name in ("beta0", "n", "delta", "gamma or k"):
        assert name in message


def test_parse_config_rejects_gamma_and_k():
    text = "beta0=1\nn=2\ndelta=0.1\ngamma=1.48067\nk=1.18\n"
    with pytest.raises(ConfigError, match="line 5"):
        cli.parse_config(text)


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ConfigError, match="line 2"):
        cli.parse_config("beta0=1\nomega=3\n")


def test_parse_config_rejects_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate"):
        cli.parse_config("beta0=1\nbeta0=2\n")


def test_parse_config_rejects_bad_value():
    with pytest.raises(ConfigError, match="line 1"):
        cli.parse_config("beta0=fast\n")


def test_parse_config_rejects_missing_equals():
    with pytest.raises(ConfigError, match="line 1"):
        cli.parse_config("beta0 1.77\n")


# ------------------------------------------------------------------- commands


def test_equilibria_command_output(config_path, capsys):
    assert cli.main(["equilibria", config_path]) == 0
    out = capsys.readouterr().out
    assert "x2     = 1.15085968116" in out
    assert "r_max" in out


def test_validate_is_not_a_command(config_path, capsys):
    # the undocumented alias of equilibria is gone: argparse refuses it
    with pytest.raises(SystemExit) as exc:
        cli.main(["validate", config_path])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid choice: 'validate'" in captured.err


def _exit_code(argv):
    """main's return value, or the code argparse exits with."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


def test_help_names_every_command(capsys):
    assert _exit_code(["--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: hemohopf command config [options]")
    for command in cli.COMMANDS:
        assert command in out


@pytest.mark.parametrize("argv", [
    ["stability", "CFG", "--r", "0.35", "--delta-r", "-2e-3", "-o", "s.csv"],
    ["stability", "--r", "0.35", "--delta-r", "-2e-3", "-o", "s.csv", "CFG"],
    ["stability", "--r", "0.35", "CFG", "--delta-r=-2e-3", "-o", "s.csv"],
    ["--r", "0.35", "--delta-r", "-2e-3", "stability", "CFG", "-o", "s.csv"],
])
def test_options_parse_before_and_after_config(config_path, argv):
    argv = [config_path if arg == "CFG" else arg for arg in argv]
    cfg = cli._merge(cli._build_argparser().parse_args(argv))
    assert (cfg.command, cfg.r, cfg.delta_r, cfg.output) == (
        "stability", 0.35, -2e-3, "s.csv")


@pytest.mark.parametrize("argv, code", [
    (["stability"], 2),
    ([], 2),
    (["stability", "CFG", "--bogus"], 2),
    (["stability", "CFG", "extra"], 2),
    (["stability", "CFG", "--r-grid", "0.3", "0.4"], 2),
    (["simulate", "CFG", "--stride", "x", "-o", "t.csv"], 2),
    (["equilibria", "/nonexistent/params.cfg"], 2),
    (["equilibria", "CFG", "--gamma", "1.4", "--k", "1.2"], 2),
    (["scaling", "CFG", "--delta-r", "-2e-3", "--t-end", "120"], 3),
    (["scaling", "CFG", "--delta-r", "1e-300"], 2),  # r* + delta_r == r*
])
def test_refusals_keep_exit_code_and_empty_stdout(config_path, capsys, argv, code):
    argv = [config_path if arg == "CFG" else arg for arg in argv]
    assert _exit_code(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err != ""


def test_hopf_command_reports_the_point_and_two_checks(config_path, capsys):
    assert cli.main(["hopf", config_path]) == 0
    out = capsys.readouterr().out
    assert "strategy route:" in out
    assert "r*     = 0.355920877691" in out
    assert "independent checks at r*:\n  g residual = " in out
    assert "Lambert W0 root lam0 = " in out
    assert float(out.split("|lam0 - i omega*| / omega* = ")[1]) <= 1e-12
    assert "boundary-root route" not in out and "route agreement" not in out


def test_normal_form_command_output(config_path, capsys):
    assert cli.main(["normal-form", config_path]) == 0
    out = capsys.readouterr().out
    assert "l1 = -43.7106330483" in out
    assert "mu' = 25.6600286822" in out
    assert "criticality: supercritical" in out
    assert "closed form" in out  # cross-check values are printed


def test_stability_command_small_k(tmp_path, capsys):
    path = tmp_path / "low.cfg"
    path.write_text("beta0=1.77\nn=12\ndelta=0.05\ngamma=1.0\nr=0.8\n")
    assert cli.main(["stability", str(path)]) == 0
    out = capsys.readouterr().out
    assert "x1: case X1, stable" in out
    assert "x2: absent" in out


def test_stability_grid_csv(config_path, tmp_path, capsys):
    out_csv = tmp_path / "stab.csv"
    code = cli.main(
        ["stability", config_path, "--r-grid", "0.35", "0.36", "3",
         "--output", str(out_csv)]
    )
    assert code == 0
    with open(out_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["r", "case", "status", "g_of_r", "re_rightmost"]
    assert len(rows) == 4
    assert rows[1][1:3] == ["I.A", "stable"]
    assert rows[3][1:3] == ["I.A", "unstable"]
    assert float(rows[1][3]) > 0.0 > float(rows[3][3])
    assert float(rows[1][4]) < 0.0 < float(rows[3][4])


@pytest.mark.parametrize("grid, output, message", [
    (["0.1", "0.3", "5"], False, "requires --output"),
    (["0.3", "0.1", "5"], True, "bad r grid"),
    # every delay must be finite and positive
    (["-1e-3", "0.5", "3"], True, "bad r grid"),
    (["0", "0.3", "3"], True, "bad r grid"),
    (["nan", "0.3", "5"], True, "bad r grid"),
    (["0.1", "inf", "5"], True, "bad r grid"),
])
def test_stability_refused_grid_prints_no_half_report(config_path, tmp_path, capsys,
                                                      grid, output, message):
    out_csv = tmp_path / "stab.csv"
    argv = ["stability", config_path, "--r-grid", *grid]
    code = cli.main(argv + (["-o", str(out_csv)] if output else []))
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert not out_csv.exists()


def test_stability_grid_at_long_delays(tmp_path, capsys):
    # delays up to about 345 (r |p| up to 376): every row still gets a finite root
    path = tmp_path / "long.cfg"
    path.write_text(
        "beta0 = 2.996718704659257\nn = 7.121855721391416\n"
        "delta = 0.0768234107230019\ngamma = 0.0019191054501808895\n"
        "r = 1.3716195251882326\n"
    )
    out_csv = tmp_path / "stab.csv"
    code = cli.main(
        ["stability", str(path), "--r-grid", "3.445470927120269",
         "344.5470927120269", "100", "--output", str(out_csv)]
    )
    assert code == 0
    with open(out_csv, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert len(rows) == 100
    assert all(math.isfinite(float(row[4])) for row in rows)


@pytest.mark.parametrize("count",
                         ["2.5", "0", "-2", str(cli.MAX_GRID_POINTS + 1), "1e12"])
def test_stability_grid_count_must_be_positive_integer(config_path, tmp_path, capsys,
                                                       count):
    out_csv = tmp_path / "stab.csv"
    code = cli.main(
        ["stability", config_path, "--r-grid", "0.34", "0.37", count,
         "--output", str(out_csv)]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # refused before the verdicts are printed
    assert "COUNT" in captured.err
    assert not out_csv.exists()


def test_stability_grid_count_at_the_cap_is_accepted(config_path):
    # merged only, not run: a grid this size takes seconds
    args = cli._build_argparser().parse_args(
        ["stability", config_path, "--r-grid", "0.1", "0.3",
         str(cli.MAX_GRID_POINTS), "--output", "stab.csv"]
    )
    grid = cli._merge(args).r_grid
    assert (len(grid), grid[0], grid[-1]) == (cli.MAX_GRID_POINTS, 0.1, 0.3)


@pytest.mark.parametrize("flags", [
    ["--t-end", "1e12"],
    ["--t-end", "inf"],
    ["--steps-per-delay", "1000000000"],
])
def test_simulate_step_count_is_capped(config_path, tmp_path, capsys, flags):
    out_csv = tmp_path / "traj.csv"
    code = cli.main(
        ["simulate", config_path, "--r", "0.36", *flags, "--output", str(out_csv)]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # an infinite --t-end is refused as a flag value, before its steps are counted
    message = "--t-end must be finite and > 0" if flags[1] == "inf" else "MAX_STEPS"
    assert message in captured.err
    assert not out_csv.exists()


@pytest.mark.parametrize("command, flags, message", [
    ("simulate", ["--r", "0.36", "--transient-fraction", "1.5"], "--transient-fraction"),
    ("simulate", ["--r", "0.36", "--stride", "0"], "--stride"),
    ("sweep", ["--r-grid", "0.35", "0.36", "2", "--transient-fraction", "nan"],
     "--transient-fraction"),
    ("scaling", ["--transient-fraction", "0"], "--transient-fraction"),
])
def test_bad_orbit_flags_are_refused_before_integration(config_path, tmp_path, capsys,
                                                        monkeypatch, command, flags,
                                                        message):
    def no_integration(*args, **kwargs):
        raise AssertionError("integrated before refusing the flag")

    monkeypatch.setattr(ddesim, "integrate", no_integration)
    out_csv = tmp_path / "out.csv"
    code = cli.main([command, config_path, *flags, "--output", str(out_csv)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert not out_csv.exists()


BAD_FLAG_VALUES = [
    ("--stride", "0"),
    ("--transient-fraction", "1.5"),
    ("--transient-fraction", "nan"),
    ("--bracket", "-1", "0.4"),
    ("--bracket", "nan", "0.4"),
    ("--delta-r", "0"),
    ("--delta-r", "nan"),
    ("--t-end", "nan"),
    ("--t-end", "-1"),
    ("--steps-per-delay", "0"),
]


def _forbid_evaluation(monkeypatch):
    # every evaluation a command can start with: the equilibria report, the
    # verdicts, D (checked, and the float kernel that `find_hopf_r` climbs the
    # Hopf curve and roots on), r_max of that climb, and an integration
    def must_not_run(*args, **kwargs):
        raise AssertionError("evaluated before refusing the flag")

    for module, name in ((model, "equilibria"), (linstab, "classify_x1"),
                         (linstab, "classify_x2"), (hopf, "frontier_mismatch"),
                         (hopf, "_mismatch"), (hopf, "_r_max"), (ddesim, "integrate")):
        monkeypatch.setattr(module, name, must_not_run)


@pytest.mark.parametrize("flag", BAD_FLAG_VALUES, ids=" ".join)
@pytest.mark.parametrize("command", cli.COMMANDS)
def test_every_command_refuses_a_bad_flag_value_before_evaluation(
    config_path, tmp_path, capsys, monkeypatch, command, flag
):
    # a command that does not use the flag refuses its bad value all the same
    _forbid_evaluation(monkeypatch)
    out_csv = tmp_path / "out.csv"
    argv = [command, config_path, *flag, "--r-grid", "0.35", "0.36", "2", "-o", str(out_csv)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: ")
    assert flag[0].lstrip("-") in line
    assert not out_csv.exists()


NO_DELAY_CONFIG = "beta0=1.77\nn=12\ndelta=0.05\ngamma=1.48067\n"
GRID = ["--r-grid", "0.35", "0.36", "2"]

# (config, argv, the refusal): a command missing a flag it requires
MISSING_FLAG_RUNS = {
    "stability-grid-output": (GAMMA_CONFIG, ["stability", *GRID],
                              "stability with an r grid requires --output"),
    "simulate-output": (GAMMA_CONFIG, ["simulate"],
                        "simulate requires --output for the trajectory CSV"),
    "equilibria-delay": (NO_DELAY_CONFIG, ["equilibria"],
                         "command 'equilibria' requires the delay r"),
    "stability-delay": (NO_DELAY_CONFIG, ["stability"],
                        "command 'stability' requires the delay r"),
    # the delay is refused before the output of a grid
    "stability-grid-delay-and-output": (NO_DELAY_CONFIG, ["stability", *GRID],
                                        "command 'stability' requires the delay r"),
    "simulate-delay": (NO_DELAY_CONFIG, ["simulate", "-o", "t.csv"],
                       "command 'simulate' requires the delay r"),
    # simulate names its output first
    "simulate-delay-and-output": (NO_DELAY_CONFIG, ["simulate"],
                                  "simulate requires --output for the trajectory CSV"),
    "sweep-grid": (GAMMA_CONFIG, ["sweep", "-o", "s.csv"],
                   "sweep requires --r-grid START STOP COUNT"),
    "sweep-output": (GAMMA_CONFIG, ["sweep", *GRID], "sweep requires --output for the metrics CSV"),
}


@pytest.mark.parametrize("config, argv, message", MISSING_FLAG_RUNS.values(),
                         ids=MISSING_FLAG_RUNS)
def test_a_missing_required_flag_is_refused_before_evaluation(
    tmp_path, capsys, monkeypatch, config, argv, message
):
    _forbid_evaluation(monkeypatch)
    path = tmp_path / "params.cfg"
    path.write_text(config)
    flags = [str(tmp_path / arg) if arg.endswith(".csv") else arg for arg in argv[1:]]
    assert cli.main([argv[0], str(path), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == [path]


def test_r_flag_anchors_gamma_only_on_the_files_own_k_and_r(tmp_path, capsys):
    k_path, gamma_path = tmp_path / "k.cfg", tmp_path / "gamma.cfg"
    k_path.write_text(REF_CONFIG)
    gamma_path.write_text("beta0 = 1.77\nn = 12\ndelta = 0.05\ngamma = 1.48\nr = 0.3559\n")
    # --r alone moves the delay at the gamma of the file's (k, r)
    assert cli.main(["equilibria", str(k_path), "--r", "0.36"]) == 0
    assert " gamma=1.48066649391 r=0.36 k=1.17" in capsys.readouterr().out
    # a --k flag holds at the given delay, whatever the file parameterizes
    for path in (k_path, gamma_path):
        assert cli.main(["equilibria", str(path), "--k", "1.18", "--r", "0.36"]) == 0
        assert " r=0.36 k=1.18\n" in capsys.readouterr().out


def test_k_and_r_flags_locate_by_the_closed_form_on_any_k_file(tmp_path, capsys):
    # the same run whether or not the file gives r
    outputs = []
    for text in (REF_CONFIG, REF_CONFIG.replace("r = 0.3559207407\n", "")):
        path = tmp_path / "k.cfg"
        path.write_text(text)
        assert cli.main(["hopf", str(path), "--k", "1.18", "--r", "0.36"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert outputs[0].startswith("strategy route:\n  r*     = 0.354902507516\n")


@pytest.mark.parametrize("command, spaced, joined", [
    ("scaling", ["--delta-r", "-2e-3"], ["--delta-r=-2e-3"]),
    ("simulate", ["--r", "-1e-3"], ["--r=-1e-3"]),
    ("hopf", ["--bracket", "-1e-3", "0.5"], None),
    ("stability", ["--r-grid", "-1e-3", "0.5", "3"], None),
    # on a k config the bracket selects no crossing, but it is checked all the same
    ("normal-form", ["--bracket", "-1e-3", "0.5"], None),
    ("scaling", ["--bracket", "-1e-3", "0.5"], None),
])
def test_negative_flag_values_parse(config_path, tmp_path, capsys, command, spaced,
                                    joined):
    common = ["--t-end", "120", "--output", str(tmp_path / "out.csv")]
    code = cli.main([command, config_path, *spaced, *common])
    assert "expected" not in capsys.readouterr().err  # no argparse complaint
    if joined is None:
        assert code == 2  # the program itself rejects the negative value
    else:
        assert code == cli.main([command, config_path, *joined, *common])


def test_simulate_writes_cycle_csv(config_path, tmp_path, capsys):
    out_csv = tmp_path / "traj.csv"
    code = cli.main(
        ["simulate", config_path, "--r", "0.36", "--output", str(out_csv)]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "kind = cycle" in stdout

    # reclassify from the file contents alone
    with open(out_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "x"]
    # the CLI derives gamma from the file's (k, r) pair, then applies --r
    gamma = model.gamma_from_k(rv.K, 0.3559207407)
    params = model.ModelParameters.from_gamma(rv.BETA0, rv.N, rv.DELTA, gamma, 0.36)
    import numpy as np

    t = np.array([float(a) for a, _ in rows[1:]])
    x = np.array([float(b) for _, b in rows[1:]])
    h = float(t[1] - t[0])
    # the file has no derivative column; difference the values instead
    traj = ddesim.Trajectory(t=t, x=x, dx=np.gradient(x, h), step=h, params=params)
    metrics = ddesim.orbit_metrics(traj, 0.5)
    assert metrics.kind == ddesim.KIND_CYCLE


@pytest.mark.parametrize("stride", [1, 10])
def test_simulate_reports_the_rows_it_wrote(config_path, tmp_path, capsys, stride):
    out_csv = tmp_path / "traj.csv"
    argv = ["simulate", config_path, "--r", "0.36", "--t-end", "20", "--stride", str(stride)]
    assert cli.main(argv + ["--output", str(out_csv)]) == 0
    rows = len(out_csv.read_text().splitlines()) - 1  # less the header
    assert rows == len(range(0, 2779, stride))  # t = 0 .. 20 in steps of 0.36 / 50
    assert capsys.readouterr().out.startswith(f"wrote {rows} rows to {out_csv}\n")


@pytest.mark.parametrize("t_end", ["1e-12", "1e-300"])
def test_simulate_to_a_t_end_inside_the_first_step_takes_it(tmp_path, capsys, t_end):
    cfg = tmp_path / "gamma.cfg"
    cfg.write_text(f"beta0 = {rv.BETA0}\nn = {rv.N}\ndelta = {rv.DELTA}\n"
                   f"gamma = {rv.GAMMA_REF}\nr = 0.36\n")
    out_csv = tmp_path / "traj.csv"
    argv = ["simulate", str(cfg), "--r", "0.36", "--t-end", t_end, "-o", str(out_csv)]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.startswith(f"wrote 2 rows to {out_csv}\n")
    header, first, last = out_csv.read_text().splitlines()
    assert (header, first) == ("t,x", "0,1") and float(last.split(",")[0]) == 0.36 / 50


def test_simulate_deterministic_output(config_path, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    argv = ["simulate", config_path, "--r", "0.355", "--t-end", "20"]
    assert cli.main(argv + ["--output", str(a)]) == 0
    assert cli.main(argv + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert b"\r" not in a.read_bytes()  # LF endings only


def _ref_gamma_config(tmp_path):
    path = tmp_path / "ref.cfg"
    path.write_text(config_text(TIME_UNIT_CONFIGS["gamma"]))  # gamma = rv.GAMMA_REF
    return str(path)


def _sweep_kinds(tmp_path, start, stop, count):
    # the kind column of a sweep on the reference gamma config, at the defaults
    out_csv = tmp_path / "sweep.csv"
    assert cli.main(["sweep", _ref_gamma_config(tmp_path), "--r-grid", repr(start),
                     repr(stop), str(count), "-o", str(out_csv)]) == 0
    with open(out_csv, newline="") as fh:
        return [(float(row[0]), row[1]) for row in list(csv.reader(fh))[1:]]


def test_sweep_reads_no_equilibrium_where_x2_is_linearly_unstable(tmp_path, capsys):
    # within 4e-4 above r*, the tail still decays onto the small cycle at the
    # default horizon; x2 is unstable there, so that decay is no equilibrium
    above = _sweep_kinds(tmp_path, rv.R_REF + 2.5e-5, rv.R_REF + 1e-3, 40)
    assert all(kind != "equilibrium" for _, kind in above)
    assert any(kind == "undetermined" for r, kind in above if r < rv.R_REF + 4e-4)
    # below r* x2 is stable, and every row keeps the kind of the orbit diagnostics
    for r, kind in _sweep_kinds(tmp_path, rv.R_REF - 1e-3, rv.R_REF - 2.5e-5, 40):
        params = model.ModelParameters.from_gamma(rv.BETA0, rv.N, rv.DELTA, rv.GAMMA_REF, r)
        traj = ddesim.integrate(params, ddesim.default_history(r), ddesim.T_END)
        assert kind == ddesim.orbit_metrics(traj).kind, r


def test_simulate_reads_no_equilibrium_where_x2_is_linearly_unstable(tmp_path, capsys):
    # r* + 1e-4: orbit_metrics reads a decaying envelope there
    assert cli.main(["simulate", _ref_gamma_config(tmp_path), "--r", repr(rv.R_REF + 1e-4),
                     "-o", str(tmp_path / "t.csv")]) == 0
    assert "kind = undetermined   amplitude = 0.0161618103401" in capsys.readouterr().out


def test_sweep_csv(config_path, tmp_path, capsys):
    out_csv = tmp_path / "sweep.csv"
    code = cli.main(
        ["sweep", config_path, "--r-grid", "0.35", "0.36", "2",
         "--t-end", "80", "--output", str(out_csv)]
    )
    assert code == 0
    with open(out_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["r", "kind", "amplitude", "period"]
    assert [row[1] for row in rows[1:]] == ["equilibrium", "cycle"]
    assert rows[1][3] == "nan"  # no period at an equilibrium
    assert float(rows[2][3]) > 0.0
    # full-precision round trip of the grid values
    assert float(rows[1][0]) == 0.35 and float(rows[2][0]) == 0.36


def test_sweep_total_step_count_is_capped(config_path, tmp_path, capsys):
    # refused while summing the rows' step counts, before any integration
    out_csv = tmp_path / "sweep.csv"
    code = cli.main(
        ["sweep", config_path, "--r-grid", "0.01", "0.36", "100000",
         "--output", str(out_csv)]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "MAX_SWEEP_STEPS" in captured.err
    assert not out_csv.exists()


def test_scaling_command_inconclusive_is_exit_3(config_path, capsys):
    code = cli.main(
        ["scaling", config_path, "--delta-r=-2e-3", "--t-end", "120"]
    )
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


# x^n overflows in an RK4 step while |x| is still below 1e100
OVERFLOW_CONFIGS = [
    ("beta0 = 25.79\nn = 18.29\ndelta = 7.36\nk = 0.564\nr = 32.59\n", [], "32.59"),
    ("beta0 = 1.77\nn = 12\ndelta = 5\ngamma = 0.1\nr = 10\n",
     ["--steps-per-delay", "2"], "10"),
]


@pytest.mark.parametrize("config, flags, r", OVERFLOW_CONFIGS, ids=["k", "gamma"])
@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_overflow_is_a_numerical_failure(tmp_path, capsys, config, flags, r, command):
    path = tmp_path / "overflow.cfg"
    path.write_text(config)
    out_csv = tmp_path / "out.csv"
    grid = ["--r-grid", r, r, "1"] if command == "sweep" else []
    assert cli.main([command, str(path), "-o", str(out_csv)] + flags + grid) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical failure: state blew up at t = ")
    assert not out_csv.exists()


# a seed-1 frontier draw past the l1 = 0 curve: l1 = +0.0103 at r* = 11.755
SUBCRITICAL_CONFIG = """\
beta0 = 2.1072
n = 2.3224
delta = 0.025554
k = 1.44077
r = 11.755
"""


def test_scaling_refuses_a_subcritical_point_before_integration(tmp_path, capsys,
                                                                monkeypatch):
    # both probes land on the same large cycle, whose amplitude ratio
    # (0.9995 here) says nothing about square-root growth
    def no_integration(*args, **kwargs):
        raise AssertionError("integrated a subcritical point")

    monkeypatch.setattr(ddesim, "integrate", no_integration)
    path = tmp_path / "subcritical.cfg"
    path.write_text(SUBCRITICAL_CONFIG)
    code = cli.main(["scaling", str(path), "--delta-r", "0.05", "--t-end", "3000"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "subcritical" in captured.err and "l1" in captured.err


# ------------------------------------------------------------ error handling


def test_missing_config_file_is_exit_2(capsys):
    assert cli.main(["equilibria", "/nonexistent/params.cfg"]) == 2


def test_invalid_config_is_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("beta0=1.77\n")
    assert cli.main(["equilibria", str(path)]) == 2
    assert "missing required keys" in capsys.readouterr().err


def test_bad_bracket_is_exit_2(gamma_config_path, capsys):
    # D < 0 at both ends: x2 is unstable from r* = 0.35592 to 0.44421
    code = cli.main(["hopf", gamma_config_path, "--bracket", "0.36", "0.40"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_hopf_failing_cross_check_prints_no_half_report(config_path, capsys, monkeypatch):
    # the strategy route succeeds, then the Lambert-W check fails
    def uncertified(triple):
        raise ConvergenceError("rightmost root has relative residual 1.000e-09 > 1e-10")

    monkeypatch.setattr(linstab, "rightmost_root", uncertified)
    assert cli.main(["hopf", config_path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical failure: rightmost root has relative residual")


def test_hopf_on_a_k_config_locates_once_and_evaluates_g_once(tmp_path, capsys,
                                                               monkeypatch):
    # a seed-1 frontier draw written as a k config at its r*: on the +-10%
    # bracket around r* the frontier mismatch D has a second crossing; the
    # closed form is the only locator, and a bracket changes nothing
    n, beta0, delta, k = (17.076403561926313, 1.8911358066310835,
                          0.19626536525040922, 1.1859062658947177)
    hp = hopf.hopf_from_pqk(n, beta0, delta, k)
    path = tmp_path / "draw.cfg"
    path.write_text(f"beta0 = {beta0!r}\nn = {n!r}\ndelta = {delta!r}\n"
                    f"k = {k!r}\nr = {hp.r_star!r}\n")

    def no_second_locator(*args):
        raise AssertionError("ran find_hopf_r on a k config")

    monkeypatch.setattr(hopf, "find_hopf_r", no_second_locator)
    g_calls = []
    _count_calls(monkeypatch, linstab, "g_of_r", g_calls)
    _count_calls(monkeypatch, hopf, "g_of_r", g_calls)
    assert cli.main(["hopf", str(path)]) == 0
    out = capsys.readouterr().out
    assert g_calls == [hp.r_star]
    assert float(out.split("|lam0 - i omega*| / omega* = ")[1]) <= 1e-12
    assert cli.main(["hopf", str(path), "--bracket", "0.5", "0.6"]) == 0
    assert capsys.readouterr().out == out
    assert cli.main(["normal-form", str(path)]) == 0


@pytest.mark.parametrize("bracket", [("-1", "0.4"), ("nan", "0.4"), ("0.3", "inf")])
def test_bracket_end_negative_or_not_finite_is_refused_before_evaluation(
    gamma_config_path, capsys, monkeypatch, bracket
):
    def no_evaluation(*args):
        raise AssertionError(f"evaluated the frontier mismatch at r = {args[-1]}")

    monkeypatch.setattr(hopf, "_mismatch", no_evaluation)
    assert cli.main(["hopf", gamma_config_path, "--bracket", *bracket]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "bracket ends must be finite and nonnegative" in captured.err


# the bad byte sits on line 7, after the 6 lines of REF_CONFIG
UNDECODABLE_CONFIG = REF_CONFIG.encode() + b"# \xff\n"


@pytest.mark.parametrize("config, argv", [
    (REF_CONFIG.encode(), ["simulate", "--r", "0.36", "--t-end", "10", "-o", "missing/t.csv"]),
    (REF_CONFIG.encode(), ["simulate", "--r", "0.36", "--t-end", "10", "-o", "."]),
    (REF_CONFIG.encode(), ["sweep", "--r-grid", "0.35", "0.36", "2", "--t-end", "10",
                           "-o", "missing/s.csv"]),
    # the verdicts are ready before the open fails; none may reach stdout
    (REF_CONFIG.encode(), ["stability", "--r-grid", "0.3", "0.4", "3", "-o", "missing/s.csv"]),
    (UNDECODABLE_CONFIG, ["simulate", "--r", "0.36", "--t-end", "10", "-o", "t.csv"]),
], ids=["simulate-missing-dir", "simulate-into-dir", "sweep-missing-dir",
        "stability-grid-missing-dir", "undecodable-config"])
def test_unreadable_config_or_unwritable_output_is_exit_2(tmp_path, capsys, config, argv):
    path = tmp_path / "run.cfg"
    path.write_bytes(config)
    command, *flags = argv
    flags[-1] = str(tmp_path / flags[-1])  # the -o path
    assert cli.main([command, str(path), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]  # no CSV left behind
    if config is UNDECODABLE_CONFIG:
        # the refusal names the file and the line of the bad byte
        assert captured.err == (f"error: {path}: line 7: cannot decode byte 0xff "
                                "as UTF-8 (invalid start byte)\n")


def test_unwritable_output_shows_no_traceback_in_a_fresh_interpreter(config_path, tmp_path):
    # the contract a caller spawning the CLI relies on: exit 2, no traceback
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "hemohopf.cli", "simulate", config_path, "--r", "0.36",
         "--t-end", "10", "-o", str(tmp_path)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


# A = beta0 (k - 1)/delta overflows; at r = 0.01 too, where k = 1.980
OVERFLOWING_A_CONFIG = "beta0 = 1e308\nn = 2\ndelta = 0.5\ngamma = 1\nr = 0\n"


@pytest.mark.parametrize("argv", [
    ["equilibria"], ["stability"], ["hopf"], ["simulate", "--r", "0.01", "-o", "OUT"],
])
def test_overflowing_A_is_refused_by_name(tmp_path, capsys, argv):
    path = tmp_path / "big.cfg"
    path.write_text(OVERFLOWING_A_CONFIG)
    flags = [str(tmp_path / "t.csv") if arg == "OUT" else arg for arg in argv[1:]]
    assert cli.main([argv[0], str(path), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: A = beta0 (k - 1)/delta must be finite, got inf\n"


# A = 1.62e308 is finite at r = 0.1, but B1(x2) = beta0 (n - (n - 1) A)/A^2 is not
OVERFLOWING_B1_CONFIG = "beta0 = 1e308\nn = 2\ndelta = 0.5\ngamma = 1\nr = 0.1\n"


@pytest.mark.parametrize("command, err", [
    ("equilibria", "B1(x2) = beta0 (n - (n - 1) A)/A^2 must be finite, got nan"),
    ("stability", "p, q must be finite, got p=nan, q=nan"),
    # hopf brackets the fixed-gamma family from r = 0, where A overflows
    ("hopf", "A = beta0 (k - 1)/delta must be finite, got inf"),
])
def test_overflowing_B1_is_refused_by_name(tmp_path, capsys, command, err):
    path = tmp_path / "big.cfg"
    path.write_text(OVERFLOWING_B1_CONFIG)
    assert cli.main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {err}\n"


# A = beta0 = 1e80 .. 1e150: the Taylor data at x2 form no power of A
LARGE_BETA0_CONFIG = "n = 12\ndelta = 0.5\nk = 1.5\nr = 0.3\nbeta0 = {}\n"


@pytest.mark.parametrize("beta0", ["1e80", "1e110", "1e150"])
def test_large_beta0_normal_form_and_scaling_do_not_overflow(tmp_path, capsys, beta0):
    path = tmp_path / "large.cfg"
    path.write_text(LARGE_BETA0_CONFIG.format(beta0))
    # l1 is 1e-12 .. 1e-24 here, but l1 x2^2 is the same on all three: the
    # criticality band is relative to the terms of l1, so this is no degeneracy
    assert cli.main(["normal-form", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.out.endswith("criticality: supercritical\n"
                                 "  stable periodic solution for r > r*\n")
    assert captured.err == ""
    hp = hopf.hopf_from_pqk(12.0, float(beta0), 0.5, 1.5)
    l1 = hopf.criticality_report(hp).l1
    assert l1 * hp.x2_star**2 == pytest.approx(-42.3477512483, rel=1e-9)
    # explicit RK4 at rates of order beta0 blows up on the first steps
    assert cli.main(["scaling", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical failure: state blew up at t = ")
    assert "Traceback" not in captured.err


# The reference k config at r = 0.36, and the gamma config at the gamma* of
# the reference k, so that its Hopf point is the same.
TIME_UNIT_CONFIGS = {
    "k": {"beta0": 1.77, "n": 12.0, "delta": 0.05, "k": 1.180746972, "r": 0.36},
    "gamma": {"beta0": 1.77, "n": 12.0, "delta": 0.05, "gamma": 1.4806659240099702,
              "r": 0.36},
}
TIME_UNIT_SCALES = [1e-300, 1e-200, 1e-150, 1e-12, 1e-10, 1e-9, 1e-6, 1e-3,
                    1e3, 1e6, 1e9, 1e12, 1e150, 1e200, 1e300]
ANALYTIC_COMMANDS = ("equilibria", "stability", "hopf", "normal-form")
_VERDICT_WORDS = re.compile(r"case [^,]+, \w+|absent|^criticality: \w+", re.M)


def in_time_unit(values, s):
    """`values` in a time unit 1/s as long: beta0, delta and gamma times s,
    r over s; k and n are pure numbers."""
    scale = {"beta0": s, "delta": s, "gamma": s}
    return {key: v / s if key == "r" else v * scale.get(key, 1.0)
            for key, v in values.items()}


def config_text(values):
    return "".join(f"{key} = {v!r}\n" for key, v in values.items())


def verdict_words(out):
    """The verdicts of a report: the case labels and statuses, whether x2
    is absent, and the criticality."""
    return _VERDICT_WORDS.findall(out)


def _analytic_verdicts(tmp_path, capsys, values):
    """{command: (exit code, verdict words)} of the analytic commands on `values`."""
    path = tmp_path / "unit.cfg"
    path.write_text(config_text(values))
    verdicts = {}
    for command in ANALYTIC_COMMANDS:
        code = cli.main([command, str(path)])
        verdicts[command] = code, verdict_words(capsys.readouterr().out)
    return verdicts


def _time_unit_hopf(name, s):
    v = in_time_unit(TIME_UNIT_CONFIGS[name], s)
    if name == "k":
        return hopf.hopf_from_pqk(v["n"], v["beta0"], v["delta"], v["k"])
    params = model.ModelParameters.from_gamma(v["beta0"], v["n"], v["delta"],
                                              v["gamma"], v["r"])
    return hopf.find_hopf_r(params, (0.3 / s, 0.4 / s))


@pytest.mark.parametrize("s", TIME_UNIT_SCALES)
@pytest.mark.parametrize("name", sorted(TIME_UNIT_CONFIGS))
def test_analytic_verdicts_do_not_depend_on_the_time_unit(tmp_path, capsys, name, s):
    values = TIME_UNIT_CONFIGS[name]
    expected = _analytic_verdicts(tmp_path, capsys, values)
    assert expected == {
        "equilibria": (0, []),
        "stability": (0, ["case X1, unstable", "case I.A, unstable"]),
        "hopf": (0, []),
        "normal-form": (0, ["criticality: supercritical"]),
    }
    verdicts = _analytic_verdicts(tmp_path, capsys, in_time_unit(values, s))
    hp, hp_s = _time_unit_hopf(name, 1.0), _time_unit_hopf(name, s)
    if not 1e-154 < s < 1e154:
        # omega* is s times its s = 1 value, and omega*^2 leaves the normal range
        assert verdicts.pop("normal-form") == (3, [])
        expected.pop("normal-form")
        with pytest.raises(NumericsError, match=r"omega\*\^2 leaves the float range"):
            hopf.criticality_report(hp_s)
    assert verdicts == expected
    assert hp_s.r_star * s == pytest.approx(hp.r_star, rel=1e-12, abs=0.0)
    assert hp_s.omega_star / s == pytest.approx(hp.omega_star, rel=1e-12, abs=0.0)
    # the Lambert-W check of `hopf` holds in every unit
    lam0 = linstab.rightmost_root(hp_s.triple)
    assert abs(lam0 - 1j * hp_s.omega_star) <= 1e-12 * hp_s.omega_star


def _reference_in_time_unit(name, s, r):
    return config_text(in_time_unit(dict(TIME_UNIT_CONFIGS[name], r=r), s))


CROSSING_UNDERFLOW = "beta0 = 1e-300\nn = 2\ndelta = 5e-324\nk = 1.9999999999999998\nr = 1\n"

# A run at each place where an input at the edge of the float range once
# ended in a bare exception or a false message: (config, argv, exit code, the
# start of stderr on a refusal or a line of stdout on exit 0).
EDGE_RUNS = {
    # k/2 underflows to 0 in gamma = -ln(k/2)/r
    "k-underflow": ("beta0 = 1.77\nn = 12\ndelta = 0.05\nk = 5e-324\nr = 0.36\n",
                    ["hopf"], 2,
                    "error: k = 5e-324 is too small to recover gamma: k/2 underflows to 0"),
    # beta0 (n - 1) underflows in r_n: the B1 < 0 regime is empty, r_n = -inf
    "r_n-underflow": ("beta0 = 5e-324\nn = 1.5\ndelta = 0.05\ngamma = 1.48\nr = 0.36\n",
                      ["equilibria"], 0, "r_max  = -inf   r_n = -inf"),
    # q^2 - p^2 underflows to 0; p = 0 < -q, but the crossing delay (pi/2)/|q|
    # overflows
    "crossing-underflow": (CROSSING_UNDERFLOW, ["stability"], 0,
                           "x2: case I.boundary_p0, stable  window=(0, inf)\n"
                           "    p < -q, but r0 overflows: stable for every float delay\n"),
    "hopf-crossing-delay-overflow": (CROSSING_UNDERFLOW, ["hopf"], 3,
                                     "numerical failure: r* = arccos(p/q) / omega* "
                                     "overflows at omega* = 1e-323"),
    # the step r / steps_per_delay underflows to 0
    "step-underflow": (GAMMA_CONFIG, ["simulate", "--r", "5e-324", "-o", "t.csv"], 2,
                       "error: t_end = 200.0 at step 0 needs inf steps"),
    # a --steps-per-delay that does not convert to a float is refused by its range
    "steps-per-delay-overflow": (GAMMA_CONFIG, ["simulate", "--r", "0.36", "-o", "t.csv",
                                                "--steps-per-delay", "1" + "0" * 400], 2,
                                 "error: --steps-per-delay must be in [1, "
                                 "MAX_STEPS_PER_DELAY = 100000], got 1" + "0" * 400),
    # omega*^2 overflows, underflows to 0, and is subnormal
    "omega-overflow": (_reference_in_time_unit("gamma", 1e154, 0.36), ["normal-form"], 3,
                       "numerical failure: omega*^2 leaves the float range"),
    "omega-underflow": (_reference_in_time_unit("gamma", 1e-170, 0.36), ["normal-form"], 3,
                        "numerical failure: omega*^2 leaves the float range"),
    # (at 1e-162 the closed-form constant c once failed first, as a resonance)
    "omega-subnormal-1e-159": (_reference_in_time_unit("gamma", 1e-159, 0.36),
                               ["normal-form"], 3,
                               "numerical failure: omega*^2 leaves the float range"),
    "omega-subnormal-1e-162": (_reference_in_time_unit("gamma", 1e-162, 0.36),
                               ["normal-form"], 3,
                               "numerical failure: omega*^2 leaves the float range"),
    # q^2 - p^2 overflows to inf - inf = nan, which once read as unstable
    "crossing-overflow": (_reference_in_time_unit("gamma", 1e200, 0.35), ["stability"], 0,
                          "x2: case I.A, stable"),
    # the root search at r* = 3.6e-151, the reference point in the 1e150 time unit
    "secant-underflow": (_reference_in_time_unit("gamma", 1e150, 0.36), ["hopf"], 0,
                         "boundary-root route:"),
    # q^2 - p^2 overflows, and underflows to 0, on the way to r*
    "hopf-crossing-overflow": (_reference_in_time_unit("k", 1e154, 0.36), ["hopf"], 0,
                               "strategy route:"),
    "hopf-crossing-underflow": (_reference_in_time_unit("gamma", 1e-160, 0.36), ["hopf"],
                                0, "boundary-root route:"),
    # beta0 < delta: x2 exists at no delay, which is named before D is formed
    "no-x2-at-any-delay": ("beta0 = 0.04\nn = 12\ndelta = 0.05\ngamma = 1.48067\n",
                           ["normal-form"], 2, "error: x2 exists at no delay r > 0: "
                           "r_max = -0.07954712100358856"),
    # the first probe u/gamma of the climb on the Hopf curve overflows: it is
    # named, not a delay
    "r_max-overflow-5e-324": ("beta0 = 1.77\nn = 12\ndelta = 0.05\ngamma = 5e-324\n",
                              ["hopf"], 2, "error: bracket end u/gamma = 0.2531496866946766/"
                              "5e-324 leaves the float range"),
    "r_max-overflow-1e-320": ("beta0 = 1.77\nn = 12\ndelta = 0.05\ngamma = 1e-320\n",
                              ["normal-form"], 2, "error: bracket end u/gamma = "
                              "0.2531496866946766/1e-320 leaves the float range"),
    # r_max = 6.65e305 and the bracket end are finite: r* is the k = 2 crossing delay
    "r_max-overflow-1e-306": ("beta0 = 1.77\nn = 12\ndelta = 0.05\ngamma = 1e-306\n",
                              ["hopf"], 0, "r*     = 1.15800919269\n"),
    # STEEP_G_DRAW near its gamma: g moves by about 6e-11 per ulp of r near r*,
    # so |g(r*)| >= 1e-11, and r* is confirmed by a sign change of g within 64 ulp;
    # the residuals hang on the last ulp of r*, and test_hopf.py checks them
    "steep-g": ("beta0 = {!r}\nn = {!r}\ndelta = {!r}\ngamma = 0.15612321650009206\n"
                .format(*STEEP_G_DRAW[:3]), ["hopf"], 0, "  r*     = 4.4383631445\n"),
    # l1, the crossing speed and c overflow to nan on the float-range box
    **{f"normal-form-nonfinite-{name}": (
        "beta0 = {1!r}\nn = {0!r}\ndelta = {2!r}\nk = {3!r}\n".format(*draw),
        ["normal-form"], 3, f"numerical failure: {message}")
       for name, (draw, message) in NONFINITE_NORMAL_FORMS.items()},
}


@pytest.mark.parametrize("config, argv, code, line", EDGE_RUNS.values(), ids=EDGE_RUNS)
def test_edges_of_the_float_range_exit_by_name(tmp_path, capsys, config, argv, code, line):
    path = tmp_path / "edge.cfg"
    path.write_text(config)
    flags = [str(tmp_path / arg) if arg.endswith(".csv") else arg for arg in argv[1:]]
    assert cli.main([argv[0], str(path), *flags]) == code
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    if code == 0:
        assert captured.err == ""
        assert line in captured.out
    else:
        assert captured.out == ""
        assert captured.err.startswith(line)


def test_flag_overrides_require_single_parameterization(config_path, capsys):
    code = cli.main(["equilibria", config_path, "--gamma", "1.4", "--k", "1.2"])
    assert code == 2


def test_command_requiring_r(tmp_path, capsys):
    path = tmp_path / "nor.cfg"
    path.write_text("beta0=1.77\nn=12\ndelta=0.05\nk=1.180746972\n")
    assert cli.main(["simulate", str(path), "--output", "x.csv"]) == 2
    # but the Hopf routes work from k alone
    assert cli.main(["hopf", str(path)]) == 0


def test_hopf_command_gamma_parameterized(tmp_path, capsys):
    # gamma-anchored location: the boundary-root route leads, the strategy
    # route cross-checks at the located k
    path = tmp_path / "gamma.cfg"
    path.write_text("beta0=1.77\nn=12\ndelta=0.05\ngamma=1.48067\n")
    assert cli.main(["hopf", str(path)]) == 0
    out = capsys.readouterr().out
    assert "boundary-root route:" in out
    assert "independent checks at r*:" in out
    assert "r*     = 0.35592018752" in out


def test_gamma_hopf_evaluates_the_mismatch_once_per_delay(gamma_config_path, capsys,
                                                         monkeypatch):
    # D(0), 4 probes of the climb on the Hopf curve, the last past r* closing
    # the bracket, and 5 Illinois iterates; the bracket ends are not evaluated again
    delays, mismatch = [], hopf._mismatch

    def counted(beta0, n, delta, gamma, seen, r):
        delays.append(r)
        return mismatch(beta0, n, delta, gamma, seen, r)

    monkeypatch.setattr(hopf, "_mismatch", counted)
    assert cli.main(["hopf", gamma_config_path]) == 0
    assert "r*     = 0.35592018752\n" in capsys.readouterr().out
    assert len(delays) == 10
    assert len(set(delays)) == 10


# The k = 2 crossing delay: at these gamma, k(r) = 2 exp(-gamma r) rounds to 2
# near r*, while r_max lies up to 305 decades above it.
_K2_CROSSING = linstab.classify_x2(
    model.ModelParameters.from_gamma(rv.BETA0, rv.N, rv.DELTA, 1.0, 0.0)).stable_window[1]


@pytest.mark.parametrize("gamma", ["1e-78", "1e-150", "1e-305"])
@pytest.mark.parametrize("command", ["hopf", "normal-form"])
def test_gamma_far_below_one_locates_the_k2_crossing(gamma_config_path, capsys,
                                                     command, gamma):
    # the climb's first probe past r* lies far above it (u/gamma up to 2.5e304):
    # the root search closes from the end nearer r*
    assert cli.main([command, gamma_config_path, "--gamma", gamma]) == 0
    assert re.search(r"r\*\s+= 1\.15800919269\s", capsys.readouterr().out)
    params = model.ModelParameters.from_gamma(rv.BETA0, rv.N, rv.DELTA, float(gamma), 0.36)
    assert hopf.find_hopf_r(params).r_star == _K2_CROSSING == 1.1580091926934457


@pytest.mark.parametrize("k", [1.999999, 1.9999999, 1.99999999])
@pytest.mark.parametrize("command", ["hopf", "normal-form"])
def test_gamma_config_of_a_k_route_point_locates_it(tmp_path, capsys, monkeypatch,
                                                    command, k):
    # r* = 1.158 lies far below the climb's bracket end, with r_max up to 1.5e8;
    # the root search stops at the rounding level of D at r*, not at that of
    # the bracket end
    hp = hopf.hopf_from_pqk(rv.N, rv.BETA0, rv.DELTA, k)
    path = tmp_path / "gamma.cfg"
    path.write_text(f"beta0=1.77\nn=12\ndelta=0.05\ngamma={hp.params.gamma!r}\n")
    located, find_hopf_r = [], hopf.find_hopf_r
    monkeypatch.setattr(hopf, "find_hopf_r",
                        lambda *args: located.append(find_hopf_r(*args)) or located[-1])
    assert cli.main([command, str(path)]) == 0
    [point] = located
    assert abs(point.r_star - hp.r_star) <= 1e-14 * hp.r_star


def test_hopf_bracket_from_zero_reaches_past_the_first_crossing(gamma_config_path, capsys):
    # k = 2 at r = 0, and the end 0.4 lies past r* = 0.35592
    assert cli.main(["hopf", gamma_config_path, "--bracket", "0", "0.4"]) == 0
    out = capsys.readouterr().out
    assert out.count("r*     = 0.35592018752\n") == 1


def test_second_reference_crossing_is_reported(gamma_config_path, capsys):
    # x2 regains stability at r = 0.44421, just below r_max = 0.44932; the
    # frontier mismatch is +inf at the end 0.449, where q > 0
    assert cli.main(["hopf", gamma_config_path, "--bracket", "0.40", "0.449"]) == 0
    out = capsys.readouterr().out
    assert out.count("r*     = 0.444212289607\n") == 1
    assert cli.main(["normal-form", gamma_config_path, "--bracket", "0.40", "0.449"]) == 0
    out = capsys.readouterr().out
    assert "hopf point: r* = 0.444212289607 " in out
    assert "l1 = -388.28290256 " in out
    assert "mu' = -463.01246782 " in out
    assert "criticality: supercritical\n" in out


def test_normal_form_gamma_parameterized(tmp_path, capsys):
    path = tmp_path / "gamma.cfg"
    path.write_text("beta0=1.77\nn=12\ndelta=0.05\ngamma=1.48067\n")
    assert cli.main(["normal-form", str(path)]) == 0
    out = capsys.readouterr().out
    assert "criticality: supercritical" in out
