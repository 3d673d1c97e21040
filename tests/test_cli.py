import csv
import math

import pytest

import refvals as rv
from hemohopf import cli, ddesim, model
from hemohopf.errors import ConfigError

REF_CONFIG = """\
# benchmark parameter set
beta0 = 1.77
n = 12
delta = 0.05
k = 1.180746972
r = 0.3559207407
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "params.cfg"
    path.write_text(REF_CONFIG)
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


def test_hopf_command_reports_both_routes(config_path, capsys):
    assert cli.main(["hopf", config_path]) == 0
    out = capsys.readouterr().out
    assert "strategy route:" in out
    assert "boundary-root route" in out
    assert "r*     = 0.355920877691" in out
    assert "route agreement" in out


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
    assert cli._merge(args).r_grid == (0.1, 0.3, cli.MAX_GRID_POINTS)


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
    assert "MAX_STEPS" in captured.err
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


@pytest.mark.parametrize("command, spaced, joined", [
    ("scaling", ["--delta-r", "-2e-3"], ["--delta-r=-2e-3"]),
    ("simulate", ["--r", "-1e-3"], ["--r=-1e-3"]),
    ("hopf", ["--bracket", "-1e-3", "0.5"], None),
    ("stability", ["--r-grid", "-1e-3", "0.5", "3"], None),
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


def test_simulate_deterministic_output(config_path, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    argv = ["simulate", config_path, "--r", "0.355", "--t-end", "20"]
    assert cli.main(argv + ["--output", str(a)]) == 0
    assert cli.main(argv + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert b"\r" not in a.read_bytes()  # LF endings only


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


# ------------------------------------------------------------ error handling


def test_missing_config_file_is_exit_2(capsys):
    assert cli.main(["equilibria", "/nonexistent/params.cfg"]) == 2


def test_invalid_config_is_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("beta0=1.77\n")
    assert cli.main(["equilibria", str(path)]) == 2
    assert "missing required keys" in capsys.readouterr().err


def test_bad_bracket_is_exit_2(config_path, capsys):
    code = cli.main(["hopf", config_path, "--bracket", "0.36", "0.40"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_hopf_failing_cross_check_prints_no_half_report(config_path, capsys):
    # k-parameterized: the strategy route succeeds, the boundary-root
    # cross-check finds nothing on this bracket
    code = cli.main(["hopf", config_path, "--bracket", "0.5", "0.6"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "g is not evaluable anywhere on the bracket (0.5, 0.6)" in captured.err


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
    assert "strategy route (at the located k):" in out
    assert "r*     = 0.35592018752" in out


def test_normal_form_gamma_parameterized(tmp_path, capsys):
    path = tmp_path / "gamma.cfg"
    path.write_text("beta0=1.77\nn=12\ndelta=0.05\ngamma=1.48067\n")
    assert cli.main(["normal-form", str(path)]) == 0
    out = capsys.readouterr().out
    assert "criticality: supercritical" in out
