"""Exact stdout of every command on a k-config and a gamma-config.

These pin every printed digit of `equilibria`, `stability`, `hopf` and
`normal-form`, and the bytes of one `stability --r-grid` CSV, so a
refactor of the linearization at x2 must leave the reports byte-identical.
The simulation commands `simulate`, `sweep` and `scaling` are pinned the
same way, with the SHA-256 of the trajectory CSV.  The example outputs in
README.md are checked against the same goldens.
"""

import hashlib
import pathlib
import re

import pytest

from hemohopf import cli

K_CONFIG = """\
# benchmark parameter set
beta0 = 1.77
n = 12
delta = 0.05
k = 1.180746972
r = 0.3559207407
"""

GAMMA_CONFIG = "beta0=1.77\nn=12\ndelta=0.05\ngamma=1.48067\nr=0.36\n"

GOLDEN = {
    ("equilibria", "k"): """\
parameters: beta0=1.77 n=12 delta=0.05 gamma=1.48066649391 r=0.3559207407 k=1.180746972
A      = 6.3984428088
x1     = 0   B1(x1) = 1.77
x2     = 1.15085968116   B1(x2) = -2.52412075833
stationarity residual = 3.469e-17
r_max  = 0.449318079929   r_n = 0.447633440659
""",
    ("equilibria", "gamma"): """\
parameters: beta0=1.77 n=12 delta=0.05 gamma=1.48067 r=0.36 k=1.17363524692
A      = 6.14668774103
x1     = 0   B1(x1) = 1.77
x2     = 1.14628863077   B1(x2) = -2.60538375608
stationarity residual = 6.939e-18
r_max  = 0.449317015984   r_n = 0.447632380703
""",
    ("stability", "k"): """\
x1: case X1, unstable
    positive equilibrium exists (A > 1)
x2: case I.A, stable  omega0=1.66168599041  window=(0, 0.355920877691)
    r < r0 = 0.3559208776910636
""",
    ("stability", "gamma"): """\
x1: case X1, unstable
    positive equilibrium exists (A > 1)
x2: case I.A, unstable  omega0=1.67927737537  window=(0, 0.34621264936)
    r > r0 = 0.34621264935961404
""",
    ("hopf", "k"): """\
strategy route:
  r*     = 0.355920877691
  omega* = 1.66168599041
  gamma* = 1.48066592401
  p* = -2.47412075833   q* = -2.98034794236   x2* = 1.15085968116
  characteristic residual = 2.220e-16
independent checks at r*:
  g residual = 3.331e-16
  Lambert W0 root lam0 = 8.881784197e-16 +1.66168599041i
  |lam0 - i omega*| / omega* = 6.681e-16
""",
    ("hopf", "gamma"): """\
boundary-root route:
  r*     = 0.35592018752
  omega* = 1.66168723061
  gamma* = 1.48067
  p* = -2.47412637577   q* = -2.98035329712   x2* = 1.15085936274
  characteristic residual = 6.280e-16
independent checks at r*:
  g residual = 9.992e-16
  Lambert W0 root lam0 = 0 +1.66168723061i
  |lam0 - i omega*| / omega* = 0.000e+00
""",
    ("normal-form", "k"): """\
hopf point: r* = 0.355920877691  omega* = 1.66168599041  gamma* = 1.48066592401
psi1(0) = 0.328004251415 -1.62459711144i
f20 = -9.76184330088 -19.2822691318i
f11 = 3.18864683656 +0i
f02 = -9.76184330088 +19.2822691318i
f21 = 14.0852129378 -22.3106886264i
g20 = -34.5278448378 +9.53439617681i
g11 = 1.04588971865 -5.18026644008i
g02 = 28.1239926291 +22.1837286811i
g21 = -31.6258705711 -30.2007969743i
w20(0)  = -0.227043372911 -0.374494572101i   closed form -0.227043372911 -0.374494572101i   |diff| = 7.466e-15
w20(-r) = -1.73278713826 -2.28326758144i   closed form -1.73278713826 -2.28326758144i   |diff| = 2.220e-15
w11(0)  = 0.063893237095 +0i   closed form 0.063893237095 +0i   |diff| = 4.441e-16
w11(-r) = 0.421073984561 +0i   closed form 0.421073984561 +0i   |diff| = 4.441e-16
c  = -0.483979331644 +0.48450517448i
c1 = 1.97539767035
l1 = -43.7106330483   s = -1
mu' = 25.6600286822   omega' = -6.33168208229
polar radial coefficient near the crossing: 15.442164663 * (r - r*)
criticality: supercritical
  stable periodic solution for r > r*
""",
    ("normal-form", "gamma"): """\
hopf point: r* = 0.35592018752  omega* = 1.66168723061  gamma* = 1.48067
psi1(0) = 0.328004264486 -1.6245992084i
f20 = -9.76183030646 -19.2822711412i
f11 = 3.18864144234 +0i
f02 = -9.76183030646 +19.2822711412i
f21 = 14.0851753778 -22.3108823449i
g20 = -34.5278844019 +9.53439462512i
g11 = 1.045887991 -5.1802643631i
g02 = 28.1240404625 +22.1837289517i
g21 = -31.6262442064 -30.2008293225i
w20(0)  = -0.227042628148 -0.37449390403i   closed form -0.227042628148 -0.37449390403i   |diff| = 4.727e-15
w20(-r) = -1.73278181593 -2.28326433471i   closed form -1.73278181593 -2.28326433471i   |diff| = 7.095e-15
w11(0)  = 0.0638930031385 +0i   closed form 0.0638930031385 +0i   |diff| = 1.388e-17
w11(-r) = 0.421072503663 +0i   closed form 0.421072503663 +0i   |diff| = 0.000e+00
c  = -0.483979988094 +0.484504929511i
c1 = 1.97539869539
l1 = -43.710708181   s = -1
mu' = 25.6601767772   omega' = -6.33171324001
polar radial coefficient near the crossing: 15.4422422611 * (r - r*)
criticality: supercritical
  stable periodic solution for r > r*
""",
}


@pytest.mark.parametrize("command, config", sorted(GOLDEN))
def test_analytic_command_stdout_is_pinned(tmp_path, capsys, command, config):
    path = tmp_path / "params.cfg"
    path.write_text(K_CONFIG if config == "k" else GAMMA_CONFIG)
    assert cli.main([command, str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.out == GOLDEN[command, config]
    assert captured.err == ""


# the gamma config's x2 is stable below r* = 0.35592, unstable up to the
# second crossing 0.44421, stable again, and in case II from r_n = 0.44763
GAMMA_GRID = ("0.355", "0.449", "21")
GAMMA_GRID_CSV = """\
r,case,status,g_of_r,re_rightmost
0.35499999999999998,I.A,stable,0.018110179701760654,-0.023598259352019646
0.35969999999999996,I.A,unstable,-0.087162734257227648,0.097250891818283058
0.3644,I.A,unstable,-0.24709474058165637,0.21902944630528642
0.36909999999999998,I.A,unstable,nan,0.3419625589791333
0.37379999999999997,I.A,unstable,nan,0.46625666826162959
0.3785,I.A,unstable,nan,0.59208451695873698
0.38319999999999999,I.A,unstable,nan,0.71956102678599887
0.38789999999999997,I.A,unstable,nan,0.84870444532300926
0.3926,I.A,unstable,nan,0.97937336653297535
0.39729999999999999,I.A,unstable,nan,1.1111634103917369
0.40200000000000002,I.A,unstable,nan,1.2432347944406343
0.40670000000000001,I.A,unstable,nan,1.793683975024468
0.41139999999999999,I.A,unstable,nan,2.3037439784879243
0.41610000000000003,I.A,unstable,nan,2.6768891186321762
0.42080000000000001,I.A,unstable,nan,2.9698868174554005
0.42549999999999999,I.A,unstable,nan,3.1677603370544829
0.43020000000000003,I.A,unstable,nan,3.212000795430157
0.43490000000000001,I.A,unstable,nan,2.9643224701555444
0.43959999999999999,I.A,unstable,nan,2.0495822812025235
0.44430000000000003,I.A,stable,0.069756757338913344,-0.041198719545595619
0.44900000000000001,II,stable,nan,-0.0061375387597160103
"""


def test_stability_grid_csv_is_pinned(tmp_path, capsys):
    path = tmp_path / "params.cfg"
    path.write_text(GAMMA_CONFIG)
    csv_path = tmp_path / "grid.csv"
    assert cli.main(["stability", str(path), "--r-grid", *GAMMA_GRID, "-o", str(csv_path)]) == 0
    assert csv_path.read_bytes() == GAMMA_GRID_CSV.encode()
    assert capsys.readouterr().err == ""


# stdout ("OUT" stands for the -o path) and, where a CSV is written, the
# SHA-256 of its bytes or the bytes themselves
SIMULATION_ARGV = {
    "simulate": ["--r", "0.36", "--stride", "100", "-o", "OUT"],
    "sweep": ["--r-grid", "0.35", "0.36", "2", "-o", "OUT"],
    "scaling": [],
}
SIMULATION_GOLDEN = {
    ("simulate", "k"): ("""\
wrote 278 rows to OUT
kind = cycle   amplitude = 0.0993124716156   period = 4.69254811814   distance to x2 = 9.619e-02
""", "67bb4ff589f951259df9fae04af42767d9e2961c2cc901779c096e8702196c90"),
    ("simulate", "gamma"): ("""\
wrote 278 rows to OUT
kind = cycle   amplitude = 0.0993268198893   period = 4.69278260716   distance to x2 = 9.489e-02
""", "92bfcbc8a009d445c84a3cfe114f2458cb0d3bbd402e3679740a8bc24da3d952"),
    ("sweep", "k"): ("wrote 2 rows to OUT\n", """\
r,kind,amplitude,period
0.34999999999999998,equilibrium,1.4724644836761058e-09,nan
0.35999999999999999,cycle,0.099312471615603526,4.6925481181443498
"""),
    ("sweep", "gamma"): ("wrote 2 rows to OUT\n", """\
r,kind,amplitude,period
0.34999999999999998,equilibrium,1.3413483657132019e-09,nan
0.35999999999999999,cycle,0.099326819889327345,4.6927826071598187
"""),
    ("scaling", "k"): ("""\
amplitude(0.363920877691) / amplitude(0.357920877691) = 4.66941998363
square-root growth predicts 2 inside the asymptotic regime
""", None),
    ("scaling", "gamma"): ("""\
amplitude(0.36392018752) / amplitude(0.35792018752) = 4.66939803458
square-root growth predicts 2 inside the asymptotic regime
""", None),
}


@pytest.mark.parametrize("command, config", sorted(SIMULATION_GOLDEN))
def test_simulation_command_output_is_pinned(tmp_path, capsys, command, config):
    path = tmp_path / "params.cfg"
    path.write_text(K_CONFIG if config == "k" else GAMMA_CONFIG)
    csv_path = tmp_path / "out.csv"
    argv = [str(csv_path) if arg == "OUT" else arg for arg in SIMULATION_ARGV[command]]
    assert cli.main([command, str(path), *argv]) == 0
    captured = capsys.readouterr()
    stdout, csv = SIMULATION_GOLDEN[command, config]
    assert captured.out == stdout.replace("OUT", str(csv_path))
    assert captured.err == ""
    if command == "simulate":
        assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == csv
    elif command == "sweep":
        assert csv_path.read_bytes() == csv.encode()
    else:
        assert not csv_path.exists()


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
#: the golden of each example output in README.md, and the start of that block
README_EXAMPLES = {
    ("stability", "gamma"): "x1: ",
    ("normal-form", "k"): "hopf point: ",
    ("hopf", "k"): "strategy route:",
}


@pytest.mark.parametrize("command, config", sorted(README_EXAMPLES))
def test_readme_example_output_is_an_excerpt_of_its_golden(command, config):
    # every line of the block, in order, is a line of the golden; "..." elides
    blocks = re.findall(r"^```\n(.*?)^```$", README.read_text(), re.M | re.S)
    [block] = [b for b in blocks if b.startswith(README_EXAMPLES[command, config])]
    golden = iter(GOLDEN[command, config].splitlines())
    for line in block.splitlines():
        assert line == "..." or line in golden, line
