"""Exact stdout of the analytic commands on a k-config and a gamma-config.

These pin every printed digit of `equilibria`, `stability`, `hopf` and
`normal-form`, so a refactor of the linearization at x2 must leave the
reports byte-identical.
"""

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
x2: case I.A, stable  omega0=1.66168893216  window=(0.355920247592, 0.404183990063)
    g = 8.193923315413798e-07 > 0
""",
    ("stability", "gamma"): """\
x1: case X1, unstable
    positive equilibrium exists (A > 1)
x2: case I.A, unstable  omega0=1.35051084759  window=(0.430494186828, 0.391330655374)
    g = -0.09520316400371631 < 0
""",
    ("hopf", "k"): """\
strategy route:
  r*     = 0.355920877691
  omega* = 1.66168599041
  gamma* = 1.48066592401
  p* = -2.47412075833   q* = -2.98034794236   x2* = 1.15085968116
  characteristic residual = 2.220e-16
boundary-root route (bracket 0.320329..0.391513):
  r*     = 0.355920877691
  omega* = 1.66168599044
  g residual = 7.932e-12
route agreement |dr| = 4.038e-13
""",
    ("hopf", "gamma"): """\
boundary-root route:
  r*     = 0.35592018752
  omega* = 1.66168723061
  gamma* = 1.48067
  p* = -2.47412637577   q* = -2.98035329712   x2* = 1.15085936274
  characteristic residual = 4.193e-13
strategy route (at the located k):
  r*     = 0.35592018752
  omega* = 1.66168723061
  g residual = 7.719e-13
route agreement |dr| = 4.274e-14
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
w20(0)  = -0.227043372911 -0.374494572101i   closed form -0.227043372911 -0.374494572101i   |diff| = 1.912e-15
w20(-r) = -1.73278713826 -2.28326758144i   closed form -1.73278713826 -2.28326758144i   |diff| = 5.790e-15
w11(0)  = 0.063893237095 +0i   closed form 0.063893237095 +0i   |diff| = 8.743e-16
w11(-r) = 0.421073984561 +0i   closed form 0.421073984561 +0i   |diff| = 8.882e-16
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
psi1(0) = 0.328004264487 -1.6245992084i
f20 = -9.76183030647 -19.2822711412i
f11 = 3.18864144234 +0i
f02 = -9.76183030647 +19.2822711412i
f21 = 14.0851753778 -22.3108823449i
g20 = -34.5278844019 +9.53439462513i
g11 = 1.045887991 -5.1802643631i
g02 = 28.1240404625 +22.1837289517i
g21 = -31.6262442064 -30.2008293226i
w20(0)  = -0.227042628147 -0.374493904029i   closed form -0.227042628147 -0.374493904029i   |diff| = 1.095e-15
w20(-r) = -1.73278181593 -2.28326433471i   closed form -1.73278181593 -2.28326433471i   |diff| = 8.449e-15
w11(0)  = 0.063893003139 +0i   closed form 0.063893003139 +0i   |diff| = 0.000e+00
w11(-r) = 0.421072503664 +0i   closed form 0.421072503664 +0i   |diff| = 0.000e+00
c  = -0.483979988094 +0.48450492951i
c1 = 1.97539869539
l1 = -43.7107081809   s = -1
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
