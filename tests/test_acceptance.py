"""Acceptance suite: the project's numbered exit criteria.

Each test evaluates one criterion at its fixed tolerance and prints one
``[PASS]``/``[FAIL]`` line (plus per-check details).  The expected values
and tolerances are pinned here, not calibrated to the implementation.

Two checks are expected to fail and are kept faithful rather than
loosened; the measured values are printed next to the expectation:
criterion 7's linear-frequency period band and criterion 8's square-root
amplitude band are asymptotic statements evaluated outside their
validity radius for this strongly nonlinear production term.  The
measured values are the true solution's: an independent DOP853
method-of-steps integration (rtol 1e-12) reproduces the period 4.69251
and the amplitudes 0.058618 and 0.273714 to at least 6 significant
digits.

Criteria 1 and 2 check two digit chains at the same tolerances: the
exact chain at the stated ``K`` (``*_REF``), and the quoted digits
(``*_PRINT``) at ``K_PRINT``, the k they belong to.

See ``refvals.py`` for the quoted digits, the exact chain, and the
cross-validated simulation ground truth.
"""

import cmath
import math

import numpy as np

import refvals as rv
from hemohopf import ddesim, hopf, linstab, model
from test_model import draw_valid_params


def _report(number: int, label: str, checks) -> None:
    ok = all(good for _, good, _ in checks)
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {label}")
    for desc, good, detail in checks:
        print(f"    {'ok  ' if good else 'FAIL'} {desc}: {detail}")
    failed = [f"{desc} ({detail})" for desc, good, detail in checks if not good]
    assert not failed, f"criterion {number}: " + "; ".join(failed)


def _near(name: str, computed: float, expected: float, tol: float, k: float):
    """One check that `computed` lies within `tol` of `expected`, at k."""
    diff = abs(computed - expected)
    return (
        f"{name} = {expected:.10g} within {tol:.0e} at k = {k!r}",
        diff <= tol,
        f"computed {computed!r}, |diff| = {diff:.3e}",
    )


def test_criterion_1_equilibrium():
    checks = []
    for k, x2_ref, b1_ref in (
        (rv.K, rv.X2_REF, rv.B1_REF),
        (rv.K_PRINT, rv.X2_PRINT, rv.B1_PRINT),
    ):
        params = model.ModelParameters.from_k(rv.BETA0, rv.N, rv.DELTA, k, 0.35)
        report = model.equilibria(params)
        checks += [
            _near("x2", report.x2, x2_ref, 1e-8, k),
            _near("B1", report.B1_at_x2, b1_ref, 1e-8, k),
        ]
    _report(1, "equilibrium values", checks)


def test_criterion_2_hopf_strategy_route(ref_hopf):
    quoted_hopf = hopf.hopf_from_pqk(rv.N, rv.BETA0, rv.DELTA, rv.K_PRINT)
    checks = []
    for hp, omega_ref, r_ref, gamma_ref in (
        (ref_hopf, rv.OMEGA_REF, rv.R_REF, rv.GAMMA_REF),
        (quoted_hopf, rv.OMEGA_PRINT, rv.R_PRINT, rv.GAMMA_PRINT),
    ):
        k = hp.params.k
        checks += [
            _near("omega*", hp.omega_star, omega_ref, 1e-8, k),
            _near("r*", hp.r_star, r_ref, 1e-9, k),
            _near("gamma*", hp.params.gamma, gamma_ref, 1e-4, k),
        ]
    _report(2, "Hopf location, strategy route", checks)


def test_criterion_3_hopf_g_root_route(ref_hopf):
    params = model.ModelParameters.from_gamma(
        rv.BETA0, rv.N, rv.DELTA, rv.GAMMA_PRINT, 0.35
    )
    located = hopf.find_hopf_r(params, (0.30, 0.40))
    g_res = abs(linstab.g_of_r(located.r_star, params))
    diff = abs(located.r_star - ref_hopf.r_star)
    checks = [
        (
            "matches strategy-route r* within 1e-6",
            diff <= 1e-6,
            f"g-root {located.r_star!r}, |diff| = {diff:.3e}",
        ),
        ("g residual below 1e-11", g_res < 1e-11, f"|g| = {g_res:.3e}"),
    ]
    _report(3, "Hopf location, boundary-root route", checks)


def test_criterion_4_transversality(ref_hopf, ref_params):
    mu_p, om_p = hopf.transversality(ref_hopf)
    h = 1e-5
    lams = []
    for r in (ref_hopf.r_star - h, ref_hopf.r_star + h):
        triple = linstab.characteristic_triple(ref_params.with_r(r))
        lams.append(
            linstab.char_root_newton(1j * ref_hopf.omega_star, triple, tol=1e-13)
        )
    mu_fd = (lams[1].real - lams[0].real) / (2.0 * h)
    checks = [
        (
            "mu' = 25.66 within 0.5%",
            abs(mu_p - rv.MU_PRIME_PRINT) <= 0.005 * rv.MU_PRIME_PRINT,
            f"analytic {mu_p!r}",
        ),
        (
            "analytic matches root tracking within 1e-3 relative",
            abs(mu_fd - mu_p) <= 1e-3 * abs(mu_p),
            f"finite difference {mu_fd!r}, rel diff = "
            f"{abs(mu_fd - mu_p) / abs(mu_p):.3e}",
        ),
    ]
    _report(4, "transversality", checks)


def test_criterion_5_first_lyapunov_coefficient(ref_hopf):
    nf = hopf.criticality_report(ref_hopf)
    rel = abs(nf.l1 - rv.L1_PRINT) / abs(rv.L1_PRINT)
    checks = [
        (
            "l1 = -43.71063 within 1e-3 relative",
            rel <= 1e-3,
            f"computed {nf.l1!r}, rel diff = {rel:.3e}",
        ),
        (
            "criticality reported supercritical",
            nf.criticality == hopf.SUPERCRITICAL,
            f"reported {nf.criticality}",
        ),
    ]
    _report(5, "first Lyapunov coefficient", checks)


def test_criterion_6_boundary_function_slope(ref_hopf, ref_params):
    h = 1e-6
    slope = (
        linstab.g_of_r(ref_hopf.r_star + h, ref_params)
        - linstab.g_of_r(ref_hopf.r_star - h, ref_params)
    ) / (2.0 * h)
    ok = abs(slope - rv.DG_DR_PRINT) <= 0.005 * abs(rv.DG_DR_PRINT)
    _report(
        6,
        "boundary-function slope",
        [("dg/dr(r*) = -20.236 within 0.5%", ok, f"computed {slope!r}")],
    )


def test_criterion_7_simulation_vs_theory(ref_params, traj_035, traj_036):
    m35 = ddesim.orbit_metrics(traj_035, 0.5)
    m36 = ddesim.orbit_metrics(traj_036, 0.5)
    triple = linstab.characteristic_triple(ref_params.with_r(0.36))
    root = linstab.char_root_newton(1j * rv.OMEGA_REF, triple)
    period_lin = 2.0 * math.pi / root.imag
    period_ok = (
        m36.period is not None
        and abs(m36.period - period_lin) <= 0.05 * period_lin
    )
    checks = [
        (
            "r = 0.35 classifies as equilibrium with decaying envelope",
            m35.kind == ddesim.KIND_EQUILIBRIUM and m35.distance_to_x2 < 1e-6,
            f"kind {m35.kind}, distance {m35.distance_to_x2:.3e}",
        ),
        (
            "r = 0.36 classifies as cycle",
            m36.kind == ddesim.KIND_CYCLE,
            f"kind {m36.kind}, amplitude {m36.amplitude:.4f}",
        ),
        (
            "cycle period within 5% of 2 pi / omega(0.36)",
            period_ok,
            f"measured {m36.period!r}, linear prediction {period_lin!r}, "
            f"rel diff = {abs(m36.period - period_lin) / period_lin:.3f}",
        ),
    ]
    _report(7, "simulation against linear theory", checks)


def test_criterion_8_amplitude_scaling(scaling_amplitudes):
    ratio = scaling_amplitudes[8e-3] / scaling_amplitudes[2e-3]
    ok = 1.6 <= ratio <= 2.4
    _report(
        8,
        "amplitude scaling across the crossing",
        [
            (
                "amplitude(r*+8e-3)/amplitude(r*+2e-3) in [1.6, 2.4]",
                ok,
                f"amplitudes {scaling_amplitudes[2e-3]:.6f} / "
                f"{scaling_amplitudes[8e-3]:.6f}, ratio {ratio:.4f}",
            )
        ],
    )


def test_criterion_9_property_suites(ref_hopf, ref_params):
    checks = []

    # stationarity residual on 100 random valid parameter sets
    rng = np.random.default_rng(90210)
    worst = 0.0
    for _ in range(100):
        p = draw_valid_params(rng)
        x2 = model.equilibria(p).x2
        b = p.beta0 / (1.0 + x2**p.n)
        worst = max(worst, abs(-(b + p.delta) * x2 + p.k * b * x2))
    checks.append(
        ("stationarity residual < 1e-12 on 100 draws", worst < 1e-12,
         f"worst {worst:.3e}")
    )

    # T roundtrip
    worst = max(
        abs(linstab.T_inv(linstab.T_eval(float(y))) - float(y))
        for y in np.arange(0.0, 3.1001, 0.1)
    )
    checks.append(("T_inv(T(y)) roundtrip < 1e-10", worst < 1e-10, f"worst {worst:.3e}"))

    # pairing normalization at the located Hopf point
    w = ref_hopf.omega_star
    weight = hopf.psi1_zero(ref_hopf)
    adjoint = lambda z: weight * cmath.exp(-1j * w * z)
    norm1 = hopf.bilinear_pairing(adjoint, lambda s: cmath.exp(1j * w * s), ref_hopf)
    norm0 = hopf.bilinear_pairing(adjoint, lambda s: cmath.exp(-1j * w * s), ref_hopf)
    pairing_err = max(abs(norm1 - 1.0), abs(norm0))
    checks.append(
        ("pairing normalization within 1e-8", pairing_err < 1e-8,
         f"worst {pairing_err:.3e}")
    )

    # manifold coefficient relations and closed-form agreement
    nf = hopf.criticality_report(ref_hopf)
    e = cmath.exp(1j * w * ref_hopf.r_star)
    p_, q_ = ref_hopf.p_star, ref_hopf.q_star
    residuals = [
        abs(
            nf.w20_at_0
            - nf.w20_at_minus_r * e * e
            - (
                (1j * nf.g20 / w) * (1.0 - e)
                + (1j * nf.g02.conjugate() / (3.0 * w)) * (1.0 - e**3)
            )
        ),
        abs(
            2j * w * nf.w20_at_0
            + nf.g20
            + nf.g02.conjugate()
            - (-p_ * nf.w20_at_0 + q_ * nf.w20_at_minus_r + nf.f20)
        ),
        abs(
            nf.w11_at_0
            - nf.w11_at_minus_r
            - (
                -(1j / w) * nf.g11 * (1.0 - 1.0 / e)
                + (1j / w) * nf.g11.conjugate() * (1.0 - e)
            )
        ),
        abs(
            nf.g11
            + nf.g11.conjugate()
            - (-p_ * nf.w11_at_0 + q_ * nf.w11_at_minus_r + nf.f11)
        ),
    ]
    checks.append(
        ("w20/w11 defining residuals < 1e-10", max(residuals) < 1e-10,
         f"worst {max(residuals):.3e}")
    )
    cf20 = hopf.w20_closed_form(nf.g20, nf.g02, nf.f20, ref_hopf)
    cf11 = hopf.w11_closed_form(nf.g11, nf.f11, ref_hopf)
    agreement = max(
        abs(nf.w20_at_0 - cf20[0]) / max(1.0, abs(cf20[0])),
        abs(nf.w20_at_minus_r - cf20[1]) / max(1.0, abs(cf20[1])),
        abs(nf.w11_at_0 - cf11[0]) / max(1.0, abs(cf11[0])),
        abs(nf.w11_at_minus_r - cf11[1]) / max(1.0, abs(cf11[1])),
    )
    checks.append(
        ("closed forms agree within 1e-9 relative", agreement < 1e-9,
         f"worst {agreement:.3e}")
    )

    # classifier versus the exact rightmost root on 1000 non-boundary draws
    rng = np.random.default_rng(7121)
    agree = True
    detail = "1000 draws agree"
    count = 0
    while count < 1000:
        p = draw_valid_params(rng)
        t = linstab.characteristic_triple(p)
        b1 = t.q / p.k
        margins = [
            abs(b1),
            abs(t.p),
            abs(abs(t.p) - abs(t.q)),
            abs(t.r * abs(t.p) - 1.0),
        ]
        if b1 < 0 and t.p < 0 and t.r * abs(t.p) < 1.0 and abs(t.p) < abs(t.q):
            margins.append(abs(linstab.omega0(t) * t.r - math.acos(t.p / t.q)))
        if b1 < 0 and 0 < t.p <= abs(t.q):
            margins.append(
                abs(linstab.omega0(t) * t.r - math.acos(max(t.p / t.q, -1.0)))
            )
        if min(margins) < 1e-6:
            continue
        verdict = linstab.classify_x2(p)
        root = linstab.rightmost_root(t)
        if (root.real < 0) != (verdict.status == linstab.STABLE):
            agree = False
            detail = f"disagreement at {p}"
            break
        count += 1
    checks.append(
        ("classifier agrees with the exact rightmost root on 1000 draws", agree, detail)
    )

    # integrator step-halving contraction
    params = ref_params.with_r(0.36)
    hist = ddesim.default_history(0.36)

    def max_diff(n):
        coarse = ddesim.integrate(params, hist, 20.0, n)
        fine = ddesim.integrate(params, hist, 20.0, 2 * n)
        m = min(len(coarse.x), (len(fine.x) + 1) // 2)
        coarse_x, fine_x = np.asarray(coarse.x), np.asarray(fine.x)
        return float(np.max(np.abs(coarse_x[:m] - fine_x[::2][:m])))

    factor = max_diff(100) / max_diff(200)
    checks.append(
        ("step-halving contraction factor >= 8", factor >= 8.0,
         f"factor {factor:.2f}")
    )

    _report(9, "property suites", checks)
