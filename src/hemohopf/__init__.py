"""Stability and Hopf bifurcation analysis of a delayed blood-cell
production model: equilibria, transcendental characteristic equation,
center-manifold normal form with first Lyapunov coefficient, and direct
method-of-steps simulation."""

from .model import (
    ModelParameters,
    EquilibriumReport,
    TaylorCoefficients,
    derive_k,
    gamma_from_k,
    equilibria,
    taylor_coefficients,
)
from .linstab import (
    CharacteristicTriple,
    StabilityVerdict,
    characteristic_triple,
    char_value,
    T_eval,
    T_inv,
    omega0,
    classify_x1,
    classify_x2,
    g_of_r,
    char_root_newton,
    rightmost_root,
)
from .hopf import (
    HopfPoint,
    NormalFormData,
    hopf_from_pqk,
    frontier_mismatch,
    find_hopf_r,
    transversality,
    psi1_zero,
    projection_weight,
    f_coefficients,
    f21_coefficient,
    w_boundary_values,
    w20_closed_form,
    w11_closed_form,
    lyapunov_l1,
    criticality_report,
)
from .ddesim import (
    Trajectory,
    OrbitMetrics,
    default_history,
    constant_history,
    step_count,
    integrate,
    orbit_metrics,
    amplitude_scaling,
    write_trajectory_csv,
)

__version__ = "0.1.0"
