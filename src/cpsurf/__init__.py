"""Dispersive atom-surface potentials above planar and weakly corrugated
surfaces.

The package computes the flat-surface potential U0 and force F0, the
first-order corrugation response g(k, z_A) with its roll-off
rho = g(k)/g(0), the mirror-law correction eta_F, closed-form limits in
the retarded and non-retarded regimes, and a cold-cloud detectability
estimate. ``python -m cpsurf.cli --help`` lists the command-line front
end.
"""

from .atomics import (
    MultilevelPolarizability,
    SingleOscillatorPolarizability,
    StaticPolarizability,
    TabulatedPolarizability,
    Transition,
    polarizability,
    rubidium_single_oscillator,
)
from .closedforms import (
    bessel_k0_k1,
    f_cp0,
    g_cp_perf,
    g_vdw_drude_lorentz,
    g_vdw_perfect,
    g_vdw_plasma,
    g_vdw_plasmon,
    rho_cp_perf,
    u_cp0,
)
from .optics import (
    DrudeLorentz,
    PerfectConductor,
    PlasmaMetal,
    TabulatedPermittivity,
    fresnel,
    gold_plasma,
    kramers_kronig_imaginary_axis,
    silicon_drude_lorentz,
)
from .profile import (
    BecProbeConfig,
    DetectabilityReport,
    Sinusoid,
    Spectrum,
    bec_density_to_potential,
    bec_potential_to_density,
    bec_sensitivity,
    detectability_report,
    first_order_potential,
    lateral_force,
    pfa_first_order,
    rb87_bec_probe,
)
from .quadrature import (
    IntegralResult,
    QuadratureSettings,
    eta_f,
    g_evaluator,
    plane_force,
    plane_potential,
    plane_potential_and_force,
    response_g,
    rho,
)

__version__ = "0.1.0"

__all__ = [
    "BecProbeConfig",
    "DetectabilityReport",
    "DrudeLorentz",
    "IntegralResult",
    "MultilevelPolarizability",
    "PerfectConductor",
    "PlasmaMetal",
    "QuadratureSettings",
    "SingleOscillatorPolarizability",
    "Sinusoid",
    "Spectrum",
    "StaticPolarizability",
    "TabulatedPermittivity",
    "TabulatedPolarizability",
    "Transition",
    "bec_density_to_potential",
    "bec_potential_to_density",
    "bec_sensitivity",
    "bessel_k0_k1",
    "detectability_report",
    "eta_f",
    "f_cp0",
    "first_order_potential",
    "fresnel",
    "g_cp_perf",
    "g_evaluator",
    "g_vdw_drude_lorentz",
    "g_vdw_perfect",
    "g_vdw_plasma",
    "g_vdw_plasmon",
    "gold_plasma",
    "kramers_kronig_imaginary_axis",
    "lateral_force",
    "pfa_first_order",
    "plane_force",
    "plane_potential",
    "plane_potential_and_force",
    "polarizability",
    "rb87_bec_probe",
    "response_g",
    "rho",
    "rho_cp_perf",
    "rubidium_single_oscillator",
    "silicon_drude_lorentz",
    "u_cp0",
]
