"""Surface profiles, the first-order corrugation potential, and the
cold-cloud probe estimator.

A weakly corrugated surface z = h(x, y) shifts the flat-surface potential
at first order in h by a sum over the profile's Fourier modes, each mode
weighted by the response g(|k|, z_A). Every function here takes that
response as ``g_of_k``, a function of |k| at the atom's distance
(``quadrature.g_evaluator``, or a closed form), and runs no integral of
its own; the proximity-force estimate reads g(0). Profiles are either a
single sinusoid (amplitude, wavenumber, phase, direction) or an explicit
finite mode sum with complex amplitudes in meters; real profiles satisfy
H(-k) = H(k)*.

The probe estimator converts a trapped quasi-1D atomic cloud's density to
the potential it samples, V_total(n_1d) = -hbar w_tr sqrt(1 + 4 a n_1d),
and classifies whether a corrugation signal clears the density-imaging
noise floor. (At large density the relation approaches the quadratic law
n_1d ~ V_total^2; the exact square root is always used here.)
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .constants import HBAR, RB87_MASS, RB87_SCATTERING_LENGTH, TWO_PI
from .quadrature import IntegralResult

__all__ = [
    "Sinusoid",
    "Spectrum",
    "BecProbeConfig",
    "DetectabilityReport",
    "first_order_potential",
    "lateral_force",
    "pfa_first_order",
    "bec_coupling",
    "bec_density_to_potential",
    "bec_potential_to_density",
    "bec_sensitivity",
    "detectability_report",
    "rb87_bec_probe",
]

# First-order perturbation theory in the profile is trusted only while the
# profile is shallow against both its own period and the atom distance.
_VALIDITY_LIMIT = 0.3


@dataclass(frozen=True)
class Sinusoid:
    """Profile h(r) = h0 cos(k_c (r . direction) + phase).

    ``direction`` is normalized on construction; h0 in m, k_c in 1/m.
    """

    h0: float
    k_c: float
    phase: float = 0.0
    direction: tuple[float, float] = (1.0, 0.0)

    def __post_init__(self):
        if not 0.0 <= self.h0 < math.inf:
            raise ValueError("h0 must be finite and non-negative")
        if not 0.0 <= self.k_c < math.inf:
            raise ValueError("k_c must be finite and non-negative")
        if not math.isfinite(self.phase):
            raise ValueError("phase must be finite")
        d = np.asarray(self.direction, dtype=float)
        if d.shape != (2,) or not np.all(np.isfinite(d)):
            raise ValueError("direction must be a finite 2-vector")
        norm = float(np.hypot(d[0], d[1]))
        if norm == 0.0:
            raise ValueError("direction must be non-zero")
        object.__setattr__(self, "direction", (float(d[0] / norm), float(d[1] / norm)))

    def height(self, r_atom) -> float:
        x_par = float(np.dot(np.asarray(r_atom, dtype=float), self.direction))
        return self.h0 * math.cos(self.k_c * x_par + self.phase)

    @property
    def amplitude(self) -> float:
        return self.h0

    @property
    def steepness(self) -> float:
        return self.h0 * self.k_c


@dataclass(frozen=True)
class Spectrum:
    """Finite Fourier mode sum h(r) = sum_j H_j e^{i k_j . r}.

    ``modes`` is a sequence of (k: 2-vector 1/m, H: complex m). A real
    profile needs Hermitian pairs, H(-k) = H(k)*; a zero-k mode must then
    be real (a constant offset, which first-order theory ignores here
    only if you put it in deliberately).
    """

    modes: tuple[tuple[tuple[float, float], complex], ...]

    def __init__(self, modes: Sequence):
        packed = []
        for k_vec, amp in modes:
            k_arr = np.asarray(k_vec, dtype=float)
            if k_arr.shape != (2,) or not np.all(np.isfinite(k_arr)):
                raise ValueError("each mode wavevector must be a finite 2-vector")
            amp = complex(amp)
            if not cmath.isfinite(amp):
                raise ValueError("mode amplitudes must be finite")
            packed.append(((float(k_arr[0]), float(k_arr[1])), amp))
        if not packed:
            raise ValueError("spectrum needs at least one mode")
        object.__setattr__(self, "modes", tuple(packed))

    def height(self, r_atom) -> float:
        r = np.asarray(r_atom, dtype=float)
        total = 0.0 + 0.0j
        for (kx, ky), amp in self.modes:
            total += amp * cmath.exp(1j * (kx * r[0] + ky * r[1]))
        return float(total.real)

    @property
    def amplitude(self) -> float:
        # Upper bound on |h|; pessimistic for the validity advisory.
        return float(sum(abs(amp) for _, amp in self.modes))

    @property
    def steepness(self) -> float:
        return float(
            sum(abs(amp) * math.hypot(*k_vec) for k_vec, amp in self.modes)
        )


def _warn_if_steep(profile, z_atom: float) -> None:
    if profile.steepness > _VALIDITY_LIMIT or profile.amplitude > _VALIDITY_LIMIT * z_atom:
        warnings.warn(
            "profile outside the first-order validity range "
            f"(h k_c = {profile.steepness:.3g}, h / z_A = "
            f"{profile.amplitude / z_atom:.3g}; both should stay below "
            f"{_VALIDITY_LIMIT:g})",
            UserWarning,
            stacklevel=3,
        )


def _assemble(profile, r_atom, z_atom, g_of_k) -> tuple[complex, float]:
    """Mode sum of the first-order potential; (complex value, abs error)."""
    r = np.asarray(r_atom, dtype=float)
    if isinstance(profile, Sinusoid):
        g = g_of_k(profile.k_c)
        x_par = float(np.dot(r, profile.direction))
        phase = math.cos(profile.k_c * x_par + profile.phase)
        return profile.h0 * g.value * phase + 0.0j, profile.h0 * g.error * abs(phase)
    total = 0.0 + 0.0j
    err = 0.0
    for (kx, ky), amp in profile.modes:
        g = g_of_k(math.hypot(kx, ky))
        factor = amp * cmath.exp(1j * (kx * r[0] + ky * r[1]))
        total += factor * g.value
        err += abs(factor) * g.error
    return total, err


def first_order_potential(
    profile, r_atom, z_atom: float, *, g_of_k: Callable[[float], IntegralResult]
) -> IntegralResult:
    """First-order corrugation potential U1(r_A, z_A) in J.

    Each profile mode contributes H e^{i k . r_A} g(|k|, z_A); a sinusoid
    gives h0 g(k_c, z_A) cos(k_c x_par + phase). Linear in every
    amplitude. ``g_of_k`` is g(|k|) at z_A, e.g. ``g_evaluator(atom,
    surface, z_A, settings)``; reuse one evaluator across calls at the
    same z_A to integrate each |k| once. Raises on a spectrum
    whose sum is not real (non-Hermitian input); warns, without failing,
    when the profile is too steep for first-order theory.
    """
    if not z_atom > profile.amplitude:
        raise ValueError("atom must sit above the highest surface point")
    _warn_if_steep(profile, z_atom)
    total, err = _assemble(profile, r_atom, z_atom, g_of_k)
    scale = max(abs(total), err)
    if scale > 0.0 and abs(total.imag) > 1e-9 * scale:
        raise ValueError(
            "spectrum is not Hermitian: first-order potential came out "
            f"complex (imag/|U| = {abs(total.imag) / scale:.2e})"
        )
    return IntegralResult(total.real, err)


def lateral_force(
    profile, r_atom, z_atom: float, *, g_of_k: Callable[[float], IntegralResult]
):
    """Lateral force -dU1/dx_par in N, from g_of_k = g(|k|) at z_A.

    For a sinusoid this is the analytic derivative along the corrugation
    direction, +h0 k_c g sin(k_c x_par + phase), returned as a scalar
    result; it vanishes at crests and troughs. For a spectrum the full
    in-plane force 2-vector (-dU1/dx, -dU1/dy) is returned as a pair of
    results.
    """
    if not z_atom > profile.amplitude:
        raise ValueError("atom must sit above the highest surface point")
    _warn_if_steep(profile, z_atom)
    r = np.asarray(r_atom, dtype=float)
    if isinstance(profile, Sinusoid):
        g = g_of_k(profile.k_c)
        x_par = float(np.dot(r, profile.direction))
        s = math.sin(profile.k_c * x_par + profile.phase)
        return IntegralResult(
            profile.h0 * profile.k_c * g.value * s,
            profile.h0 * profile.k_c * g.error * abs(s),
        )
    fx = 0.0 + 0.0j
    fy = 0.0 + 0.0j
    ex = ey = 0.0
    for (kx, ky), amp in profile.modes:
        g = g_of_k(math.hypot(kx, ky))
        factor = amp * cmath.exp(1j * (kx * r[0] + ky * r[1])) * g.value
        fx += -1j * kx * factor
        fy += -1j * ky * factor
        ex += abs(kx * amp) * g.error
        ey += abs(ky * amp) * g.error
    for comp in (fx, fy):
        scale = max(abs(comp), ex, ey)
        if scale > 0.0 and abs(comp.imag) > 1e-9 * scale:
            raise ValueError("spectrum is not Hermitian: lateral force complex")
    return IntegralResult(fx.real, ex), IntegralResult(fy.real, ey)


def pfa_first_order(
    profile, r_atom, z_atom: float, *, g_of_k: Callable[[float], IntegralResult]
) -> IntegralResult:
    """Proximity-force estimate of the first-order potential, J.

    Shifts the flat-surface potential by the local height: h(r_A) times
    the plane force g_of_k(0.0), i.e. the exact first-order result with
    every g(|k|, z_A) replaced by g(0, z_A). The exact-to-PFA ratio is the
    roll-off rho(k_c, z_A) for a sinusoid.
    """
    if not z_atom > profile.amplitude:
        raise ValueError("atom must sit above the highest surface point")
    force = g_of_k(0.0)
    h = profile.height(r_atom)
    return IntegralResult(h * force.value, abs(h) * force.error)


@dataclass(frozen=True)
class BecProbeConfig:
    """Trapped quasi-1D cloud used as a potential probe.

    omega_tr: transverse trap frequency (rad/s); a_scat: s-wave
    scattering length (m); mass (kg); delta_n: single-shot atom-number
    noise per resolution cell; rho0, x0: transverse and longitudinal
    imaging resolutions (m).
    """

    omega_tr: float
    a_scat: float
    mass: float
    delta_n: float
    rho0: float
    x0: float

    def __post_init__(self):
        for name in ("omega_tr", "a_scat", "mass", "delta_n", "rho0", "x0"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")


def rb87_bec_probe() -> BecProbeConfig:
    """Probe defaults: 2 pi x 300 Hz trap, imaging noise of 4 atoms over
    a 0.62 um x 3 um resolution cell."""
    return BecProbeConfig(
        omega_tr=TWO_PI * 300.0,
        a_scat=RB87_SCATTERING_LENGTH,
        mass=RB87_MASS,
        delta_n=4.0,
        rho0=0.62e-6,
        x0=3e-6,
    )


def bec_coupling(config: BecProbeConfig) -> float:
    """Density-to-potential coupling gamma = 2 hbar^2 a_scat / mass, J m^3."""
    return 2.0 * HBAR**2 * config.a_scat / config.mass


def bec_density_to_potential(n_1d: float, config: BecProbeConfig) -> float:
    """Total sampled potential -hbar omega_tr sqrt(1 + 4 a_scat n_1d), J."""
    if n_1d < 0.0:
        raise ValueError("n_1d must be non-negative")
    return -HBAR * config.omega_tr * math.sqrt(1.0 + 4.0 * config.a_scat * n_1d)


def bec_potential_to_density(v_total: float, config: BecProbeConfig) -> float:
    """Inverse of bec_density_to_potential; requires v_total <= -hbar omega_tr."""
    floor = -HBAR * config.omega_tr
    if v_total > floor:
        raise ValueError(
            "no physical density: total potential must not exceed "
            "-hbar omega_tr (empty-cloud value)"
        )
    ratio = v_total / floor
    return (ratio * ratio - 1.0) / (4.0 * config.a_scat)


def bec_sensitivity(config: BecProbeConfig) -> float:
    """Single-shot potential sensitivity gamma delta_n / (rho0^2 x0), J."""
    return bec_coupling(config) * config.delta_n / (config.rho0**2 * config.x0)


@dataclass(frozen=True)
class DetectabilityReport:
    """Corrugation signal against the probe noise floor.

    ratio = u1_amplitude / delta_v; classified detectable above 3,
    undetectable below 1/3, marginal between.
    """

    u1_amplitude: float
    delta_v: float
    ratio: float
    classification: str


def detectability_report(
    profile,
    z_atom: float,
    *,
    g_of_k: Callable[[float], IntegralResult],
    config: BecProbeConfig | None = None,
) -> DetectabilityReport:
    """Compare the first-order potential amplitude, from g_of_k = g(|k|)
    at z_A, with the probe floor (``config``, Rb87 by default)."""
    if not z_atom > profile.amplitude:
        raise ValueError("atom must sit above the highest surface point")
    config = config or rb87_bec_probe()
    if isinstance(profile, Sinusoid):
        amp = profile.h0 * abs(g_of_k(profile.k_c).value)
    else:
        amp = sum(
            abs(a) * abs(g_of_k(math.hypot(*k)).value)
            for k, a in profile.modes
        )
    delta_v = bec_sensitivity(config)
    ratio = amp / delta_v
    if ratio > 3.0:
        label = "detectable"
    elif ratio >= 1.0 / 3.0:
        label = "marginal"
    else:
        label = "undetectable"
    return DetectabilityReport(amp, delta_v, ratio, label)
