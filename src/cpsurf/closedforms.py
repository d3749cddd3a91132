"""Closed-form limits of the plane force and the response function.

Two families:

* retarded limit (static polarizability, ideal mirror): the plane force
  f_cp0 ~ z^-5, the universal roll-off rho_cp_perf(Z) and their product
  g_cp_perf, all exact for a static atom above a perfect conductor;
* short-distance (non-retarded) limit: g_vdw_* for perfect-conductor,
  plasma, surface-plasmon and single-resonance dielectric surfaces,
  expressed through modified Bessel functions K0, K1. All four share one
  transition sum of the form -k d_n^2 e^{-Z} (a Z K0e + b K1e) / (c z^3);
  each surface supplies only its per-transition (a, b, c), and k = 0
  takes the limit of that same sum.

K0/K1 are implemented here (ascending series below the crossover at 2,
Chebyshev-fitted scaled asymptotic branch above) so the numerical core has
no external special-function dependency; tests compare against an
independent library oracle.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np
import numpy.polynomial.chebyshev as _cheb

from .constants import C_LIGHT, EPS0, HBAR

__all__ = [
    "bessel_k0_k1",
    "bessel_k0e_k1e",
    "f_cp0",
    "u_cp0",
    "rho_cp_perf",
    "g_cp_perf",
    "g_vdw_perfect",
    "g_vdw_plasma",
    "g_vdw_plasmon",
    "g_vdw_drude_lorentz",
]

EULER_GAMMA = 0.5772156649015329

SQRT2 = math.sqrt(2.0)

# Chebyshev coefficients for e^x sqrt(x) K_nu(x), x >= 2, in t = 4/x - 1.
# Generated from 50-digit reference values; max relative error ~2e-16.
_CHEB_K0E = np.array([
    1.2201515410329777273,
    -0.031448101311964500543,
    0.0015698838857300533749,
    -0.00012849549581627802638,
    0.000013949813718876499364,
    -1.8317555227191194848e-6,
    2.7668136394450150761e-7,
    -4.6604898976879476656e-8,
    8.5740340174142260858e-9,
    -1.6975345093890615156e-9,
    3.5773972814003284472e-10,
    -7.9574892444773970377e-11,
    1.855949114954926555e-11,
    -4.5145978833745191751e-12,
    1.1403405882073442347e-12,
    -2.9800969231481783548e-13,
    8.0328907750683743694e-14,
    -2.2275133267462963604e-14,
    6.3400764762766459661e-15,
    -1.8485933779209071694e-15,
    5.5120559994043333649e-16,
    -1.6782311257549006383e-16,
    5.2103917776435541125e-17,
    -1.6475805939842632815e-17,
    5.3004337711773357703e-18,
    -1.7331712005821000263e-18,
    5.7551092028827293467e-19,
    -1.9390956053183553946e-19,
])

_CHEB_K1E = np.array([
    1.3603130952422213347,
    0.10392373657681723844,
    -0.0028578168596227793868,
    0.00019521551847135163111,
    -0.0000193619797416608296,
    2.4064849478372171171e-6,
    -3.5019606030878125421e-7,
    5.7410841254500492923e-8,
    -1.0345762465678097027e-8,
    2.0150497551970346161e-9,
    -4.1903547593419255842e-10,
    9.2183151876053141258e-11,
    -2.1299678384277910216e-11,
    5.1396396734823435404e-12,
    -1.2891739609498229352e-12,
    3.3484196660522431201e-13,
    -8.9767051820101460692e-14,
    2.4771544242195986813e-14,
    -7.0198370892147688513e-15,
    2.0387031662398608799e-15,
    -6.0570472706430178228e-16,
    1.8380935752430454256e-16,
    -5.6894628491936483742e-17,
    1.7940510478863572914e-17,
    -5.7567444820733024496e-18,
    1.8778651901623267386e-18,
    -6.2216452873526091512e-19,
    2.0919125269831135809e-19,
])

_SERIES_TERMS = 26


def _k0_k1_series(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Ascending series, x <= 2. All sums converge to machine precision
    # within _SERIES_TERMS terms at the crossover.
    q = 0.25 * x * x
    log_half_x = np.log(0.5 * x)
    i0 = np.ones_like(x)
    i1_sum = np.ones_like(x)  # I1 = (x/2) * i1_sum
    k0_sum = np.zeros_like(x)  # sum H_k q^k / (k!)^2
    k1_sum = np.full_like(x, 1.0 - 2.0 * EULER_GAMMA)  # k = 0 term of psi-sum
    term_i0 = np.ones_like(x)
    term_i1 = np.ones_like(x)
    harmonic = 0.0
    for k in range(1, _SERIES_TERMS):
        term_i0 = term_i0 * q / (k * k)
        term_i1 = term_i1 * q / (k * (k + 1))
        harmonic += 1.0 / k
        i0 += term_i0
        i1_sum += term_i1
        k0_sum += term_i0 * harmonic
        # psi(k+1) + psi(k+2) = -2 gamma + 2 H_k + 1/(k+1)
        k1_sum += term_i1 * (-2.0 * EULER_GAMMA + 2.0 * harmonic + 1.0 / (k + 1.0))
    i1 = 0.5 * x * i1_sum
    k0 = -(log_half_x + EULER_GAMMA) * i0 + k0_sum
    k1 = 1.0 / x + log_half_x * i1 - 0.25 * x * k1_sum
    return k0, k1


def bessel_k0e_k1e(z):
    """Scaled modified Bessel functions e^z K0(z), e^z K1(z); z > 0."""
    scalar = np.ndim(z) == 0
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if np.any(z <= 0.0):
        raise ValueError("argument must be positive")
    k0e = np.empty_like(z)
    k1e = np.empty_like(z)
    small = z <= 2.0
    if np.any(small):
        k0, k1 = _k0_k1_series(z[small])
        grow = np.exp(z[small])
        k0e[small] = k0 * grow
        k1e[small] = k1 * grow
    if np.any(~small):
        t = 4.0 / z[~small] - 1.0
        rsqrt = 1.0 / np.sqrt(z[~small])
        k0e[~small] = _cheb.chebval(t, _CHEB_K0E) * rsqrt
        k1e[~small] = _cheb.chebval(t, _CHEB_K1E) * rsqrt
    if scalar:
        return float(k0e[0]), float(k1e[0])
    return k0e, k1e


def bessel_k0_k1(z):
    """Modified Bessel functions K0(z), K1(z); z > 0.

    Relative accuracy ~1e-15 across [1e-6, 50]; underflows to zero only
    beyond z ~ 745 where e^{-z} leaves the double range.
    """
    scalar = np.ndim(z) == 0
    z_arr = np.atleast_1d(np.asarray(z, dtype=float))
    k0e, k1e = bessel_k0e_k1e(z_arr)
    decay = np.exp(-z_arr)
    k0, k1 = k0e * decay, k1e * decay
    if scalar:
        return float(k0[0]), float(k1[0])
    return k0, k1


def f_cp0(z_atom: float, alpha0: float) -> float:
    """Retarded-limit plane force -3 hbar c alpha0 / (8 pi^2 eps0 z_A^5), N.

    Exact at every distance for a static polarizability above a perfect
    conductor; the large-distance limit otherwise.
    """
    if not z_atom > 0.0:
        raise ValueError("z_atom must be positive")
    return -3.0 * HBAR * C_LIGHT * alpha0 / (8.0 * math.pi**2 * EPS0 * z_atom**5)


def u_cp0(z_atom: float, alpha0: float) -> float:
    """Retarded-limit plane potential -3 hbar c alpha0 / (32 pi^2 eps0 z_A^4), J."""
    if not z_atom > 0.0:
        raise ValueError("z_atom must be positive")
    return -3.0 * HBAR * C_LIGHT * alpha0 / (32.0 * math.pi**2 * EPS0 * z_atom**4)


def rho_cp_perf(big_z):
    """Geometry roll-off e^{-Z}(1 + Z + 16 Z^2/45 + Z^3/45), Z = k z_A.

    Equals 1 at Z = 0 with zero slope; decays exponentially for Z >> 1.
    """
    big_z = np.asarray(big_z, dtype=float)
    if np.any(big_z < 0.0):
        raise ValueError("k z_A must be non-negative")
    out = np.exp(-big_z) * (
        1.0 + big_z + (16.0 / 45.0) * big_z**2 + big_z**3 / 45.0
    )
    return out if out.ndim else float(out)


def g_cp_perf(k_corr: float, z_atom: float, alpha0: float) -> float:
    """Retarded-limit response g(k, z_A) = f_cp0(z_A) rho_cp_perf(k z_A), N."""
    return f_cp0(z_atom, alpha0) * rho_cp_perf(k_corr * z_atom)


def _g_vdw(k_corr: float, z_atom: float, transitions: Iterable, bracket) -> float:
    """Sum over transitions of -k d_n^2 e^{-Z} (a Z K0e(Z) + b K1e(Z)) / (c z^3),
    Z = k z, with (a, b, c) = bracket(omega_n, Z).

    At k = 0 it takes the limit -d_n^2 b(omega_n, 0) / (c z^4), since
    Z K0(Z) -> 0 and k K1(k z) -> 1/z.
    """
    if not z_atom > 0.0:
        raise ValueError("z_atom must be positive")
    if k_corr < 0.0:
        raise ValueError("k_corr must be non-negative")
    pairs = [(float(t[0]), float(t[1])) for t in transitions]
    if not pairs:
        raise ValueError("need at least one transition")
    for omega, dipole in pairs:
        if not (omega > 0.0 and dipole > 0.0):
            raise ValueError("transition frequencies and dipoles must be positive")
    total = 0.0
    if k_corr == 0.0:
        for omega, dipole in pairs:
            _, b, c = bracket(omega, 0.0)
            total -= dipole**2 * b / (c * z_atom**4)
        return total
    big_z = k_corr * z_atom
    k0e, k1e = bessel_k0e_k1e(big_z)
    decay = math.exp(-big_z)
    for omega, dipole in pairs:
        a, b, c = bracket(omega, big_z)
        total -= k_corr * dipole**2 * decay * (a * big_z * k0e + b * k1e) / (c * z_atom**3)
    return total


def g_vdw_perfect(k_corr: float, z_atom: float, transitions: Iterable) -> float:
    """Short-distance response above an ideal mirror, N.

    g = -sum_n k d_n^2 / (192 pi eps0 z^3) [6 Z K0(Z) + (Z^2 + 12) K1(Z)],
    Z = k z; the k -> 0 limit -sum_n d_n^2 / (16 pi eps0 z^4) is used
    exactly at k = 0.
    """

    def bracket(omega, big_z):
        return 6.0, big_z**2 + 12.0, 192.0 * math.pi * EPS0

    return _g_vdw(k_corr, z_atom, transitions, bracket)


def g_vdw_plasma(
    k_corr: float, z_atom: float, transitions: Iterable, omega_p: float
) -> float:
    """Short-distance response above a plasma metal, N.

    Per transition, with x = omega_p / omega_n and Z = k z:

    g_n = -k d_n^2 x / (192 sqrt2 pi eps0 z^3 (x + sqrt2)^2)
          [6 sqrt2 Z (x + sqrt2) K0 + (sqrt2 (Z^2+12) x + Z^2 + 24) K1]

    Limits: x -> inf recovers g_vdw_perfect; x -> 0 recovers
    g_vdw_plasmon; k -> 0 gives -d_n^2 x / (16 pi eps0 z^4 (x + sqrt2)).
    """
    if not omega_p > 0.0:
        raise ValueError("omega_p must be positive")

    def bracket(omega, big_z):
        x = omega_p / omega
        return (
            6.0 * SQRT2 * (x + SQRT2) * x,
            (SQRT2 * (big_z**2 + 12.0) * x + big_z**2 + 24.0) * x,
            192.0 * SQRT2 * math.pi * EPS0 * (x + SQRT2) ** 2,
        )

    return _g_vdw(k_corr, z_atom, transitions, bracket)


def g_vdw_plasmon(
    k_corr: float, z_atom: float, transitions: Iterable, omega_p: float
) -> float:
    """Surface-plasmon-dominated limit (omega_p << omega_n) of g_vdw_plasma, N.

    g_n = -k d_n^2 x / (384 sqrt2 pi eps0 z^3) [12 Z K0 + (Z^2 + 24) K1]
    """
    if not omega_p > 0.0:
        raise ValueError("omega_p must be positive")

    def bracket(omega, big_z):
        x = omega_p / omega
        return 12.0 * x, (big_z**2 + 24.0) * x, 384.0 * SQRT2 * math.pi * EPS0

    return _g_vdw(k_corr, z_atom, transitions, bracket)


def g_vdw_drude_lorentz(
    k_corr: float,
    z_atom: float,
    transitions: Iterable,
    omega_dl: float,
    eps_static: float,
) -> float:
    """Short-distance response above a single-resonance dielectric, N.

    With gm = eps_static - 1, w = sqrt(gm + 2), x = omega_dl / omega_n,
    Z = k z:

    g_n = -gm k d_n^2 x / (384 pi eps0 z^3 w^3 (w x + sqrt2)^2) *
          [12 (gm+2)(w x + sqrt2) Z K0
           + (2 w ((Z^2+12) gm + 24) x + sqrt2 ((Z^2+24) gm + 48)) K1]

    This grouping carries the double zero of the raw numerator against the
    ((gm+2) x^2 - 2)^2 denominator explicitly, so the expression is
    regular for every x > 0. eps_static -> infinity at fixed
    omega_dl sqrt(eps_static - 1) recovers g_vdw_plasma; eps_static = 1
    gives zero.
    """
    if not omega_dl > 0.0:
        raise ValueError("omega_dl must be positive")
    if not eps_static >= 1.0:
        raise ValueError("eps_static must be >= 1")
    gm = eps_static - 1.0
    w = math.sqrt(gm + 2.0)

    def bracket(omega, big_z):
        x = omega_dl / omega
        gx = gm * x
        z2 = big_z**2
        return (
            12.0 * (gm + 2.0) * (w * x + SQRT2) * gx,
            (2.0 * w * ((z2 + 12.0) * gm + 24.0) * x + SQRT2 * ((z2 + 24.0) * gm + 48.0)) * gx,
            384.0 * math.pi * EPS0 * w**3 * (w * x + SQRT2) ** 2,
        )

    return _g_vdw(k_corr, z_atom, transitions, bracket)
