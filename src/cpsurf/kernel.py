"""Non-specular first-order reflection kernel.

The first-order response of the interaction to a surface-profile Fourier
component couples an incoming mode at k'' = k' - k to an outgoing mode at
k' through one non-specular surface reflection and one reflection off the
atom. After the polarization sums this reduces to a scalar kernel
a(k', k''), a function of |k'|, |k''| and the angle between them only.

The module evaluates the premultiplied combination

    A = (xi^2 / c^2) * a(k', k'')        units 1/m^2

in which every c^2/xi^2 factor from the TM polarization vectors has been
cancelled symbolically, so the xi -> 0 endpoint of the frequency integral
is finite for any material model: a_exact for a real material, a_perfect
for the ideal mirror. a_exact is written on the decay constants and eps
alone: the reflection-transmission ratios of the polarization sum lose
every transmission amplitude, sqrt(eps) and the kappa'/kappa'' prefactor
to the algebra, so no Fresnel set is formed. tests/test_kernel.py
rebuilds a_exact from the polarization overlaps, the Fresnel amplitudes
and the non-specular reflection block as an independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import C_LIGHT
from .optics import decay_constants
from .optics import fresnel  # noqa: F401  (bench/tracing.py patches kernel.fresnel; ROADMAP item 3)

__all__ = [
    "KernelPoint",
    "kernel_point",
    "a_exact",
    "a_perfect",
]


@dataclass(frozen=True)
class KernelPoint:
    """Geometry and decay constants shared by one kernel evaluation.

    kp, kpp are |k'| and |k''|; cos_dphi / sin_dphi are the cosine and
    sine of the angle from k'' to k'. All of kp, kpp, cos_dphi, sin_dphi
    may be broadcast-compatible arrays: a k' column of shape (n, 1) against
    (n, m) k'' data keeps the k' leg (kappa_p, kappa_t_p, m_p, e_p) at n
    elements. kappa is the vacuum-side and kappa_t the medium-side decay
    constant of each leg. inv_eps is 1/eps, 0 for a plasma eps that has
    overflowed to inf. The TE and TM factors of the k' leg are

        m_p = kappa' - kappa'_t = -(eps - 1)(xi/c)^2 / (kappa' + kappa'_t)
        e_p = (eps kappa' - kappa'_t) / d_tm = -(1 - 1/eps) / (kappa' + kappa'_t/eps)

    with d_tm = xi^2/c^2 - kappa'^2 (eps + 1), both free of cancellation.
    Every material field is None for a perfect conductor.
    """

    xi: float
    kp: object
    kpp: object
    cos_dphi: object
    sin_dphi: object
    kappa_p: object
    kappa_pp: object
    kappa_t_p: object
    kappa_t_pp: object
    inv_eps: float | None
    m_p: object
    e_p: object
    is_perfect: bool


def kernel_point(surface, xi: float, kp, kpp, cos_dphi, sin_dphi) -> KernelPoint:
    """Build a KernelPoint: the decay constants of both legs and the TE
    and TM factors of the k' leg.

    The TM denominator d_tm = xi^2/c^2 - kappa'^2 (eps + 1), taken as
    d_tm / eps = -(kappa'^2 + k'^2 / eps), is strictly negative for
    eps > 0. A point where it is not (eps <= 0 or NaN, or scales so far
    out that kappa'^2 underflows) raises ValueError. ``decay_constants``
    validates xi and the wavenumbers, with a ValueError for xi <= 0 or
    k < 0.
    """
    kp = np.asarray(kp, dtype=float)
    kpp = np.asarray(kpp, dtype=float)
    cos_dphi = np.asarray(cos_dphi, dtype=float)
    sin_dphi = np.asarray(sin_dphi, dtype=float)
    kappa_p, kappa_t_p = decay_constants(surface, kp, xi)
    kappa_pp, kappa_t_pp = decay_constants(surface, kpp, xi)
    if surface.is_perfect:
        return KernelPoint(
            xi, kp, kpp, cos_dphi, sin_dphi, kappa_p, kappa_pp, None, None, None, None, None, True
        )
    eps = float(surface.eps(xi))
    xi_c2 = (xi / C_LIGHT) ** 2
    inv_eps = 1.0 / eps if eps > 0.0 else math.nan
    if math.isinf(eps):
        # A plasma eps = 1 + omega_p^2/xi^2 overflows at tiny xi, where
        # eps xi^2 is still finite: the saturated limit, 1/eps = 0.
        chi = surface.eps_times_xi2(xi) / C_LIGHT**2 - xi_c2
    else:
        chi = (eps - 1.0) * xi_c2
    d_tm_over_eps = -(kappa_p**2 + inv_eps * kp**2)
    if not (d_tm_over_eps < 0.0).all():
        raise ValueError(
            f"kernel TM denominator is not negative at xi={xi:.6e} rad/s "
            f"(eps={eps:.6e}; wavenumbers or eps out of floating-point range)"
        )
    return KernelPoint(
        xi=xi,
        kp=kp,
        kpp=kpp,
        cos_dphi=cos_dphi,
        sin_dphi=sin_dphi,
        kappa_p=kappa_p,
        kappa_pp=kappa_pp,
        kappa_t_p=kappa_t_p,
        kappa_t_pp=kappa_t_pp,
        inv_eps=inv_eps,
        m_p=-chi / (kappa_p + kappa_t_p),
        e_p=-(1.0 - inv_eps) / (kappa_p + inv_eps * kappa_t_p),
        is_perfect=False,
    )


def a_exact(point: KernelPoint, z_atom: float):
    """Premultiplied kernel A = (xi^2/c^2) a(k', k'') for a real material.

    A = e^{-(kappa' + kappa'') z_A} [
          (xi^2/c^2) (C^2 m' + S^2 kappa' kappa'_t e') T''
        + (S^2 kappa'' kappa''_t m' / eps
           + e' (k'k'' + kappa'kappa''C)(k'k'' + kappa'_t kappa''_t C / eps)) N'' ]

    with m', e' the k' leg's TE and TM factors (KernelPoint.m_p, e_p),
    T'' = 1/(kappa'' + kappa''_t) and N'' = 1/(kappa'' + kappa''_t / eps).
    This is the polarization sum of u_{p p'} = r^p(k') t^{p'}(k'') / t^p(k')
    times kappa'/kappa'' with the transmission amplitudes, sqrt(eps) and
    the prefactor cancelled, and the TM factors written in 1/eps, so a
    saturated plasma eps = inf gives the finite limit (e' = -1/kappa',
    N'' = 1/kappa''), and eps = 1 gives A = 0 exactly. Every 1/xi^2 from
    the TM overlaps is cancelled against the xi^2 premultiplier, so the
    xi -> 0 limit is finite (the last term survives). Units 1/m^2.
    """
    if point.is_perfect:
        raise ValueError("a_exact requires a finite permittivity; use a_perfect")
    if z_atom < 0.0:
        raise ValueError("z_atom must be non-negative")
    xi_c2 = (point.xi / C_LIGHT) ** 2
    inv_eps = point.inv_eps
    kappa_p, kappa_pp = point.kappa_p, point.kappa_pp
    kt_p, kt_pp = point.kappa_t_p, point.kappa_t_pp
    m_p, e_p = point.m_p, point.e_p
    cos_d = point.cos_dphi
    c2 = cos_d**2
    s2 = point.sin_dphi**2
    kk = point.kp * point.kpp
    te_in = (c2 * (xi_c2 * m_p) + s2 * (xi_c2 * kappa_p * kt_p * e_p)) / (kappa_pp + kt_pp)
    tm_in = (
        s2 * (kappa_pp * kt_pp) * (inv_eps * m_p)
        + e_p * (kk + kappa_p * kappa_pp * cos_d) * (kk + (inv_eps * kt_p) * kt_pp * cos_d)
    ) / (kappa_pp + inv_eps * kt_pp)
    return np.exp((kappa_p + kappa_pp) * -z_atom) * (te_in + tm_in)


def a_perfect(point: KernelPoint, z_atom: float):
    """Premultiplied kernel for the ideal mirror.

    A = (1/2) e^{-(kappa' + kappa'') z_A} [
          (xi^2/c^2) (k_c^2 + (kappa' - kappa'')^2) / (kappa' kappa'')
        + k_c^2 - (kappa' + kappa'')^2 ]

    with k_c^2 = |k' - k''|^2 = k'^2 + k''^2 - 2 k' k'' C. Units 1/m^2.
    """
    if z_atom < 0.0:
        raise ValueError("z_atom must be non-negative")
    xi_c2 = (point.xi / C_LIGHT) ** 2
    k_corr2 = point.kp**2 + point.kpp**2 - 2.0 * point.kp * point.kpp * point.cos_dphi
    k_corr2 = np.maximum(k_corr2, 0.0)
    kappa_p, kappa_pp = point.kappa_p, point.kappa_pp
    diff = kappa_p - kappa_pp
    total = kappa_p + kappa_pp
    envelope = np.exp(-total * z_atom)
    return 0.5 * envelope * (
        xi_c2 * (k_corr2 + diff**2) / (kappa_p * kappa_pp)
        + (k_corr2 - total**2)
    )
