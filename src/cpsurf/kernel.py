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
for the ideal mirror. tests/test_kernel.py rebuilds a_exact from the
polarization overlaps and the non-specular reflection block as an
independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import C_LIGHT
from .optics import FresnelSet, fresnel

__all__ = [
    "KernelPoint",
    "kernel_point",
    "a_exact",
    "a_perfect",
]


@dataclass(frozen=True)
class KernelPoint:
    """Geometry, material and Fresnel data shared by one kernel evaluation.

    kp, kpp are |k'| and |k''|; cos_dphi / sin_dphi are the cosine and
    sine of the angle from k'' to k'. All of kp, kpp, cos_dphi, sin_dphi
    may be broadcast-compatible arrays: a k' column of shape (n, 1) against
    (n, m) k'' data keeps the k' leg (fres_p, d_tm) at n elements. The
    decay constants kappa', kappa'' are fres_p.kappa, fres_pp.kappa.
    ``eps`` and ``d_tm`` are None for a perfect conductor.
    """

    xi: float
    kp: object
    kpp: object
    cos_dphi: object
    sin_dphi: object
    fres_p: FresnelSet
    fres_pp: FresnelSet
    eps: float | None
    d_tm: object
    is_perfect: bool


def kernel_point(surface, xi: float, kp, kpp, cos_dphi, sin_dphi) -> KernelPoint:
    """Build a KernelPoint, evaluating the material once per leg.

    The TM denominator d_tm = xi^2/c^2 - kappa'^2 (eps + 1) is strictly
    negative for eps > 0. Every TM term divides by it, so a point where it
    is not (eps <= 0, or scales so far out that kappa'^2 underflows
    against an infinite eps) raises ValueError. ``fresnel`` validates xi
    and the wavenumbers, with a ValueError for xi <= 0 or k < 0.
    """
    kp = np.asarray(kp, dtype=float)
    kpp = np.asarray(kpp, dtype=float)
    cos_dphi = np.asarray(cos_dphi, dtype=float)
    sin_dphi = np.asarray(sin_dphi, dtype=float)
    fres_p = fresnel(surface, kp, xi)
    fres_pp = fresnel(surface, kpp, xi)
    if surface.is_perfect:
        eps = None
        d_tm = None
    else:
        eps = float(surface.eps(xi))
        d_tm = (xi / C_LIGHT) ** 2 - fres_p.kappa**2 * (eps + 1.0)
        if not np.all(d_tm < 0.0):
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
        fres_p=fres_p,
        fres_pp=fres_pp,
        eps=eps,
        d_tm=d_tm,
        is_perfect=surface.is_perfect,
    )


def _u_factors(point: KernelPoint) -> dict[str, object]:
    # u_{p p'} = r^p(k') t^{p'}(k'') / t^p(k')
    fp, fpp = point.fres_p, point.fres_pp
    return {
        "te_te": fp.r_te * fpp.t_te / fp.t_te,
        "te_tm": fp.r_te * fpp.t_tm / fp.t_te,
        "tm_te": fp.r_tm * fpp.t_te / fp.t_tm,
        "tm_tm": fp.r_tm * fpp.t_tm / fp.t_tm,
    }


def a_exact(point: KernelPoint, z_atom: float):
    """Premultiplied kernel A = (xi^2/c^2) a(k', k'') for a real material.

    A = e^{-(kappa' + kappa'') z_A} (kappa'/kappa'') [
          (xi^2/c^2) C^2 u_TE,TE
        + S^2 kappa'' kappa''_t / sqrt(eps) u_TE,TM
        + (xi^2/c^2) sqrt(eps) kappa' kappa'_t S^2 / d_tm u_TM,TE
        + (k'k'' + kappa'kappa''C)(eps k'k'' + kappa'_t kappa''_t C) / d_tm u_TM,TM ]

    Every 1/xi^2 from the TM overlaps is cancelled against the xi^2
    premultiplier, so the xi -> 0 limit is finite (the last term
    survives). Units 1/m^2.
    """
    if point.is_perfect:
        raise ValueError("a_exact requires a finite permittivity; use a_perfect")
    if z_atom < 0.0:
        raise ValueError("z_atom must be non-negative")
    eps = point.eps
    sqrt_eps = math.sqrt(eps)
    xi_c2 = (point.xi / C_LIGHT) ** 2
    u = _u_factors(point)
    c2 = point.cos_dphi**2
    s2 = point.sin_dphi**2
    kappa_p, kappa_pp = point.fres_p.kappa, point.fres_pp.kappa
    kt_p = point.fres_p.kappa_t
    kt_pp = point.fres_pp.kappa_t
    term_te_te = xi_c2 * c2 * u["te_te"]
    term_te_tm = s2 * kappa_pp * kt_pp / sqrt_eps * u["te_tm"]
    term_tm_te = xi_c2 * sqrt_eps * kappa_p * kt_p * s2 / point.d_tm * u["tm_te"]
    term_tm_tm = (
        (point.kp * point.kpp + kappa_p * kappa_pp * point.cos_dphi)
        * (eps * point.kp * point.kpp + kt_p * kt_pp * point.cos_dphi)
        / point.d_tm
        * u["tm_tm"]
    )
    envelope = np.exp(-(kappa_p + kappa_pp) * z_atom)
    return envelope * (kappa_p / kappa_pp) * (
        term_te_te + term_te_tm + term_tm_te + term_tm_tm
    )


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
    kappa_p, kappa_pp = point.fres_p.kappa, point.fres_pp.kappa
    diff = kappa_p - kappa_pp
    total = kappa_p + kappa_pp
    envelope = np.exp(-total * z_atom)
    return 0.5 * envelope * (
        xi_c2 * (k_corr2 + diff**2) / (kappa_p * kappa_pp)
        + (k_corr2 - total**2)
    )
