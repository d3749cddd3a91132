"""Production integrals: plane potential/force and the response g(k, z_A).

All three integrals run over imaginary frequency xi and transverse
wavenumbers, mapped from [0, inf) to the unit interval with the natural
scales of the problem (xi_0 = c / z_A, k_0 = 1 / z_A):

    xi = xi_0 u / (1 - u),    k = k_0 v / (1 - v).

The outer (frequency) integral is adaptive Gauss-Kronrod (G8/K17: 17
integrand points per panel, the error estimate from the embedded 8-point
Gauss rule), each step evaluating every xi node of its panels in one
call; the inner wavenumber integral is the same adaptive rule evaluated
on whole node batches (every panel of an adaptive step in one call). For the plane integrals
the k' integrals of all xi nodes of an outer step run in lock-step as
rows of one adaptive, with one Fresnel call (a xi column against the k
matrix) per round; the response runs one k' adaptive per xi node, and
its angular integral is nested Clenshaw-Curtis applied to all
wavenumber nodes of a batch at once. The k' leg of the kernel (its
Fresnel set, kappa' and the TM denominator) depends on k' only, so
kernel_point builds it on the k' column and broadcasts it against the
k'' x angle grid; each Clenshaw-Curtis doubling is a new kernel_point
call, so the leg is rebuilt at every doubling.
Inner tolerances are set below the requested one so the reported error,
outer estimate plus a tolerance-sized pad, is trustworthy. A
ConvergenceError names the layer that failed ("xi", "kprime" or "phi"),
for the inner two the frequency node, and for "phi" the k' node.

Sign conventions: potentials and forces of an attractive interaction are
negative; eta_f and rho are positive ratios.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._integrate import ConvergenceError, adaptive_gauss, adaptive_gauss_rows, cc_batch
from .atomics import polarizability
from .closedforms import f_cp0, rho_cp_perf
from .constants import C_LIGHT, EPS0, HBAR
from .kernel import a_exact, a_perfect, kernel_point
from .optics import fresnel

__all__ = [
    "QuadratureSettings",
    "IntegralResult",
    "ConvergenceError",
    "plane_potential",
    "plane_force",
    "response_g",
    "rho",
    "eta_f",
    "g_evaluator",
]

_PREF_PLANE = HBAR / (4.0 * math.pi**2 * EPS0)
_PREF_G = HBAR / (4.0 * math.pi**3 * EPS0)

# Tolerance budget relative to the requested rel_tol: the outer adaptive
# runs at _OUTER_FRAC, inner legs tighter, and the reported error adds a
# _REPORT_PAD-sized allowance for the inner noise floor.
_OUTER_FRAC = 0.5
_INNER_FRAC_PLANE = 0.25
_INNER_FRAC_G = 0.2
_ANGULAR_FRAC = 0.05
_REPORT_PAD = 0.3


@dataclass(frozen=True)
class QuadratureSettings:
    """Accuracy and budget knobs shared by all production integrals.

    rel_tol is the target relative error of the full integral. kz_cutoff
    short-circuits response_g once k z_A is so large that the result
    cannot be resolved against g(0, z_A) in double precision.
    """

    rel_tol: float = 1e-6
    max_panels: int = 4096
    initial_panels: int = 4
    angular_min_half: int = 8
    angular_max_half: int = 512
    kz_cutoff: float = 40.0

    def __post_init__(self):
        if not 0.0 < self.rel_tol < 1.0:
            raise ValueError("rel_tol must lie in (0, 1)")
        if self.max_panels < self.initial_panels or self.initial_panels < 1:
            raise ValueError("panel budget must fit the initial split")
        if self.angular_max_half < self.angular_min_half or self.angular_min_half < 2:
            raise ValueError("angular budget must fit the initial order")
        if not self.kz_cutoff > 0.0:
            raise ValueError("kz_cutoff must be positive")


@dataclass(frozen=True)
class IntegralResult:
    """Value with an absolute error estimate.

    ``negligible`` marks results short-circuited to zero because the
    exact value is provably below the error field.
    """

    value: float
    error: float
    negligible: bool = False


def _check_geometry(z_atom: float) -> None:
    if not z_atom > 0.0:
        raise ValueError("z_atom must be positive")


@contextmanager
def _layer(name: str, xi=None, kp=None):
    # The innermost failing rule is the one named; outer layers pass the
    # error on unchanged. xi and kp are the nodes the failing rule served:
    # a scalar, or an array indexed by the error's row.
    try:
        yield
    except ConvergenceError as exc:
        if exc.layer is None:
            exc.layer = name
            exc.xi = _node(xi, exc.row)
            exc.kp = _node(kp, exc.row)
        raise


def _node(nodes, row: int) -> float | None:
    if nodes is None:
        return None
    return float(nodes if np.ndim(nodes) == 0 else np.ravel(nodes)[row])


def _plane_integral(atom, surface, z_atom, settings, force: bool) -> IntegralResult:
    _check_geometry(z_atom)
    xi0 = C_LIGHT / z_atom
    k0 = 1.0 / z_atom
    inner_tol = _INNER_FRAC_PLANE * settings.rel_tol

    def inner(xi: np.ndarray) -> np.ndarray:
        # The k' integrals of all xi nodes run as rows of one lock-step
        # adaptive: each round evaluates every unconverged row's new
        # panels in one array pass (one fresnel call with a xi column).
        xi_c2 = np.float_power(xi / C_LIGHT, 2)

        def f_k(v: np.ndarray, rows: np.ndarray) -> np.ndarray:
            k = k0 * v / (1.0 - v)
            jac = k0 / (1.0 - v) ** 2
            kappa = np.sqrt(xi_c2[rows] + k**2)
            weight = k if force else k / (2.0 * kappa)
            # Q = (xi^2/c^2)(r_TE - r_TM) - 2 k^2 r_TM; reduces to
            # -2 kappa^2 for the ideal mirror. Negative for any passive
            # surface.
            fs = fresnel(surface, k, xi[rows])
            moment = xi_c2[rows] * (fs.r_te - fs.r_tm) - 2.0 * k**2 * fs.r_tm
            return jac * weight * np.exp(-2.0 * kappa * z_atom) * moment

        with _layer("kprime", xi):
            vals, _ = adaptive_gauss_rows(
                f_k,
                np.zeros_like(xi),
                np.ones_like(xi),
                inner_tol,
                max_panels=settings.max_panels,
                initial_panels=settings.initial_panels,
            )
        return vals

    def outer(u: np.ndarray) -> np.ndarray:
        # Squares of scalars are taken with pow (float_power), so each
        # node gets the bits a per-node scalar evaluation would.
        xi = xi0 * u / (1.0 - u)
        jac = xi0 / np.float_power(1.0 - u, 2)
        alpha = np.array([polarizability(atom, x) for x in xi])
        return alpha * jac * inner(xi)

    with _layer("xi"):
        val, err = adaptive_gauss(
            outer,
            0.0,
            1.0,
            _OUTER_FRAC * settings.rel_tol,
            max_panels=settings.max_panels,
            initial_panels=settings.initial_panels,
        )
    value = _PREF_PLANE * val
    error = _PREF_PLANE * err + _REPORT_PAD * settings.rel_tol * abs(value)
    return IntegralResult(value, error)


def plane_potential(
    atom, surface, z_atom: float, settings: QuadratureSettings | None = None
) -> IntegralResult:
    """Flat-surface ground-state potential U0(z_A) in J (negative)."""
    return _plane_integral(atom, surface, z_atom, settings or QuadratureSettings(), False)


def plane_force(
    atom, surface, z_atom: float, settings: QuadratureSettings | None = None
) -> IntegralResult:
    """Flat-surface normal force F0(z_A) = -dU0/dz_A in N (negative)."""
    return _plane_integral(atom, surface, z_atom, settings or QuadratureSettings(), True)


def response_g(
    atom,
    surface,
    z_atom: float,
    k_corr: float,
    settings: QuadratureSettings | None = None,
) -> IntegralResult:
    """First-order response g(k, z_A) to a profile component at |k|, in N.

    g is negative, equals the plane force at k = 0, and decays at least
    as fast as e^{-0.8 k z_A} once k z_A is large. Beyond
    settings.kz_cutoff the value is returned as exactly zero, flagged
    negligible, with a closed-form magnitude bound as the error.
    """
    settings = settings or QuadratureSettings()
    _check_geometry(z_atom)
    if k_corr < 0.0:
        raise ValueError("k_corr must be non-negative")

    if k_corr * z_atom > settings.kz_cutoff:
        bound = abs(f_cp0(z_atom, polarizability(atom, 0.0))) * rho_cp_perf(
            k_corr * z_atom
        )
        return IntegralResult(0.0, bound, negligible=True)

    xi0 = C_LIGHT / z_atom
    k0 = 1.0 / z_atom
    inner_tol = _INNER_FRAC_G * settings.rel_tol
    angular_tol = _ANGULAR_FRAC * settings.rel_tol
    use_perfect = surface.is_perfect

    def inner(xi: float) -> float:
        def f_k(v: np.ndarray) -> np.ndarray:
            kp = k0 * v / (1.0 - v)
            jac = k0 / (1.0 - v) ** 2
            kp_col = kp[:, None]

            def f_phi(phi: np.ndarray) -> np.ndarray:
                # Half-angle form keeps k'' = |k' - k| cancellation-free
                # near phi = 0; the direction cosines are true cosines,
                # clipped only to shed rounding overshoot.
                sin_half2 = np.sin(0.5 * phi) ** 2
                kpp = np.sqrt(
                    (kp_col - k_corr) ** 2 + 4.0 * kp_col * k_corr * sin_half2
                )
                safe = np.maximum(kpp, 1e-300)
                cos_d = np.clip(
                    ((kp_col - k_corr) + 2.0 * k_corr * sin_half2) / safe, -1.0, 1.0
                )
                sin_d = np.clip(-k_corr * np.sin(phi) / safe, -1.0, 1.0)
                # Where k'' = 0 (k' = k at phi = 0) the clamp makes the
                # ratio -0; its limit phi -> 0+ is -1.
                sin_d = np.where(kpp > 0.0, sin_d, -1.0)
                # The k' leg goes in as the (n, 1) column, so its optics
                # run once per k' node and broadcast over k'' and phi.
                point = kernel_point(surface, xi, kp_col, kpp, cos_d, sin_d)
                if use_perfect:
                    return a_perfect(point, z_atom)
                return a_exact(point, z_atom)

            with _layer("phi", xi, kp):
                vals, _ = cc_batch(
                    f_phi,
                    angular_tol,
                    min_half=settings.angular_min_half,
                    max_half=settings.angular_max_half,
                )
            return jac * kp * vals

        with _layer("kprime", xi):
            val, _ = adaptive_gauss(
                f_k,
                0.0,
                1.0,
                inner_tol,
                max_panels=settings.max_panels,
                initial_panels=settings.initial_panels,
            )
        return val

    def outer(u: np.ndarray) -> np.ndarray:
        out = np.empty_like(u)
        for i, ui in enumerate(u):
            xi = xi0 * ui / (1.0 - ui)
            jac = xi0 / (1.0 - ui) ** 2
            out[i] = polarizability(atom, xi) * jac * inner(xi)
        return out

    with _layer("xi"):
        val, err = adaptive_gauss(
            outer,
            0.0,
            1.0,
            _OUTER_FRAC * settings.rel_tol,
            max_panels=settings.max_panels,
            initial_panels=settings.initial_panels,
        )
    value = _PREF_G * val
    error = _PREF_G * err + _REPORT_PAD * settings.rel_tol * abs(value)
    return IntegralResult(value, error)


def rho(
    atom,
    surface,
    z_atom: float,
    k_corr: float,
    settings: QuadratureSettings | None = None,
) -> IntegralResult:
    """Roll-off rho(k, z_A) = g(k, z_A) / g(0, z_A); 1 at k = 0."""
    g_k = response_g(atom, surface, z_atom, k_corr, settings)
    g_0 = response_g(atom, surface, z_atom, 0.0, settings)
    if g_k.negligible or g_k.value == 0.0:
        return IntegralResult(0.0, g_k.error / abs(g_0.value), negligible=True)
    value = g_k.value / g_0.value
    error = abs(value) * (
        g_k.error / abs(g_k.value) + g_0.error / abs(g_0.value)
    )
    return IntegralResult(value, error)


def eta_f(
    atom, surface, z_atom: float, settings: QuadratureSettings | None = None
) -> IntegralResult:
    """Plane force relative to the ideal-mirror retarded limit.

    eta_F = F0(z_A) / f_cp0(z_A, alpha(0)); exactly 1 for a perfect
    conductor and a static polarizability, below 1 otherwise.
    """
    force = plane_force(atom, surface, z_atom, settings)
    denom = f_cp0(z_atom, polarizability(atom, 0.0))
    return IntegralResult(force.value / denom, force.error / abs(denom))


def g_evaluator(
    atom, surface, z_atom: float, settings: QuadratureSettings | None = None
) -> Callable[[float], IntegralResult]:
    """Memoized g(|k|, z_A) for profile sums that repeat wavenumbers."""
    settings = settings or QuadratureSettings()
    cache: dict[float, IntegralResult] = {}

    def g_of_k(k_corr: float) -> IntegralResult:
        key = float(k_corr)
        if key not in cache:
            cache[key] = response_g(atom, surface, z_atom, key, settings)
        return cache[key]

    return g_of_k
