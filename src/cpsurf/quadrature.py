"""Production integrals: plane potential/force and the response g(k, z_A).

All three integrals run over imaginary frequency xi and transverse
wavenumbers, mapped from [0, inf) to the unit interval with the natural
scales of the problem (xi_0 = c / z_A, k_0 = 1 / z_A):

    xi = xi_0 u / (1 - u),    k = k_0 v / (1 - v).

All three run on one xi x k' skeleton (_xi_kprime). The outer (frequency) integral
is adaptive Gauss-Kronrod (G8/K17: 17 integrand points per panel, the
error estimate from the embedded 8-point Gauss rule), each step
evaluating every xi node of its panels in one call. The k' integrals of
all xi nodes of an outer step run in lock-step as rows of one adaptive
of the same rule, each round handing the new k' nodes of every working
row to a row integrand in one call. The plane's integrand is one Fresnel
call (a xi column against the k lines). The response's integrand runs,
per row, the angular integral of all its k' nodes at once by nested
Clenshaw-Curtis. Near k' = k the wavenumber k'' = |k' - k| nearly
vanishes at phi = 0, a near-singularity at a distance of about
delta = |k' - k| / sqrt(k' k) from the real phi axis, so each k' node
integrates over t in [0, pi] with the sinh map phi = delta sinh(mu t / pi),
mu = asinh(pi / delta), which spreads the nodes near phi = 0 on the
scale delta and tends to the identity for large delta. The angular rule
stops on an estimate of the error of the value it returns (Chebyshev
tail, a guard against aliasing and a rounding floor; see cc_batch), so
most batches end with their first kernel_point call, of 33 points. At
k = 0 the response is the flat-surface force, so response_g returns
plane_force; beyond k z_A = 40 it returns a negligible zero. The k' leg
of the kernel (its Fresnel set and the TM denominator) depends on k'
only, so kernel_point builds it on the k' column and broadcasts it
against the k'' x angle grid; each further Clenshaw-Curtis doubling is a
new kernel_point call, so the leg is rebuilt at every doubling after the
first 33 points.
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
    "ratio",
    "eta_f",
    "g_evaluator",
]

_PREF_PLANE = HBAR / (4.0 * math.pi**2 * EPS0)
_PREF_G = HBAR / (4.0 * math.pi**3 * EPS0)

# Tolerance budget relative to the requested rel_tol: the outer adaptive
# runs at _OUTER_FRAC, inner legs tighter, and the reported error adds a
# _REPORT_PAD-sized allowance for the inner noise floor.
_OUTER_FRAC = 0.5
_INNER_FRAC = 0.25
_ANGULAR_FRAC = 0.05
_REPORT_PAD = 0.3
# Floor of the angular map's scale delta = |k' - k| / sqrt(k' k): below
# it, k' - k is rounding (k' = k exactly gives delta = 0).
_DELTA_MIN = float(np.finfo(float).eps)
# Beyond k z_A = 40, g(k, z_A) cannot be resolved against g(0, z_A) in
# double precision, so response_g returns it as a negligible zero.
_KZ_CUTOFF = 40.0


@dataclass(frozen=True)
class QuadratureSettings:
    """Accuracy and budget knobs shared by all production integrals.

    rel_tol is the target relative error of the full integral; max_panels
    is the panel budget of each xi and k' adaptive integral.
    """

    rel_tol: float = 1e-6
    max_panels: int = 4096

    def __post_init__(self):
        if not 0.0 < self.rel_tol < 1.0:
            raise ValueError("rel_tol must lie in (0, 1)")
        if self.max_panels < 4:
            raise ValueError("panel budget must fit the initial split of 4 panels")


@dataclass(frozen=True)
class IntegralResult:
    """Value with an absolute error estimate.

    ``negligible`` marks results short-circuited to zero because the
    exact value is provably below the error field.
    """

    value: float
    error: float
    negligible: bool = False


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


def _xi_kprime(atom, z_atom, settings, f_row) -> tuple[float, float]:
    """(value, abs error) of the integral over xi of alpha(i xi) times the
    integral over k' of f_row, both on [0, inf).

    The k' integrals of all xi nodes of an outer step run in lock-step as
    rows of one adaptive. Each round calls f_row(xi, k, jac) once: k holds
    one line of k' nodes per working row, jac = dk/dv matches it, and xi
    is the column of those rows' frequencies.
    """
    if not z_atom > 0.0:
        raise ValueError("z_atom must be positive")
    xi0 = C_LIGHT / z_atom
    k0 = 1.0 / z_atom

    def outer(u: np.ndarray) -> np.ndarray:
        # Squares of scalars are taken with pow (float_power), so each
        # node gets the bits a per-node scalar evaluation would.
        xi = xi0 * u / (1.0 - u)
        jac = xi0 / np.float_power(1.0 - u, 2)
        alpha = np.array([polarizability(atom, x) for x in xi])

        def f_k(v: np.ndarray, rows: np.ndarray) -> np.ndarray:
            return f_row(xi[rows], k0 * v / (1.0 - v), k0 / (1.0 - v) ** 2)

        with _layer("kprime", xi):
            inner, _ = adaptive_gauss_rows(
                f_k,
                np.zeros_like(xi),
                np.ones_like(xi),
                _INNER_FRAC * settings.rel_tol,
                max_panels=settings.max_panels,
            )
        return alpha * jac * inner

    with _layer("xi"):
        return adaptive_gauss(
            outer,
            0.0,
            1.0,
            _OUTER_FRAC * settings.rel_tol,
            max_panels=settings.max_panels,
        )


def _result(pref: float, val_err: tuple[float, float], settings) -> IntegralResult:
    val, err = val_err
    value = pref * val
    return IntegralResult(value, pref * err + _REPORT_PAD * settings.rel_tol * abs(value))


def _plane_integral(atom, surface, z_atom, settings, force: bool) -> IntegralResult:
    def f_row(xi: np.ndarray, k: np.ndarray, jac: np.ndarray) -> np.ndarray:
        # One fresnel call per round: the xi column against the k lines.
        fs = fresnel(surface, k, xi)
        xi_c2 = np.float_power(xi / C_LIGHT, 2)
        weight = k if force else k / (2.0 * fs.kappa)
        # Q = (xi^2/c^2)(r_TE - r_TM) - 2 k^2 r_TM; reduces to
        # -2 kappa^2 for the ideal mirror. Negative for any passive
        # surface.
        moment = xi_c2 * (fs.r_te - fs.r_tm) - 2.0 * k**2 * fs.r_tm
        return jac * weight * np.exp(-2.0 * fs.kappa * z_atom) * moment

    return _result(_PREF_PLANE, _xi_kprime(atom, z_atom, settings, f_row), settings)


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

    g is negative and decays at least as fast as e^{-0.8 k z_A} once
    k z_A is large. At k = 0 it is the plane force, and plane_force's
    result is returned. Beyond k z_A = 40 the value is returned as
    exactly zero, flagged negligible, with a closed-form magnitude bound
    as the error.
    """
    settings = settings or QuadratureSettings()
    if not 0.0 <= k_corr < math.inf:
        raise ValueError("k_corr must be finite and non-negative")
    if k_corr == 0.0:
        return plane_force(atom, surface, z_atom, settings)
    if k_corr * z_atom > _KZ_CUTOFF:
        bound = abs(f_cp0(z_atom, polarizability(atom, 0.0))) * rho_cp_perf(
            k_corr * z_atom
        )
        return IntegralResult(0.0, bound, negligible=True)

    angular_tol = _ANGULAR_FRAC * settings.rel_tol
    kernel = a_perfect if surface.is_perfect else a_exact

    def angular(xi: float, kp: np.ndarray) -> np.ndarray:
        # The k' leg goes in as the (n, 1) column, so its optics run once
        # per k' node and broadcast over k'' and phi.
        kp_col = kp[:, None]
        # Sinh map phi = delta sinh(mu t / pi) on t in [0, pi], with
        # mu = asinh(pi / delta) so that t = pi is phi = pi. k'' vanishes
        # near phi = +-i delta, and the map spreads the nodes near phi = 0
        # on that scale (Johnston & Elliott, IJNME 62, 2005). Large delta
        # tends to the identity map; the clip keeps mu finite and nonzero.
        delta = np.clip(
            np.abs(kp_col - k_corr) / np.sqrt(kp_col * k_corr), _DELTA_MIN, 1.0 / _DELTA_MIN
        )
        mu = np.arcsinh(np.pi / delta)

        def f_phi(t: np.ndarray) -> np.ndarray:
            s = mu * (t / np.pi)
            phi = delta * np.sinh(s)
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
            point = kernel_point(surface, xi, kp_col, kpp, cos_d, sin_d)
            return kernel(point, z_atom) * ((mu * delta / np.pi) * np.cosh(s))

        with _layer("phi", xi, kp):
            vals, _ = cc_batch(f_phi, angular_tol)
        return vals

    def f_row(xi: np.ndarray, kp: np.ndarray, jac: np.ndarray) -> np.ndarray:
        # One angular batch per row: its k' nodes at its own scalar xi.
        vals = np.array([angular(x, line) for x, line in zip(xi[:, 0], kp)])
        return jac * kp * vals

    return _result(_PREF_G, _xi_kprime(atom, z_atom, settings, f_row), settings)


def rho(
    atom,
    surface,
    z_atom: float,
    k_corr: float,
    settings: QuadratureSettings | None = None,
) -> IntegralResult:
    """Roll-off rho(k, z_A) = g(k, z_A) / g(0, z_A); 1 at k = 0."""
    g_k = response_g(atom, surface, z_atom, k_corr, settings)
    return ratio(g_k, plane_force(atom, surface, z_atom, settings))


def ratio(num: IntegralResult, den: IntegralResult) -> IntegralResult:
    """num / den with relative errors added. A zero or negligible num
    gives +0, flagged negligible, with error num.error / |den|."""
    if num.negligible or num.value == 0.0:
        return IntegralResult(0.0, num.error / abs(den.value), negligible=True)
    value = num.value / den.value
    error = abs(value) * (num.error / abs(num.value) + den.error / abs(den.value))
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
