"""Surface optics on the imaginary frequency axis.

Permittivity models eps(i xi), Fresnel coefficients for a planar
interface, and the Kramers-Kronig transform that turns measured real-axis
absorption data Im eps(omega) into eps(i xi). The transform integrates
the PCHIP interpolant of the data in closed form, segment by segment, so
it is exact for the interpolant up to rounding and takes no tolerance.

Measured data, real-axis ``omega_rad_s,eps_imag`` or imaginary-axis
``xi_rad_s,eps_i_xi``, comes in as two-column CSV through one reader,
which rejects a malformed file with a ValueError naming it. Tables are
interpolated by ``_pchip``, an in-repo numpy port of SciPy's monotone
cubic (PCHIP) interpolator, so importing cpsurf does not import scipy.

Everything is evaluated at imaginary frequency omega = i xi with xi > 0,
the domain of the zero-temperature frequency integral, where eps is real
and >= 1 for passive media and all integrands that use these quantities
are smooth and sign-definite. ``decay_constants``, which ``fresnel`` and
the kernel call, rejects xi <= 0 (and NaN).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .constants import (
    C_LIGHT,
    GOLD_OMEGA_P,
    SILICON_EPS_STATIC,
    SILICON_OMEGA_DL,
)

__all__ = [
    "PerfectConductor",
    "PlasmaMetal",
    "DrudeLorentz",
    "TabulatedPermittivity",
    "FresnelSet",
    "RealAxisOpticalData",
    "decay_constants",
    "fresnel",
    "kramers_kronig_imaginary_axis",
    "read_optical_csv",
    "read_imaginary_axis_csv",
    "gold_plasma",
    "silicon_drude_lorentz",
]


def _pchip_cubic(x, y):
    """Interval widths h and the local cubic of the monotone piecewise-cubic
    Hermite interpolant (PCHIP) through the samples y at the strictly
    ascending nodes x: on interval i, in s = q - x[i], it is
    c0 s^3 + c1 s^2 + c2 s + c3, with (c0, c1, c2, c3) = c[:, i].

    A port of SciPy's PCHIP interpolator (Fritsch-Butland slopes):
    an interior slope is the weighted harmonic mean of its two secants, or
    0 where they change sign or either is 0; the end slopes use the
    one-sided three-point formula, set to 0 where its sign differs from the
    end secant's and to 3x that secant where it would overshoot; two
    samples give the straight line. The coefficients are SciPy's.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    h = np.diff(x)
    m = np.diff(y) / h
    if x.size == 2:
        d = np.array([m[0], m[0]])
    else:
        d = np.zeros_like(y)
        w1 = 2.0 * h[1:] + h[:-1]
        w2 = h[1:] + 2.0 * h[:-1]
        keep = (np.sign(m[1:]) == np.sign(m[:-1])) & (m[1:] != 0.0) & (m[:-1] != 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
        d[1:-1][keep] = 1.0 / whmean[keep]
        d[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
        d[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
    t = (d[:-1] + d[1:] - 2.0 * m) / h
    return h, np.array([t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]])


def _pchip(x, y):
    """The PCHIP interpolant of ``_pchip_cubic`` as a function of an array
    of query points.

    The local cubic is summed by powers of s in SciPy's order, which
    matched SciPy 1.17's values bit for bit. Queries outside
    [x[0], x[-1]] take the end cubic, so a node one ulp past the table
    stays on it.
    """
    x = np.asarray(x, dtype=float)
    _, (c0, c1, c2, c3) = _pchip_cubic(x, y)
    inner = x[1:-1]

    def evaluate(q):
        q = np.asarray(q, dtype=float)
        # Interval index: interior nodes <= q, so the end intervals also
        # take the queries beyond them.
        i = np.searchsorted(inner, q, side="right")
        s = q - x[i]
        return c3[i] + c2[i] * s + c1[i] * (s * s) + c0[i] * (s * s * s)

    return evaluate


def _pchip_end_slope(h0, h1, m0, m1):
    """End slope of ``_pchip`` from the two end intervals h0, h1 and their
    secants m0, m1 (h0, m0 the outermost)."""
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


@dataclass(frozen=True)
class PerfectConductor:
    """Ideal mirror: r_TE = -1, r_TM = +1 exactly at every (k, xi).

    A first-class variant, not a large-eps limit: callers must branch on
    ``is_perfect`` instead of evaluating a permittivity.
    """

    is_perfect: bool = field(default=True, init=False, repr=False)

    def eps(self, xi):
        raise ValueError(
            "perfect conductor has no finite permittivity; "
            "branch on is_perfect and use the exact reflection limits"
        )

    def eps_times_xi2(self, xi):
        self.eps(xi)


@dataclass(frozen=True)
class PlasmaMetal:
    """Collisionless-metal model eps(i xi) = 1 + omega_p^2 / xi^2."""

    omega_p: float

    is_perfect: bool = field(default=False, init=False, repr=False)

    def __post_init__(self):
        if not math.isfinite(self.omega_p):
            raise ValueError("omega_p must be finite")
        if not self.omega_p > 0.0:
            raise ValueError("omega_p must be positive")

    def eps(self, xi):
        xi = np.asarray(xi, dtype=float)
        # eps overflows to inf at tiny xi (xi**2 underflows to 0 or
        # omega_p^2 / xi^2 exceeds the float range): the saturated plasma.
        with np.errstate(divide="ignore", over="ignore"):
            out = 1.0 + self.omega_p**2 / xi**2
        return out if out.ndim else float(out)

    def eps_times_xi2(self, xi):
        # Stays finite at tiny xi, where eps = 1 + omega_p^2/xi^2 overflows.
        xi = np.asarray(xi, dtype=float)
        out = xi**2 + self.omega_p**2
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class DrudeLorentz:
    """Single-resonance dielectric.

    eps(i xi) = 1 + (eps_static - 1) omega_dl^2 / (omega_dl^2 + xi^2),
    which interpolates between eps_static at xi = 0 and vacuum at high xi.
    """

    omega_dl: float
    eps_static: float

    is_perfect: bool = field(default=False, init=False, repr=False)

    def __post_init__(self):
        for name in ("omega_dl", "eps_static"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not self.omega_dl > 0.0:
            raise ValueError("omega_dl must be positive")
        if not self.eps_static >= 1.0:
            raise ValueError("eps_static must be >= 1")

    def eps(self, xi):
        xi = np.asarray(xi, dtype=float)
        out = 1.0 + (self.eps_static - 1.0) * self.omega_dl**2 / (
            self.omega_dl**2 + xi**2
        )
        return out if out.ndim else float(out)

    def eps_times_xi2(self, xi):
        xi = np.asarray(xi, dtype=float)
        out = xi**2 * self.eps(xi)
        return out if out.ndim else float(out)


class TabulatedPermittivity:
    """eps(i xi) sampled on an ascending xi > 0 grid.

    Interpolation is monotone cubic (PCHIP, the in-repo ``_pchip`` port of
    SciPy's) in log xi vs log(eps - 1), so interpolated values stay >= 1
    and follow power-law segments exactly.
    Out-of-range queries raise unless an extrapolation mode is declared:

    * ``extrapolate_low``: "strict", "constant" (dielectric plateau) or
      "inverse_square" (metallic eps - 1 ~ A / xi^2)
    * ``extrapolate_high``: "strict" or "inverse_square" (universal
      eps - 1 ~ B / xi^2 falloff)
    """

    is_perfect = False

    def __init__(
        self,
        xi: np.ndarray,
        eps: np.ndarray,
        extrapolate_low: str = "strict",
        extrapolate_high: str = "strict",
    ):
        xi = np.asarray(xi, dtype=float)
        eps = np.asarray(eps, dtype=float)
        if xi.ndim != 1 or xi.size < 2:
            raise ValueError("need at least two xi samples")
        if not np.all(np.diff(xi) > 0.0):
            raise ValueError("xi grid must be strictly ascending")
        if not xi[0] > 0.0:
            raise ValueError("xi samples must be positive")
        if eps.shape != xi.shape:
            raise ValueError("xi and eps shapes differ")
        if not np.all(eps > 1.0):
            raise ValueError("tabulated eps(i xi) must exceed 1")
        if extrapolate_low not in ("strict", "constant", "inverse_square"):
            raise ValueError(f"unknown extrapolate_low {extrapolate_low!r}")
        if extrapolate_high not in ("strict", "inverse_square"):
            raise ValueError(f"unknown extrapolate_high {extrapolate_high!r}")
        self.xi = xi
        self.eps_samples = eps
        self.extrapolate_low = extrapolate_low
        self.extrapolate_high = extrapolate_high
        # eps - 1 = a_low / xi^2 on the inverse-square low tail.
        self._a_low = (eps[0] - 1.0) * xi[0] ** 2
        self._interp = _pchip(np.log(xi), np.log(eps - 1.0))

    def eps(self, xi):
        scalar = np.ndim(xi) == 0
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        out = np.empty_like(xi)
        lo, hi = self.xi[0], self.xi[-1]
        below = xi < lo
        above = xi > hi
        # NaN is in neither end range: it takes the interpolant, NaN out.
        inside = ~(below | above)
        if np.any(below):
            if self.extrapolate_low == "strict":
                raise ValueError(
                    f"xi = {xi[below].min():.6e} below tabulated range "
                    f"[{lo:.6e}, {hi:.6e}] and no extrapolation declared"
                )
            if self.extrapolate_low == "constant":
                out[below] = self.eps_samples[0]
            else:
                # eps overflows to inf at tiny xi; eps_times_xi2 stays finite.
                with np.errstate(divide="ignore", over="ignore"):
                    out[below] = 1.0 + self._a_low / xi[below] ** 2
        if np.any(above):
            if self.extrapolate_high == "strict":
                raise ValueError(
                    f"xi = {xi[above].max():.6e} above tabulated range "
                    f"[{lo:.6e}, {hi:.6e}] and no extrapolation declared"
                )
            b_high = (self.eps_samples[-1] - 1.0) * hi**2
            out[above] = 1.0 + b_high / xi[above] ** 2
        if np.any(inside):
            out[inside] = 1.0 + np.exp(self._interp(np.log(xi[inside])))
        return float(out[0]) if scalar else out

    def eps_times_xi2(self, xi):
        xi = np.asarray(xi, dtype=float)
        xi2 = xi**2
        out = xi2 * self.eps(xi)
        if self.extrapolate_low == "inverse_square":
            # xi^2 + a_low stays finite at tiny xi, where eps overflows.
            out = np.where(xi < self.xi[0], xi2 + self._a_low, out)
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class FresnelSet:
    """Reflection amplitudes and decay constants at one (k, xi).

    kappa   = sqrt(xi^2/c^2 + k^2)            vacuum-side decay constant
    kappa_t = sqrt(k^2 + eps(i xi) xi^2/c^2)  medium-side decay constant

    r_te = (kappa - kappa_t) / (kappa + kappa_t)
    r_tm = (eps kappa - kappa_t) / (eps kappa + kappa_t)

    There are no transmission amplitudes: the first-order kernel cancels
    them symbolically (kernel.a_exact), and nothing else reads them.
    """

    r_te: object
    r_tm: object
    kappa: object
    kappa_t: object


def decay_constants(model, k, xi):
    """Decay constants (kappa, kappa_t) at wavenumber(s) k and imaginary
    frequency xi, with kappa_t = inf for a perfect conductor.

    k (m^-1) and xi (rad/s) are scalars or arrays that broadcast against
    each other, every k >= 0 and every xi > 0; anything else (NaN too) is
    a ValueError. This is the one place those checks are made: ``fresnel``
    and the kernel both come here. The results have the broadcast shape.
    The model is evaluated on xi's own shape before broadcasting, so a
    column of xi against a k matrix costs one eps per row. (xi/c)^2 is
    taken with the same pow for array and scalar xi, so an array-xi call
    matches scalar-xi calls bit for bit wherever the model's own eps(xi)
    does.
    """
    k = np.asarray(k, dtype=float)
    if np.ndim(xi) == 0:
        positive = xi > 0.0
        xi_c2 = (xi / C_LIGHT) ** 2
    else:
        xi = np.asarray(xi, dtype=float)
        positive = (xi > 0.0).all()
        xi_c2 = np.float_power(xi / C_LIGHT, 2)
    if not positive:
        raise ValueError("xi must be positive")
    if (k < 0.0).any():
        raise ValueError("wavenumbers must be non-negative")
    k2 = k**2
    kappa = np.sqrt(xi_c2 + k2)
    if getattr(model, "is_perfect", False):
        # A read-only broadcast view: no per-element fill.
        return kappa, np.broadcast_to(np.inf, np.shape(kappa))
    return kappa, np.sqrt(k2 + model.eps_times_xi2(xi) / C_LIGHT**2)


def fresnel(model, k, xi) -> FresnelSet:
    """Fresnel set at transverse wavenumber(s) k and imaginary frequency xi.

    Arguments, checks and shapes are those of ``decay_constants``; the
    result is floats when k and xi are both scalars.
    """
    scalar = np.ndim(xi) == 0 and np.ndim(k) == 0
    kappa, kappa_t = decay_constants(model, k, xi)
    if getattr(model, "is_perfect", False):
        # Constants on kappa's shape as read-only broadcast views.
        shape = np.shape(kappa)
        fs = FresnelSet(np.broadcast_to(-1.0, shape), np.broadcast_to(1.0, shape), kappa, kappa_t)
    else:
        eps = model.eps(xi)
        r_te = (kappa - kappa_t) / (kappa + kappa_t)
        if isinstance(eps, float) and not math.isinf(eps):
            r_tm = (eps * kappa - kappa_t) / (eps * kappa + kappa_t)
        else:
            # A plasma eps overflows to inf at tiny xi (omega_p^2 / xi^2):
            # TM saturates (r = 1) while TE stays partial.
            saturated = np.isinf(eps)
            with np.errstate(invalid="ignore"):
                r_tm = np.where(
                    saturated, 1.0, (eps * kappa - kappa_t) / (eps * kappa + kappa_t)
                )
        fs = FresnelSet(r_te, r_tm, kappa, kappa_t)
    if scalar:
        return FresnelSet(*(float(np.asarray(v).reshape(())) for v in fs.__dict__.values()))
    return fs


@dataclass(frozen=True)
class RealAxisOpticalData:
    """Measured absorption spectrum Im eps(omega) on the real axis.

    ``drude_omega_p`` / ``drude_gamma`` (both or neither) declare the
    metallic low-frequency continuation Im eps = omega_p^2 gamma /
    (omega (omega^2 + gamma^2)) below the first sample. Above the last
    sample a 1/omega^3 falloff matched to the endpoint is assumed, which
    requires the data not to grow at the top of the range.
    """

    omega: np.ndarray
    eps_imag: np.ndarray
    drude_omega_p: float | None = None
    drude_gamma: float | None = None

    def __post_init__(self):
        omega = np.asarray(self.omega, dtype=float)
        eps_imag = np.asarray(self.eps_imag, dtype=float)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "eps_imag", eps_imag)
        if omega.ndim != 1 or omega.size < 3:
            raise ValueError("need at least three (omega, eps_imag) samples")
        if not np.all(np.diff(omega) > 0.0) or not omega[0] > 0.0:
            raise ValueError("omega grid must be positive and strictly ascending")
        if eps_imag.shape != omega.shape or np.any(eps_imag < 0.0):
            raise ValueError("eps_imag must be non-negative and match omega")
        if (self.drude_omega_p is None) != (self.drude_gamma is None):
            raise ValueError("declare both Drude parameters or neither")
        if self.drude_omega_p is not None:
            if not (0.0 < self.drude_omega_p < math.inf and 0.0 < self.drude_gamma < math.inf):
                raise ValueError("Drude parameters must be positive and finite")
        if eps_imag[-1] > eps_imag[-2]:
            raise ValueError(
                "eps_imag grows at the top of the range; "
                "cannot attach a decaying high-frequency tail"
            )


def _drude_segment(omega1: float, omega_p: float, gamma: float, xi: float) -> float:
    """Integral of omega ImepsDrude / (omega^2 + xi^2) over (0, omega1]."""
    if xi == 0.0:
        raise ValueError(
            "eps(i0) diverges for a Drude metal; evaluate at xi > 0"
        )
    if abs(xi - gamma) > 1e-9 * gamma:
        # (xi - gamma)(xi + gamma) overflows to inf, not OverflowError, where
        # xi^2 would: the segment then vanishes, as it does in the limit.
        return (
            omega_p**2
            * gamma
            / ((xi - gamma) * (xi + gamma))
            * (math.atan(omega1 / gamma) / gamma - math.atan(omega1 / xi) / xi)
        )
    # xi ~ gamma: use the confluent antiderivative of 1/(omega^2+gamma^2)^2.
    return omega_p**2 * gamma * (
        omega1 / (2.0 * gamma**2 * (omega1**2 + gamma**2))
        + math.atan(omega1 / gamma) / (2.0 * gamma**3)
    )


def _tail_segment(omega_n: float, eps_imag_n: float, xi: float) -> float:
    """Integral over [omega_n, inf) with Im eps = eps_imag_n (omega_n/omega)^3."""
    if xi < 1e-3 * omega_n:
        # Series in (xi/omega_n)^2 avoids cancellation.
        r2 = (xi / omega_n) ** 2
        return eps_imag_n * (1.0 / 3.0 - r2 / 5.0 + r2**2 / 7.0)
    # In r = omega_n / xi, which stays finite where xi^2 would overflow.
    r = omega_n / xi
    return eps_imag_n * r * r * (1.0 - r * (math.pi / 2.0 - math.atan(r)))


# A segment whose |h / (omega_i + i xi)| is below this bound is summed as a
# power series; at or above it, by the log1p recurrence, whose rounding
# grows like |(omega_i + i xi) / h|^3 <= 64. numpy's complex log1p(q) is
# log(1 + q), which is accurate only where |q| is not small.
_SERIES_MAX_RATIO = 0.25


def _series_terms(r: float) -> int:
    """Terms of the series in q = h / (omega_i + i xi) that leave its
    remainder below 2^-53 of the first term for every |q| <= r; the
    moments of a non-negative cubic decrease with n, so r^n / (1 - r)
    bounds it."""
    if r == 0.0:
        return 1
    return math.ceil(math.log(2.0**-53 * (1.0 - r)) / math.log(r))


def _segment_integrals(lo, h, a, moments, x: float) -> np.ndarray:
    """Int omega P(omega) / (omega^2 + xi^2) over every data segment
    [lo, lo + h] at xi = x, for the cubic P(lo + h t) = sum_k a[k] t^k.

    omega / (omega^2 + xi^2) = Re 1 / (omega + i xi), so each segment is
    Re sum_k a[k] J_k with J_k = Int_0^1 t^k / (t + c) dt and
    c = (lo + i x) / h = 1 / q. Where |q| is small,
    sum_k a[k] J_k = sum_n moments[n] (-1)^n q^(n+1), by Horner; elsewhere
    J_0 = log1p(q) and J_k = 1/k - c J_(k-1).
    """
    q = h / (lo + 1j * x)
    r = np.abs(q)
    far = r < _SERIES_MAX_RATIO
    qf = np.where(far, q, 0.0)
    m = moments[: _series_terms(float(np.max(r, where=far, initial=0.0)))]
    acc = m[-1]
    for row in m[-2::-1]:
        acc = row - qf * acc
    out = (qf * acc).real
    near = ~far
    if near.any():
        c = (lo[near] + 1j * x) / h[near]
        j = np.log1p(q[near])
        total = a[0][near] * j
        for k in (1, 2, 3):
            j = 1.0 / k - c * j
            total = total + a[k][near] * j
        out[near] = total.real
    return out


def kramers_kronig_imaginary_axis(data: RealAxisOpticalData, xi) -> np.ndarray:
    """eps(i xi) = 1 + (2/pi) Int_0^inf omega Im eps(omega) / (omega^2 + xi^2) domega.

    Over the data the integrand is the PCHIP interpolant of Im eps, a cubic
    on each segment, so the integral has a closed form per segment
    (``_segment_integrals``); the Drude continuation below the data and
    the 1/omega^3 tail above it are closed forms too. The result is the
    exact integral of the interpolant up to rounding, with no tolerance.
    Each xi sums its own segment array with one ``np.sum``, then adds the
    Drude and tail segments, so its value has the same bits whatever
    other xi come in the same call.
    """
    xi_arr = np.atleast_1d(np.asarray(xi, dtype=float))
    if not np.all(np.isfinite(xi_arr) & (xi_arr >= 0.0)):
        raise ValueError("xi must be finite and non-negative")
    omega = data.omega
    h, (c0, c1, c2, c3) = _pchip_cubic(omega, data.eps_imag)
    # The cubic in t = (omega - omega_i) / h on [0, 1], and its moments
    # Int_0^1 P(t) t^n dt.
    a = (c3, c2 * h, c1 * h**2, c0 * h**3)
    moments = np.array(
        [
            a[0] / (n + 1) + a[1] / (n + 2) + a[2] / (n + 3) + a[3] / (n + 4)
            for n in range(_series_terms(_SERIES_MAX_RATIO))
        ]
    )
    lo = omega[:-1]
    tail_eps = float(data.eps_imag[-1])
    out = np.empty_like(xi_arr)
    for i, x in enumerate(xi_arr.tolist()):
        total = float(np.sum(_segment_integrals(lo, h, a, moments, x)))
        if data.drude_omega_p is not None:
            total += _drude_segment(omega[0], data.drude_omega_p, data.drude_gamma, x)
        total += _tail_segment(omega[-1], tail_eps, x)
        out[i] = 1.0 + (2.0 / math.pi) * total
    return out if np.ndim(xi) else float(out[0])


def _read_two_columns(path: str | Path, header: str) -> tuple[np.ndarray, dict[str, float]]:
    """Data rows of a two-column CSV file as an (n, 2) array, and the
    numeric ``# key=value`` comment lines as a dict.

    Blank and ``#`` lines are not data, and a line equal to ``header``
    is skipped (the header is optional). Every other line must be two
    cells, each a finite number; any other line, or a file without data
    rows, is a ValueError that names the file.
    """
    meta: dict[str, float] = {}
    rows: list[list[float]] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("#"):
                key, eq, value = line.lstrip("#").partition("=")
                if eq:
                    try:
                        meta[key.strip()] = float(value)
                    except ValueError:
                        pass
                continue
            cells = [cell.strip() for cell in line.split(",")]
            if not line or cells == header.split(","):
                continue
            try:
                row = [float(cell) for cell in cells]
            except ValueError:
                row = []
            if len(row) != 2 or not all(map(math.isfinite, row)):
                raise ValueError(f"{path}: want two finite numbers per row, got {line!r}")
            rows.append(row)
    if not rows:
        raise ValueError(f"no data rows in {path}")
    return np.array(rows), meta


def read_optical_csv(path: str | Path) -> RealAxisOpticalData:
    """Read `omega_rad_s,eps_imag` rows; `# key=value` lines carry metadata."""
    rows, meta = _read_two_columns(path, "omega_rad_s,eps_imag")
    return RealAxisOpticalData(
        omega=rows[:, 0],
        eps_imag=rows[:, 1],
        drude_omega_p=meta.get("drude_omega_p"),
        drude_gamma=meta.get("drude_gamma"),
    )


def read_imaginary_axis_csv(
    path: str | Path,
    extrapolate_low: str = "strict",
    extrapolate_high: str = "strict",
) -> TabulatedPermittivity:
    """Read `xi_rad_s,eps_i_xi` rows.

    A table the model rejects (fewer than two samples, a sample at
    xi <= 0, xi not ascending, eps <= 1) is a ValueError that names the
    file.
    """
    rows, _ = _read_two_columns(path, "xi_rad_s,eps_i_xi")
    try:
        return TabulatedPermittivity(
            rows[:, 0],
            rows[:, 1],
            extrapolate_low=extrapolate_low,
            extrapolate_high=extrapolate_high,
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def gold_plasma() -> PlasmaMetal:
    """Default gold surface: plasma model, lambda_p = 136 nm."""
    return PlasmaMetal(GOLD_OMEGA_P)


def silicon_drude_lorentz() -> DrudeLorentz:
    """Default silicon surface: eps_static = 11.87, omega_dl = 6.6e15 rad/s."""
    return DrudeLorentz(SILICON_OMEGA_DL, SILICON_EPS_STATIC)
