"""Atomic response: dynamic polarizability models.

The atom enters the interaction through its dynamic electric
polarizability alpha(i xi) at imaginary frequency (SI units, C m^2 / V).
Tabulated alpha is interpolated by ``optics._pchip``, the in-repo numpy
port of SciPy's monotone cubic (PCHIP) interpolator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .constants import EPS0, HBAR, RB87_ALPHA0_VOLUME, RB87_OMEGA_A
from .optics import _pchip

__all__ = [
    "Transition",
    "StaticPolarizability",
    "SingleOscillatorPolarizability",
    "MultilevelPolarizability",
    "TabulatedPolarizability",
    "polarizability",
    "transitions_for_vdw",
    "rubidium_single_oscillator",
]

FOUR_PI_EPS0 = 4.0 * math.pi * EPS0


class Transition(NamedTuple):
    """One dipole transition: angular frequency (rad/s) and |d| (C m)."""

    omega: float
    dipole: float


@dataclass(frozen=True)
class StaticPolarizability:
    """Frequency-independent alpha; the retarded-limit workhorse."""

    alpha0: float

    def __post_init__(self):
        if not math.isfinite(self.alpha0):
            raise ValueError("alpha0 must be finite")
        if not self.alpha0 > 0.0:
            raise ValueError("alpha0 must be positive")

    def alpha(self, xi):
        return np.full_like(np.asarray(xi, dtype=float), self.alpha0) if np.ndim(xi) else self.alpha0


@dataclass(frozen=True)
class SingleOscillatorPolarizability:
    """alpha(i xi) = alpha0 omega_a^2 / (omega_a^2 + xi^2)."""

    alpha0: float
    omega_a: float

    def __post_init__(self):
        for name in ("alpha0", "omega_a"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not (self.alpha0 > 0.0 and self.omega_a > 0.0):
            raise ValueError("alpha0 and omega_a must be positive")

    def alpha(self, xi):
        xi = np.asarray(xi, dtype=float)
        out = self.alpha0 * self.omega_a**2 / (self.omega_a**2 + xi**2)
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class MultilevelPolarizability:
    """Ground-state sum over transitions.

    alpha(i xi) = (2 / 3 hbar) sum_n omega_n d_n^2 / (omega_n^2 + xi^2)
    """

    transitions: tuple[Transition, ...]

    def __post_init__(self):
        transitions = tuple(Transition(*t) for t in self.transitions)
        object.__setattr__(self, "transitions", transitions)
        if not transitions:
            raise ValueError("need at least one transition")
        for t in transitions:
            if not (math.isfinite(t.omega) and math.isfinite(t.dipole)):
                raise ValueError("transition frequencies and dipoles must be finite")
            if not (t.omega > 0.0 and t.dipole > 0.0):
                raise ValueError("transition frequencies and dipoles must be positive")

    def alpha(self, xi):
        xi = np.asarray(xi, dtype=float)
        out = np.zeros_like(xi)
        for t in self.transitions:
            out = out + t.omega * t.dipole**2 / (t.omega**2 + xi**2)
        out = out * (2.0 / (3.0 * HBAR))
        return out if out.ndim else float(out)


class TabulatedPolarizability:
    """alpha(i xi) samples with monotone cubic interpolation, strict range."""

    def __init__(self, xi: np.ndarray, alpha: np.ndarray):
        xi = np.asarray(xi, dtype=float)
        alpha = np.asarray(alpha, dtype=float)
        if xi.ndim != 1 or xi.size < 2:
            raise ValueError("need at least two samples")
        if not np.all(np.diff(xi) > 0.0) or xi[0] < 0.0:
            raise ValueError("xi grid must be non-negative and ascending")
        if alpha.shape != xi.shape or not np.all(alpha > 0.0):
            raise ValueError("alpha samples must be positive and match xi")
        if np.any(np.diff(alpha) > 0.0):
            raise ValueError("alpha(i xi) must be non-increasing")
        self.xi = xi
        self.alpha_samples = alpha
        self._interp = _pchip(xi, alpha)

    def alpha(self, xi):
        xi_arr = np.atleast_1d(np.asarray(xi, dtype=float))
        if np.any(xi_arr < self.xi[0]) or np.any(xi_arr > self.xi[-1]):
            raise ValueError(
                f"xi outside tabulated range [{self.xi[0]:.6e}, {self.xi[-1]:.6e}]"
            )
        out = self._interp(xi_arr)
        return float(out[0]) if np.ndim(xi) == 0 else out


def polarizability(model, xi):
    return model.alpha(xi)


def transitions_for_vdw(model) -> tuple[Transition, ...]:
    """Transition list equivalent to the model, for the short-distance formulas.

    A single oscillator maps exactly onto one transition with
    d^2 = 3 hbar omega_a alpha0 / 2; static or tabulated models carry no
    transition structure and are rejected.
    """
    if isinstance(model, MultilevelPolarizability):
        return model.transitions
    if isinstance(model, SingleOscillatorPolarizability):
        dipole = math.sqrt(1.5 * HBAR * model.omega_a * model.alpha0)
        return (Transition(model.omega_a, dipole),)
    raise ValueError(
        f"{type(model).__name__} has no transition decomposition"
    )


def rubidium_single_oscillator() -> SingleOscillatorPolarizability:
    """Ground-state Rb-87: alpha0/(4 pi eps0) = 47.3e-30 m^3, D2 line 780 nm."""
    return SingleOscillatorPolarizability(
        alpha0=FOUR_PI_EPS0 * RB87_ALPHA0_VOLUME,
        omega_a=RB87_OMEGA_A,
    )
