"""Adaptive panel quadrature used by the production integrals.

Two building blocks:

* ``adaptive_gauss`` -- h-adaptive Gauss-Legendre on a finite interval.
  Each panel is evaluated with an n-point and a 2n-point rule; the
  difference is the panel error estimate and the worst panel is bisected
  until the summed estimate meets the tolerance. Every panel of a step
  (the initial split, or both halves of a bisection) is evaluated in one
  integrand call on the flattened (panels x both rules) abscissae, so an
  integrand that batches its own work sees a few large arrays rather than
  many small ones.
* ``cc_batch`` -- nested Clenshaw-Curtis with node doubling, applied to a
  whole batch of integrands at once (the angular integral for every k'
  node of a panel in one numpy call).

Both are deterministic: fixed node sets, worst-first splitting with a
stable tie-break, and a position-ordered compensated final sum.
"""

from __future__ import annotations

import heapq
import math
from functools import lru_cache
from typing import Callable

import numpy as np


class ConvergenceError(RuntimeError):
    """Quadrature failed to reach the requested tolerance.

    Carries the achieved absolute error estimate and the best value so the
    caller can report how far the run got. ``layer`` ("xi", "kprime" or
    "phi") and ``xi`` (the frequency node of an inner-layer failure, rad/s)
    are filled in by the caller that knows which integral a rule served;
    both stay None when a rule is used on its own.
    """

    def __init__(self, message: str, value: float, achieved_abs_err: float):
        super().__init__(message)
        self.value = value
        self.achieved_abs_err = achieved_abs_err
        self.layer: str | None = None
        self.xi: float | None = None


@lru_cache(maxsize=32)
def _gl_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def _panel_estimates(
    f: Callable[[np.ndarray], np.ndarray],
    los,
    his,
    n_low: int,
    n_high: int,
) -> list[tuple[float, float]]:
    """(value, abs error estimate) of each panel [los[i], his[i]].

    One call of ``f`` receives every panel's n_high then n_low nodes as a
    flat array; each row is reduced on its own, so a pointwise integrand
    gives the same bits as evaluating the panels one rule at a time.
    """
    los = np.asarray(los, dtype=float)
    his = np.asarray(his, dtype=float)
    mids = 0.5 * (los + his)
    halves = 0.5 * (his - los)
    x_lo, w_lo = _gl_rule(n_low)
    x_hi, w_hi = _gl_rule(n_high)
    x = mids[:, None] + halves[:, None] * np.concatenate((x_hi, x_lo))
    fx = np.reshape(f(x.ravel()), x.shape)
    out = []
    for half, row in zip(halves, fx):
        i_hi = half * float(np.dot(w_hi, row[:n_high]))
        i_lo = half * float(np.dot(w_lo, row[n_high:]))
        out.append((i_hi, abs(i_hi - i_lo)))
    return out


def adaptive_gauss(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    rel_tol: float,
    abs_tol: float = 0.0,
    max_panels: int = 4096,
    n_low: int = 8,
    n_high: int = 16,
    initial_panels: int = 4,
) -> tuple[float, float]:
    """Integrate ``f`` over [a, b]; returns (value, abs error estimate).

    ``f`` must accept a numpy array of abscissae and return the integrand
    at each; it is called once for the initial panels and once per
    bisection. Raises ConvergenceError if the panel budget runs out first.
    """
    if not b > a:
        raise ValueError("integration interval must have b > a")
    edges = np.linspace(a, b, initial_panels + 1)
    heap: list[tuple[float, int, float, float, float, float]] = []
    counter = 0
    estimates = _panel_estimates(f, edges[:-1], edges[1:], n_low, n_high)
    for lo, hi, (val, err) in zip(edges[:-1], edges[1:], estimates):
        heap.append((-err, counter, lo, hi, val, err))
        counter += 1
    heapq.heapify(heap)

    n_panels = initial_panels
    while True:
        total = math.fsum(item[4] for item in heap)
        total_err = math.fsum(item[5] for item in heap)
        if total_err <= max(abs_tol, rel_tol * abs(total)):
            break
        if n_panels >= max_panels:
            raise ConvergenceError(
                f"quadrature did not converge: {n_panels} panels, "
                f"abs err estimate {total_err:.3e} vs target "
                f"{max(abs_tol, rel_tol * abs(total)):.3e}",
                total,
                total_err,
            )
        _, _, lo, hi, _, _ = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        estimates = _panel_estimates(f, (lo, mid), (mid, hi), n_low, n_high)
        for seg_lo, seg_hi, (val, err) in zip((lo, mid), (mid, hi), estimates):
            heapq.heappush(heap, (-err, counter, seg_lo, seg_hi, val, err))
            counter += 1
        n_panels += 1

    ordered = sorted(heap, key=lambda item: item[2])
    value = math.fsum(item[4] for item in ordered)
    err = math.fsum(item[5] for item in ordered)
    return value, err


@lru_cache(maxsize=16)
def _cc_rule(n_half: int) -> tuple[np.ndarray, np.ndarray]:
    """Clenshaw-Curtis nodes/weights with n_half*2+1 points on [-1, 1]."""
    n = 2 * n_half
    j = np.arange(n + 1)
    x = np.cos(j * np.pi / n)
    m = np.arange(1, n_half + 1)
    b = np.where(m == n_half, 1.0, 2.0)
    cos_table = np.cos(2.0 * np.outer(j, m) * np.pi / n)
    w = (2.0 / n) * (1.0 - cos_table @ (b / (4.0 * m**2 - 1.0)))
    w[0] *= 0.5
    w[-1] *= 0.5
    return x, w


def cc_batch(
    f: Callable[[np.ndarray], np.ndarray],
    rel_tol: float,
    min_half: int = 8,
    max_half: int = 512,
) -> tuple[np.ndarray, float]:
    """Integrate a batch of smooth integrands over [0, pi].

    ``f(phi)`` must return an array whose last axis matches ``phi``.
    Doubles the Clenshaw-Curtis order until the worst batch element moves
    by less than rel_tol of the largest magnitude; returns (values, max
    abs change at the final doubling).
    """
    n_half = min_half
    x, w = _cc_rule(n_half)
    phi = 0.5 * np.pi * (x + 1.0)
    fx = f(phi)
    vals = 0.5 * np.pi * (fx @ w)
    while True:
        n_half *= 2
        x, w = _cc_rule(n_half)
        phi = 0.5 * np.pi * (x + 1.0)
        fx_new = np.empty(fx.shape[:-1] + (2 * n_half + 1,), dtype=fx.dtype)
        fx_new[..., ::2] = fx
        fx_new[..., 1::2] = f(phi[1::2])
        fx = fx_new
        new_vals = 0.5 * np.pi * (fx @ w)
        delta = float(np.max(np.abs(new_vals - vals)))
        vals = new_vals
        scale = float(np.max(np.abs(vals)))
        if delta <= rel_tol * scale or scale == 0.0:
            return vals, delta
        if n_half >= max_half:
            raise ConvergenceError(
                f"angular quadrature did not converge: {2 * n_half + 1} "
                f"points, last change {delta:.3e} vs target "
                f"{rel_tol * scale:.3e}",
                float(vals.flat[0]) if vals.size else 0.0,
                delta,
            )
