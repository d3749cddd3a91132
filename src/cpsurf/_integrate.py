"""Adaptive panel quadrature used by the production integrals.

Two building blocks:

* ``adaptive_gauss_rows`` -- h-adaptive Gauss-Legendre run on many
  independent integrals ("rows") in lock-step. Each panel is evaluated
  with an n-point and a 2n-point rule; the difference is the panel error
  estimate and each row bisects its own worst panel until its summed
  estimate meets the tolerance. Every round makes one integrand call that
  covers the panels of every unconverged row (the initial split of all
  rows, then both halves of each row's bisection), so an integrand that
  batches its own work sees a few large arrays rather than many small
  ones. ``adaptive_gauss`` is the one-row case.
* ``cc_batch`` -- nested Clenshaw-Curtis with node doubling, applied to a
  whole batch of integrands at once (the angular integral for every k'
  node of a panel in one numpy call).

Both are deterministic: fixed node sets, worst-first splitting with a
stable tie-break and correctly rounded (``math.fsum``) totals. A row's
panels, splits and totals never depend on the other rows, so it gets the
same bits in lock-step as integrated alone.
"""

from __future__ import annotations

import heapq
import itertools
import math
from functools import lru_cache
from typing import Callable

import numpy as np


class ConvergenceError(RuntimeError):
    """Quadrature failed to reach the requested tolerance.

    Carries the achieved absolute error estimate and the best value so the
    caller can report how far the run got. ``row`` is the index of the
    failing row of a lock-step or batch rule (0 for a single integral).
    ``layer`` ("xi", "kprime" or "phi"), ``xi`` (the frequency node of an
    inner-layer failure, rad/s) and ``kp`` (the k' node of an angular
    failure, 1/m) are filled in by the caller that knows which integral a
    rule served; they stay None when a rule is used on its own.
    """

    def __init__(
        self, message: str, value: float, achieved_abs_err: float, row: int = 0
    ):
        super().__init__(message)
        self.value = value
        self.achieved_abs_err = achieved_abs_err
        self.row = row
        self.layer: str | None = None
        self.xi: float | None = None
        self.kp: float | None = None


@lru_cache(maxsize=8)
def _gl_pair(n_low: int, n_high: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes of both rules (n_high first) and each rule's
    weight column."""
    x_lo, w_lo = np.polynomial.legendre.leggauss(n_low)
    x_hi, w_hi = np.polynomial.legendre.leggauss(n_high)
    return np.concatenate((x_hi, x_lo)), w_hi[:, None], w_lo[:, None]


def _panel_estimates(
    f: Callable[[np.ndarray], np.ndarray],
    los,
    his,
    n_low: int,
    n_high: int,
) -> list[tuple[float, float]]:
    """(value, abs error estimate) of each panel [los[i], his[i]].

    One call of ``f`` receives every panel's n_high then n_low nodes as a
    flat array. Each panel is reduced by its own dot product (a stack of
    1 x n products, which numpy hands to the same BLAS dot as ``np.dot``),
    so a pointwise integrand gives the same bits as evaluating the panels
    one rule at a time.
    """
    los = np.asarray(los, dtype=float)
    his = np.asarray(his, dtype=float)
    mids = 0.5 * (los + his)
    halves = 0.5 * (his - los)
    nodes, w_hi, w_lo = _gl_pair(n_low, n_high)
    x = mids[:, None] + halves[:, None] * nodes
    fx = np.reshape(f(x.ravel()), x.shape)[:, None, :]
    i_hi = halves * np.matmul(fx[..., :n_high], w_hi)[:, 0, 0]
    i_lo = halves * np.matmul(fx[..., n_high:], w_lo)[:, 0, 0]
    return list(zip(i_hi.tolist(), np.abs(i_hi - i_lo).tolist()))


def adaptive_gauss_rows(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    a,
    b,
    rel_tol: float,
    abs_tol: float = 0.0,
    max_panels: int = 4096,
    n_low: int = 8,
    n_high: int = 16,
    initial_panels: int = 4,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate many independent rows over [a[r], b[r]] in lock-step.

    ``a`` and ``b`` are scalars or per-row 1-D arrays (broadcast against
    each other); returns (values, abs error estimates), one per row. Each
    round calls ``f(x, rows)`` once: ``x`` has one line per row still
    working, holding the abscissae of that row's new panels, and ``rows``
    is the int column of those rows' indices, so per-row data gathered as
    ``data[rows]`` broadcasts against ``x``. ``f`` returns the integrand
    at ``x`` (same shape). Every row keeps its own panel heap, worst-first
    tie-break, ``fsum`` totals and ``max_panels`` budget, so its result
    does not depend on the other rows. Raises ConvergenceError, with
    ``row`` set, for the lowest-index row that runs out of panels.
    """
    if np.ndim(a) > 1 or np.ndim(b) > 1:
        raise ValueError("interval bounds must be scalars or 1-D arrays")
    a = np.asarray(a, dtype=float).reshape(-1, 1)
    b = np.asarray(b, dtype=float).reshape(-1, 1)
    if not np.all(b > a):
        raise ValueError("integration interval must have b > a")
    # Initial edges a + i (b - a) / n, the last one exactly b (the
    # np.linspace rule, on every row at once).
    edges = np.arange(initial_panels + 1.0) * ((b - a) / initial_panels) + a
    edges[:, -1:] = b
    n_rows = edges.shape[0]
    counter = itertools.count()

    def estimate(owners: list[int], los, his, per_row: int):
        # owners lists each panel's row; every row in a round owns the
        # same number of consecutive panels, so the abscissae fold into
        # one line per row.
        rows = np.array(owners[::per_row])[:, None]

        def f_lines(x: np.ndarray) -> np.ndarray:
            return f(x.reshape(rows.shape[0], -1), rows)

        return _panel_estimates(f_lines, los, his, n_low, n_high)

    owners = [r for r in range(n_rows) for _ in range(initial_panels)]
    los, his = edges[:, :-1].ravel(), edges[:, 1:].ravel()
    heaps: list[list] = [[] for _ in range(n_rows)]
    for r, lo, hi, (val, err) in zip(
        owners, los.tolist(), his.tolist(), estimate(owners, los, his, initial_panels)
    ):
        heaps[r].append((-err, next(counter), lo, hi, val, err))
    for heap in heaps:
        heapq.heapify(heap)

    values = np.empty(n_rows)
    errors = np.empty(n_rows)
    active = range(n_rows)
    n_panels = initial_panels  # every working row has split once per round
    while True:
        owners, los, his, working = [], [], [], []
        for r in active:
            heap = heaps[r]
            total = math.fsum(item[4] for item in heap)
            total_err = math.fsum(item[5] for item in heap)
            target = max(abs_tol, rel_tol * abs(total))
            if total_err <= target:
                values[r], errors[r] = total, total_err
                continue
            if n_panels >= max_panels:
                raise ConvergenceError(
                    f"quadrature did not converge: {n_panels} panels, "
                    f"abs err estimate {total_err:.3e} vs target {target:.3e}",
                    total,
                    total_err,
                    row=r,
                )
            _, _, lo, hi, _, _ = heapq.heappop(heap)
            mid = 0.5 * (lo + hi)
            owners += (r, r)
            los += (lo, mid)
            his += (mid, hi)
            working.append(r)
        if not working:
            return values, errors
        for r, lo, hi, (val, err) in zip(owners, los, his, estimate(owners, los, his, 2)):
            heapq.heappush(heaps[r], (-err, next(counter), lo, hi, val, err))
        active = working
        n_panels += 1


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

    The one-row case of ``adaptive_gauss_rows``: ``f`` must accept a flat
    numpy array of abscissae and return the integrand at each; it is
    called once for the initial panels and once per bisection. Raises
    ConvergenceError if the panel budget runs out first.
    """
    values, errors = adaptive_gauss_rows(
        lambda x, rows: np.reshape(f(x.ravel()), x.shape),
        a,
        b,
        rel_tol,
        abs_tol,
        max_panels,
        n_low,
        n_high,
        initial_panels,
    )
    return float(values[0]), float(errors[0])


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
    abs change at the final doubling). A ConvergenceError names as ``row``
    the (flat) batch element with the largest last change.
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
        change = np.abs(new_vals - vals)
        delta = float(np.max(change))
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
                row=int(np.argmax(change)),
            )
