"""Adaptive panel quadrature used by the production integrals.

Two building blocks:

* ``adaptive_gauss_rows`` -- h-adaptive Gauss-Kronrod run on many
  independent integrals ("rows") in lock-step. Each panel is evaluated
  once at the 2n+1 nodes of the Kronrod extension of the n-point Gauss
  rule (G8/K17 by default): the Kronrod sum is the panel value, its
  difference from the embedded Gauss sum the panel error estimate, so
  the estimate costs no extra integrand points. Each row bisects its own
  worst panel until its summed estimate meets the tolerance. Every round
  makes one integrand call that covers the panels of every unconverged
  row (the initial split of all rows, then both halves of each row's
  bisection), so an integrand that batches its own work sees a few large
  arrays rather than many small ones. ``adaptive_gauss`` is the one-row case.
* ``cc_batch`` -- nested Clenshaw-Curtis with node doubling, applied to a
  whole batch of integrands at once (the angular integral for every k'
  node of a panel in one numpy call per doubling). The first call takes
  33 points. After each call the rule estimates the error of the value
  it would return from the Chebyshev coefficients its samples already
  give, guarded by the change since the rule of half the order, and
  stops as soon as that estimate meets the tolerance.

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


def _kronrod_jacobi(n: int) -> np.ndarray:
    """Off-diagonal squares b_0..b_2n of the (2n+1) x (2n+1) Jacobi-Kronrod
    matrix of the Legendre weight (b_0 = 2, the weight's mass).

    Laurie's algorithm (Math. Comp. 66, 1997) for a symmetric weight: the
    diagonal is zero, the first ceil(3n/2) + 1 entries are the Legendre
    recurrence coefficients k^2 / (4k^2 - 1), and the rest follow from
    the mixed moments s, t of the Gauss and Kronrod polynomials.
    """
    k = np.arange(2 * n + 1.0)
    b = k**2 / (4.0 * k**2 - 1.0)
    b[0] = 2.0
    b[(3 * n + 1) // 2 + 1 :] = 0.0  # filled in below
    s = np.zeros(n // 2 + 2)
    t = np.zeros(n // 2 + 2)
    t[1] = b[n + 1]
    for m in range(n - 1):
        k = np.arange((m + 1) // 2, -1, -1)
        s[k + 1] = np.cumsum(b[k + n + 1] * s[k] - b[m - k] * s[k + 1])
        s, t = t, s
    s[1:] = s[:-1].copy()
    for m in range(n - 1, 2 * n - 2):
        k = np.arange(m + 1 - n, (m - 1) // 2 + 1)
        j = n - 1 - (m - k)
        s[j + 1] = np.cumsum(b[m - k] * s[j + 2] - b[k + n + 1] * s[j + 1])
        if m % 2:
            b[(m + 1) // 2 + n + 1] = s[j[-1] + 1] / s[j[-1] + 2]
        s, t = t, s
    return b


@lru_cache(maxsize=8)
def _gauss_kronrod(n_high: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes of the (2n+1)-point Kronrod extension of the n-point Gauss
    rule on [-1, 1], n_high = 2n+1, ascending, with the Kronrod weight
    column and the Gauss weight column of the odd-indexed (Gauss) nodes.

    The nodes are the eigenvalues of the Jacobi-Kronrod matrix (Laurie,
    1997; QUADPACK, Piessens et al., 1983), Newton-polished on its
    characteristic polynomial; the weights are its Christoffel numbers
    1 / sum_k p_k(x)^2 over the orthonormal recurrence polynomials. The
    Gauss nodes and weights are taken exactly from ``leggauss`` and the
    rule is made exactly symmetric. The Kronrod rule is exact through
    degree 3n+1, the Gauss rule through 2n-1.
    """
    n = (n_high - 1) // 2
    if n_high != 2 * n + 1 or n < 1:
        raise ValueError("n_high must be 2n+1 for an n-point Gauss rule, n >= 1")
    x_g, w_g = np.polynomial.legendre.leggauss(n)
    b = _kronrod_jacobi(n)
    off = np.sqrt(b[1:])
    x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    for _ in range(2):
        # Newton on the monic characteristic polynomial of the matrix,
        # pi_{k+1} = x pi_k - b_k pi_{k-1} (pi_{-1} = 0), and its derivative.
        p, p_prev = np.ones_like(x), np.zeros_like(x)
        dp, dp_prev = np.zeros_like(x), np.zeros_like(x)
        for bk in b:
            p, p_prev, dp, dp_prev = x * p - bk * p_prev, p, p + x * dp - bk * dp_prev, dp
        x = x - p / dp
    nodes = 0.5 * (x - x[::-1])
    nodes[1::2] = x_g
    # Orthonormal p_0 = 1 / sqrt(b_0), sqrt(b_{k+1}) p_{k+1} = x p_k - sqrt(b_k) p_{k-1}.
    p, p_prev = np.full_like(nodes, 1.0 / math.sqrt(b[0])), np.zeros_like(nodes)
    total = p**2
    for k in range(n_high - 1):
        sub = off[k - 1] if k else 0.0
        p, p_prev = (nodes * p - sub * p_prev) / off[k], p
        total += p**2
    w_k = 1.0 / total
    w_k = 0.5 * (w_k + w_k[::-1])
    return nodes, w_k[:, None], w_g[:, None]


def _panel_estimates(
    f: Callable[[np.ndarray], np.ndarray],
    los,
    his,
    n_high: int,
) -> list[tuple[float, float]]:
    """(value, abs error estimate) of each panel [los[i], his[i]].

    One call of ``f`` receives every panel's n_high Gauss-Kronrod nodes
    (ascending) as a flat array. The value is the Kronrod sum and the
    error estimate its distance from the embedded Gauss sum. Each panel
    is reduced by its own dot product (a stack of 1 x n products, which
    numpy hands to the same BLAS dot as ``np.dot``), so a pointwise
    integrand gives the same bits as evaluating each rule of each panel
    on its own. Raises FloatingPointError if a panel's value or error
    estimate is not finite.
    """
    los = np.asarray(los, dtype=float)
    his = np.asarray(his, dtype=float)
    mids = 0.5 * (los + his)
    halves = 0.5 * (his - los)
    nodes, w_k, w_g = _gauss_kronrod(n_high)
    x = mids[:, None] + halves[:, None] * nodes
    fx = np.reshape(f(x.ravel()), x.shape)[:, None, :]
    i_k = halves * np.matmul(fx, w_k)[:, 0, 0]
    i_g = halves * np.matmul(np.ascontiguousarray(fx[..., 1::2]), w_g)[:, 0, 0]
    with np.errstate(invalid="ignore"):
        err = np.abs(i_k - i_g)
    if not np.all(np.isfinite(err)):
        # nan or inf in either sum: bisecting cannot recover, so stop now.
        raise FloatingPointError("integrand is not finite on a quadrature panel")
    return list(zip(i_k.tolist(), err.tolist()))


def adaptive_gauss_rows(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    a,
    b,
    rel_tol: float,
    max_panels: int = 4096,
    n_high: int = 17,
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

        return _panel_estimates(f_lines, los, his, n_high)

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
            target = rel_tol * abs(total)
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
    max_panels: int = 4096,
    n_high: int = 17,
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
        max_panels,
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


@lru_cache(maxsize=16)
def _cc_tail(n_half: int) -> tuple[np.ndarray, ...]:
    """Rows taking the n+1 Clenshaw-Curtis samples (n = 2 n_half) to the
    Chebyshev coefficients n-4, n-2 and n of their interpolant, each
    times 4 / (n^2 - 1) (the integral weight of T_n, doubled) and pi / 2
    (the scale to [0, pi]).

    Sample j sits at x_j = cos(j pi / n), so T_k(x_j) = cos(j k pi / n);
    the interpolant's coefficients are (2/n) sum'' f_j T_k(x_j), with the
    end samples halved and the coefficient of T_n halved once more.
    """
    n = 2 * n_half
    j = np.arange(n + 1)
    ends = np.where((j == 0) | (j == n), 0.5, 1.0)
    scale = (2.0 / n) * ends * (2.0 * np.pi / (n**2 - 1.0))
    # (j k) mod 2n keeps the cosine's argument in [0, 2 pi).
    rows = [scale * np.cos(np.pi * ((j * k) % (2 * n)) / n) for k in (n - 4, n - 2, n)]
    rows[2] *= 0.5
    return tuple(rows)


# Rounding floor of a Clenshaw-Curtis error estimate relative to the
# integral of |f| (QUADPACK's 50 eps), and the scale with which QUADPACK
# shrinks the difference of two rules (Piessens et al., 1983).
_CC_ROUNDING = 50.0 * float(np.finfo(float).eps)
_CC_GUARD_SCALE = 200.0
_TINY = float(np.finfo(float).tiny)


def _cc_estimate(
    fx: np.ndarray,
    w: np.ndarray,
    vals: np.ndarray,
    coarse: np.ndarray,
    n_half: int,
    target: float,
) -> tuple[np.ndarray, bool]:
    """Abs error estimate of each batch element of the Clenshaw-Curtis
    value ``vals`` = (pi/2) fx @ w on [0, pi], n = 2 n_half, and whether
    the rule may stop: every element's estimate is at most ``target``, or
    at most its own rounding floor where that is larger.

    * Tail: the largest |c| of the Chebyshev coefficients n-4, n-2 and n of
      the samples, times the integral weight 4 / (n^2 - 1) (O'Hara & Smith,
      Computer J. 11, 1968; Gonnet, ACM TOMS 37, 2010).
    * Guard: the tail cannot see a function that aliases onto lower
      coefficients, so the change d = |vals - coarse| since the rule of half
      the order is added, shrunk QUADPACK-style to
      d min(1, (200 d / resasc)^1.5) with resasc = int |f - mean f|. It is d
      while the two rules disagree on the function's own scale, and
      vanishes like d^2.5 as they converge.
    * Floor: the estimate is never below 50 eps (resasc + |vals|),
      QUADPACK's rounding floor 50 eps int |f| taken from an upper bound
      (int |f| <= resasc + |vals| <= 3 int |f|).

    The guard never exceeds d, so where tail + d meets ``target`` on every
    element, that bound is returned as the estimate and the guard and
    floor are not computed.
    """
    # Three matrix-vector products: one matrix product with the rows
    # stacked raised the benchmark's peak RSS by 0.3-0.4 MB.
    r0, r1, r2 = _cc_tail(n_half)
    tail = np.maximum(np.maximum(np.abs(fx @ r0), np.abs(fx @ r1)), np.abs(fx @ r2))
    d = np.abs(vals - coarse)
    bound = tail + d
    if (bound <= target).all():
        return bound, True
    resasc = (0.5 * np.pi) * (np.abs(fx - (vals / np.pi)[..., None]) @ w)
    floor = _CC_ROUNDING * (resasc + np.abs(vals))
    # min(1, 200 d / resasc); tiny keeps it 0 for a constant f (resasc = 0).
    shrink = np.minimum(_CC_GUARD_SCALE * d, resasc) / (resasc + _TINY)
    est = np.maximum(tail + d * shrink * np.sqrt(shrink), floor)
    return est, bool((est <= np.maximum(floor, target)).all())


def cc_batch(
    f: Callable[[np.ndarray], np.ndarray],
    rel_tol: float,
    max_half: int = 512,
) -> tuple[np.ndarray, float]:
    """Integrate a batch of smooth integrands over [0, pi].

    ``f(phi)`` must return an array whose last axis matches ``phi``. The
    first call takes the 33-point Clenshaw-Curtis rule; each further call
    adds the odd nodes of the next doubling. After every call each batch
    element gets an estimate of the error of the value about to be
    returned (``_cc_estimate``: Chebyshev tail, a guard from the change
    since the rule of half the order, and a rounding floor), so a rule
    that has converged stops at once, the first 33-point call included.
    The rule stops when every element's estimate is at most rel_tol of the
    batch's largest magnitude, or its own rounding floor if that is
    larger; returns (values, largest estimate). A check that fails once
    the half-order has reached max_half (so the first check, for
    max_half <= 16) raises a ConvergenceError that names as ``row`` the
    (flat) batch element with the largest estimate. Values that are not
    finite raise FloatingPointError at once: doubling cannot recover them.
    """
    n_half = 16
    x, w = _cc_rule(n_half)
    fx = f(0.5 * np.pi * (x + 1.0))
    # The 17-point nodes are the even 33-point ones, bit for bit.
    coarse = 0.5 * np.pi * (np.ascontiguousarray(fx[..., ::2]) @ _cc_rule(8)[1])
    while True:
        vals = 0.5 * np.pi * (fx @ w)
        if not np.isfinite(vals).all():
            raise FloatingPointError("integrand is not finite on the angular rule")
        target = rel_tol * float(np.abs(vals).max())
        est, done = _cc_estimate(fx, w, vals, coarse, n_half, target)
        delta = float(est.max())
        if done or target == 0.0:
            return vals, delta
        if n_half >= max_half:
            raise ConvergenceError(
                f"angular quadrature did not converge: {2 * n_half + 1} "
                f"points, error estimate {delta:.3e} vs target {target:.3e}",
                float(vals.flat[0]) if vals.size else 0.0,
                delta,
                row=int(np.argmax(est)),
            )
        coarse = vals
        n_half *= 2
        x, w = _cc_rule(n_half)
        fx_new = np.empty(fx.shape[:-1] + (2 * n_half + 1,), dtype=fx.dtype)
        fx_new[..., ::2] = fx
        fx_new[..., 1::2] = f(0.5 * np.pi * (x[1::2] + 1.0))
        fx = fx_new
