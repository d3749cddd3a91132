"""Adaptive panel quadrature used by the production integrals.

Two building blocks:

* ``adaptive_gauss_rows`` -- h-adaptive Gauss-Kronrod run on many
  independent integrals ("rows") in lock-step. Each panel is evaluated
  once at the 17 nodes of G8/K17, the Kronrod extension of the 8-point
  Gauss rule, kept as a literal table: the Kronrod sum is the panel
  value, its difference from the embedded Gauss sum the panel error
  estimate, so the estimate costs no extra integrand points. Each row
  bisects its own worst panel until its summed estimate meets the
  tolerance. Every round makes one integrand call that covers the panels
  of every unconverged row (the initial split of all rows, then both
  halves of each row's bisection), so an integrand that batches its own
  work sees a few large arrays rather than many small ones. The panels'
  bounds, values and errors are arrays over (rows, panels), so a round's
  bookkeeping is a few numpy calls whatever the number of rows. An
  integrand may return several components at once (a leading axis); a
  row then runs until every component meets its own tolerance.
  ``adaptive_gauss`` is the one-row case.
* ``cc_rows`` -- nested Clenshaw-Curtis over [0, pi] with node doubling,
  run on a block of rows, each a batch of integrands (for the response,
  a row is one xi node and its batch the angular integrals of its k'
  nodes). The first call takes 33 points on every row. After each call
  the rule estimates, per element, the error of the value it would
  return from the Chebyshev coefficients its samples already give,
  guarded by the change since the rule of half the order. A row stops
  as soon as its estimates meet its own tolerance; only the rows still
  working get the odd nodes of the next doubling. ``cc_batch`` is the
  one-row case.

Both are deterministic: fixed node sets, worst-first splitting (the
bisection rule of QUADPACK, Piessens et al., 1983) with ties going to
the earliest-made panel, and row totals summed column by column in the
order the panels were made. A row's panels, splits, totals and angular
values never depend on the other rows (every reduction is a product
over the row's own samples), so it gets the same bits in lock-step as
integrated alone.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np

_TINY = float(np.finfo(float).tiny)


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


# G8/K17 on [-1, 1]: the 9 non-negative nodes of the 17-point Kronrod
# extension of the 8-point Gauss rule from the centre out (the odd entries
# are the Gauss nodes), their Kronrod weights, and the Gauss weights of the
# 4 non-negative Gauss nodes; exact through degree 25 and 15. The values
# are repr(float) of the rule by Laurie's algorithm (Math. Comp. 66, 1997),
# which the tests derive again and check bit for bit.
_GK17_X = (
    0.0, 0.18343464249564978, 0.36070109792813193, 0.525532409916329, 0.6723540709451586,
    0.7966664774136267, 0.8941209068474564, 0.9602898564975362, 0.9933798758817162,
)
_GK17_WK = (
    0.18444640574469173, 0.18140002506803454, 0.1720706085552114, 0.1566526061681884,
    0.13626310925517224, 0.11164637082683963, 0.08248229893135829, 0.04943939500213927,
    0.017822383320710417,
)
_GK17_WG = (0.36268378337836166, 0.3137066458778869, 0.22238103445337443, 0.10122853629037706)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


# Read-only, as _panel_estimates uses them: the 17 nodes ascending, the
# Kronrod weight column and the Gauss weight column of the odd nodes.
_GK17_NODES = _read_only(np.array([-x for x in _GK17_X[:0:-1]] + list(_GK17_X)))
_GK17_KRONROD = _read_only(np.array(_GK17_WK[:0:-1] + _GK17_WK).reshape(-1, 1))
_GK17_GAUSS = _read_only(np.array(_GK17_WG[::-1] + _GK17_WG).reshape(-1, 1))


def _panel_estimates(f: Callable[[np.ndarray], np.ndarray], los, his) -> np.ndarray:
    """Values and abs error estimates of the panels [los, his], stacked
    on a leading axis of 2 (values first).

    ``los`` and ``his`` share a shape P. One call of ``f`` receives the 17
    G8/K17 nodes (ascending) of every panel, shape P + (17,), and returns
    the integrand there with that shape or with a leading component axis,
    (c,) + P + (17,); the result has shape (2,) + P or (2, c) + P. The
    value is the Kronrod sum and the error estimate its distance from the
    embedded Gauss sum. Each panel is reduced by its own dot product (a
    stack of 1 x n products, which numpy hands to the same BLAS dot as
    ``np.dot``), so a pointwise integrand gives the same bits as
    evaluating each rule of each panel on its own. Raises
    FloatingPointError if a panel's value or error estimate is not finite.
    """
    los = np.asarray(los, dtype=float)
    his = np.asarray(his, dtype=float)
    mids = 0.5 * (los + his)
    halves = 0.5 * (his - los)
    fx = np.asarray(f(mids[..., None] + halves[..., None] * _GK17_NODES))[..., None, :]
    i_k = halves * np.matmul(fx, _GK17_KRONROD)[..., 0, 0]
    i_g = halves * np.matmul(np.ascontiguousarray(fx[..., 1::2]), _GK17_GAUSS)[..., 0, 0]
    with np.errstate(invalid="ignore"):
        err = np.abs(i_k - i_g)
    if not np.isfinite(err).all():
        # nan or inf in either sum: bisecting cannot recover, so stop now.
        raise FloatingPointError("integrand is not finite on a quadrature panel")
    return np.array((i_k, err))


def adaptive_gauss_rows(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    a,
    b,
    rel_tol: float,
    max_panels: int = 4096,
    initial_panels: int = 4,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate many independent rows over [a[r], b[r]] in lock-step.

    ``a`` and ``b`` are scalars or per-row 1-D arrays (broadcast against
    each other). Each round calls ``f(x, rows)`` once: ``x`` has one line
    per row still working, holding the abscissae of that row's new
    panels, and ``rows`` is the int column of those rows' indices, so
    per-row data gathered as ``data[rows]`` broadcasts against ``x``.
    ``f`` returns the integrand at ``x``, with the shape of ``x`` or with
    a leading component axis, (c,) + x.shape. Returns (values, abs error
    estimates), each of shape (rows,), or (c, rows) with components.

    A row stops once every component's summed error estimate is at most
    rel_tol times the magnitude of that component's total. Until then it
    bisects the panel whose error is largest relative to its own
    component's target; with one component that is the largest error,
    and ties go to the earliest-made panel. Every row keeps its own
    panels, totals and ``max_panels`` budget, so its result does not
    depend on the other rows. Raises ConvergenceError, with ``row`` set,
    for the lowest-index row that runs out of panels.
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

    def estimate(ids: np.ndarray, los: np.ndarray, his: np.ndarray) -> np.ndarray:
        # los, his: (working rows, new panels per row); the abscissae of a
        # row's new panels fold into one line of x.
        def f_lines(x: np.ndarray) -> np.ndarray:
            fx = np.asarray(f(x.reshape(x.shape[0], -1), ids[:, None]))
            return fx.reshape(fx.shape[:-2] + x.shape)

        return _panel_estimates(f_lines, los, his)

    # The working rows' panels, one column per panel in the order the
    # panels were made: bounds lo, hi of shape (rows, columns) and
    # (value, error) pairs pan of shape (2, c, rows, columns). A split
    # panel's value and error become 0 and its halves go on as two new
    # columns; every working row splits once per round, so all share the
    # column count n. ids maps a working row to its index.
    ids = np.arange(edges.shape[0])
    n = initial_panels
    first = estimate(ids, edges[:, :-1], edges[:, 1:])
    has_components = first.ndim == 4
    first = first.reshape(2, -1, ids.size, n)
    lo = np.empty((ids.size, 4 * n))
    hi = np.empty_like(lo)
    pan = np.empty(first.shape[:-1] + (4 * n,))
    lo[:, :n], hi[:, :n], pan[..., :n] = edges[:, :-1], edges[:, 1:], first
    values = np.empty(pan.shape[1:3])
    errors = np.empty(pan.shape[1:3])
    n_panels = initial_panels
    while True:
        # A running sum over the columns in the order the panels were
        # made: it depends only on the row's own panels, and the zeros
        # of split panels add exactly.
        total, total_err = np.cumsum(pan[..., :n], axis=-1)[..., -1]
        target = rel_tol * np.abs(total)
        met = total_err <= target
        done = met.all(axis=0)
        finished = done.all()
        if not finished and n_panels >= max_panels:
            # ids ascend, so the first working row has the lowest index.
            r = int(done.argmin())
            c = int(met[:, r].argmin())
            raise ConvergenceError(
                f"quadrature did not converge: {n_panels} panels, abs err "
                f"estimate {total_err[c, r]:.3e} vs target {target[c, r]:.3e}",
                float(total[c, r]),
                float(total_err[c, r]),
                row=int(ids[r]),
            )
        if done.any():
            values[:, ids[done]] = total[:, done]
            errors[:, ids[done]] = total_err[:, done]
            if finished:
                break
            work = ~done
            ids, lo, hi, target = ids[work], lo[work], hi[work], target[:, work]
            pan = pan[:, :, work]
        if pan.shape[1] == 1:
            worst = pan[1, 0, :, :n]
        else:
            # Against a zero target every error counts as huge (inf ties
            # go to the earliest panel).
            with np.errstate(over="ignore"):
                worst = (pan[1, ..., :n] / np.maximum(target, _TINY)[..., None]).max(axis=0)
        rows = np.arange(ids.size)
        split = worst.argmax(axis=1)
        left, right = lo[rows, split], hi[rows, split]
        pan[..., rows, split] = 0.0
        if n + 2 > lo.shape[1]:
            lo, hi, pan = (np.concatenate((x, np.empty_like(x)), axis=-1) for x in (lo, hi, pan))
        mid = 0.5 * (left + right)
        lo[:, n], lo[:, n + 1] = left, mid
        hi[:, n], hi[:, n + 1] = mid, right
        pan[..., n : n + 2] = estimate(ids, lo[:, n : n + 2], hi[:, n : n + 2]).reshape(
            pan.shape[:-1] + (2,)
        )
        n += 2
        n_panels += 1
    if has_components:
        return values, errors
    return values[0], errors[0]


def adaptive_gauss(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    rel_tol: float,
    max_panels: int = 4096,
    n_high: int = 17,  # only 17  (bench/tracing.py's _AG_SIG reads it; ROADMAP item 1)
    initial_panels: int = 4,
):
    """Integrate ``f`` over [a, b]; returns (value, abs error estimate).

    The one-row case of ``adaptive_gauss_rows``: ``f`` must accept a flat
    numpy array of abscissae and return the integrand at each, or a
    (c, x.size) array of c components, in which case the value and the
    error are (c,) arrays; it is called once for the initial panels and
    once per bisection. Raises ConvergenceError if the panel budget runs
    out first. The rule is G8/K17; ``n_high``, its point count, admits no
    other value.
    """
    if n_high != 17:
        raise ValueError(f"n_high must be 17 (the G8/K17 rule), got {n_high}")

    def f_row(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
        fx = np.asarray(f(x.ravel()))
        return fx.reshape(fx.shape[:-1] + x.shape)

    values, errors = adaptive_gauss_rows(f_row, a, b, rel_tol, max_panels, initial_panels)
    if values.ndim == 2:
        return values[:, 0], errors[:, 0]
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
    return _read_only(x), _read_only(w)


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
    return tuple(map(_read_only, rows))


# Rounding floor of a Clenshaw-Curtis error estimate relative to the
# integral of |f| (QUADPACK's 50 eps), and the scale with which QUADPACK
# shrinks the difference of two rules (Piessens et al., 1983).
_CC_ROUNDING = 50.0 * float(np.finfo(float).eps)
_CC_GUARD_SCALE = 200.0


def _cc_estimate(
    fx: np.ndarray,
    w: np.ndarray,
    vals: np.ndarray,
    coarse: np.ndarray,
    n_half: int,
    target: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Abs error estimate of each element of the Clenshaw-Curtis values
    ``vals`` = (pi/2) fx @ w on [0, pi], n = 2 n_half, and whether each
    row may stop: every element of the row has an estimate at most the
    row's ``target``, or at most its own rounding floor where that is
    larger. ``fx`` is (rows, n elements, 2 n_half + 1) and ``target``
    (rows,); the estimates are (rows, n elements), the verdicts (rows,).

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

    The guard never exceeds d, so on a row where tail + d meets the target
    on every element, that bound is the row's estimate and its guard and
    floor are not computed. Each row is reduced by its own matrix-vector
    products, so a row gets the same bits in a block of any size.
    """
    # Three matrix-vector products: one matrix product with the three
    # tail rows stacked raised the benchmark's peak RSS by 0.3-0.4 MB.
    r0, r1, r2 = _cc_tail(n_half)
    tail = np.maximum(np.maximum(np.abs(fx @ r0), np.abs(fx @ r1)), np.abs(fx @ r2))
    d = np.abs(vals - coarse)
    est = tail + d
    done = (est <= target[:, None]).all(axis=1)
    if done.all():
        return est, done
    slow = ~done
    fx, vals, tail, d, target = fx[slow], vals[slow], tail[slow], d[slow], target[slow]
    resasc = (0.5 * np.pi) * (np.abs(fx - (vals / np.pi)[..., None]) @ w)
    floor = _CC_ROUNDING * (resasc + np.abs(vals))
    # min(1, 200 d / resasc); tiny keeps it 0 for a constant f (resasc = 0).
    shrink = np.minimum(_CC_GUARD_SCALE * d, resasc) / (resasc + _TINY)
    full = np.maximum(tail + d * shrink * np.sqrt(shrink), floor)
    est[slow] = full
    done[slow] = (full <= np.maximum(floor, target[:, None])).all(axis=1)
    return est, done


def cc_rows(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    n_rows: int,
    rel_tol: float,
    max_half: int = 512,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate a block of batches ("rows") of smooth integrands over
    [0, pi], each row stopping on its own.

    ``f(t, rows)`` takes the angle nodes t and the 1-D int array of the
    rows still working (indices into the block of ``n_rows``) and returns
    the integrand as an array of shape (len(rows), n, t.size): n batch
    elements per row, the same n for every row. The first call takes the
    33-point Clenshaw-Curtis rule on every row; each further call hands
    only the rows still working the odd nodes of the next doubling. After
    every call each element gets an estimate of the error of the value
    about to be returned (``_cc_estimate``: Chebyshev tail, a guard from
    the change since the rule of half the order, and a rounding floor), so
    a row that has converged stops at once, the first 33-point call
    included, and is never evaluated again. A row stops when every
    element's estimate is at most rel_tol of the row's largest magnitude,
    or its own rounding floor if that is larger. Each row's values,
    estimates and stop come from its own samples alone, so a row gets the
    same bits in a block of any size as alone. Returns (values of shape
    (n_rows, n), the largest estimate of each row).

    A check that fails once the half-order has reached max_half (so the
    first check, for max_half <= 16) raises a ConvergenceError for the
    lowest-index failing row; its ``row`` is the flat index, row * n +
    element, of that row's element with the largest estimate. Values that
    are not finite raise FloatingPointError at once: doubling cannot
    recover them.
    """
    ids = np.arange(n_rows)
    n_half = 16
    x, w = _cc_rule(n_half)
    fx = f(0.5 * np.pi * (x + 1.0), ids)
    # The 17-point nodes are the even 33-point ones, bit for bit.
    coarse = 0.5 * np.pi * (np.ascontiguousarray(fx[..., ::2]) @ _cc_rule(8)[1])
    values = deltas = None
    while True:
        vals = 0.5 * np.pi * (fx @ w)
        if not np.isfinite(vals).all():
            raise FloatingPointError("integrand is not finite on the angular rule")
        target = rel_tol * np.abs(vals).max(axis=1)
        est, done = _cc_estimate(fx, w, vals, coarse, n_half, target)
        delta = est.max(axis=1)
        done |= target == 0.0
        if not done.all() and n_half >= max_half:
            # ids ascend, so the first working row has the lowest index.
            r = int(done.argmin())
            raise ConvergenceError(
                f"angular quadrature did not converge: {2 * n_half + 1} points, "
                f"error estimate {delta[r]:.3e} vs target {target[r]:.3e}",
                float(vals[r, 0]),
                float(delta[r]),
                row=int(ids[r]) * vals.shape[1] + int(np.argmax(est[r])),
            )
        if values is None:
            if done.all():
                return vals, delta
            values = np.empty_like(vals)
            deltas = np.empty_like(delta)
        values[ids[done]] = vals[done]
        deltas[ids[done]] = delta[done]
        if done.all():
            return values, deltas
        work = ~done
        ids, fx, coarse = ids[work], fx[work], vals[work]
        n_half *= 2
        x, w = _cc_rule(n_half)
        fx_new = np.empty(fx.shape[:-1] + (2 * n_half + 1,), dtype=fx.dtype)
        fx_new[..., ::2] = fx
        fx_new[..., 1::2] = f(0.5 * np.pi * (x[1::2] + 1.0), ids)
        fx = fx_new


def cc_batch(
    f: Callable[[np.ndarray], np.ndarray],
    rel_tol: float,
    max_half: int = 512,
) -> tuple[np.ndarray, float]:
    """Integrate a batch of smooth integrands over [0, pi].

    The one-row case of ``cc_rows``. ``f(phi)`` must return an array whose
    last axis matches ``phi``; the batch is its leading axes. The rule
    stops when every element's estimate is at most rel_tol of the batch's
    largest magnitude, or its own rounding floor if that is larger;
    returns (values, largest estimate). A failure at max_half raises a
    ConvergenceError that names as ``row`` the (flat) batch element with
    the largest estimate; values that are not finite raise
    FloatingPointError.
    """
    shape = []

    def f_row(t: np.ndarray, rows: np.ndarray) -> np.ndarray:
        fx = np.asarray(f(t))
        shape[:] = fx.shape[:-1]
        return fx.reshape(1, -1, t.size)

    values, deltas = cc_rows(f_row, 1, rel_tol, max_half)
    return values[0].reshape(shape), float(deltas[0])
