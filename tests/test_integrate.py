import math

import numpy as np
import pytest

from cpsurf import _integrate
from cpsurf._integrate import (
    ConvergenceError,
    adaptive_gauss,
    adaptive_gauss_rows,
    cc_batch,
    cc_rows,
)

NODES_PER_PANEL = 17  # G8/K17: the Kronrod nodes embed the 8 Gauss nodes
# The engine's rule: nodes, Kronrod weight column, Gauss weight column.
GK17_TABLE = (_integrate._GK17_NODES, _integrate._GK17_KRONROD, _integrate._GK17_GAUSS)


class Recorder:
    """Pointwise integrand that records the size of every call."""

    def __init__(self, fn):
        self.fn = fn
        self.sizes = []

    def __call__(self, x):
        self.sizes.append(len(x))
        return self.fn(x)


class EstimateLog:
    """Records the panels [los, his] of every estimate the engine makes."""

    def __init__(self, monkeypatch):
        self.panels = []
        estimate = _integrate._panel_estimates

        def spy(f, los, his):
            self.panels.append((np.array(los).tolist(), np.array(his).tolist()))
            return estimate(f, los, his)

        monkeypatch.setattr(_integrate, "_panel_estimates", spy)

    def split_parents(self, rows_per_call):
        """The panels split in each call after the first, as (row, lo, hi).

        Line i of a call belongs to row rows_per_call[call][i]. Every later
        line must hold the two halves of one live panel of its row: a
        panel made earlier on that row and not split before."""
        (los, his), *later = self.panels
        live = {
            row: set(zip(lo, hi)) for row, lo, hi in zip(rows_per_call[0], los, his)
        }
        parents = []
        for (los, his), rows in zip(later, rows_per_call[1:]):
            assert len(los) == len(rows)
            for row, (lo, mid), (mid_again, hi) in zip(rows, los, his):
                assert mid == mid_again == 0.5 * (lo + hi)
                live[row].remove((lo, hi))
                live[row] |= {(lo, mid), (mid, hi)}
                parents.append((row, lo, hi))
        return parents


def reference_estimate(f, a, b):
    # One panel, one rule per call: the unbatched form of the estimate.
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    nodes, w_k, w_g = GK17_TABLE
    x_g, w_g8 = np.polynomial.legendre.leggauss(8)
    assert np.array_equal(w_g.ravel(), w_g8)
    i_k = half * float(np.dot(w_k.ravel(), f(mid + half * nodes)))
    i_g = half * float(np.dot(w_g8, f(mid + half * x_g)))
    return i_k, abs(i_k - i_g)


def reference_cc_estimate(fx, coarse):
    """cc_batch's error estimate of the Clenshaw-Curtis value of the
    samples fx (last axis: the 2n+1 nodes, descending in x), coded apart
    from the engine: the Chebyshev coefficients come from an FFT of the
    even extension (DCT-I). coarse is the value of the rule of half the
    order. Returns (value, estimate), one per batch element."""
    fx = np.asarray(fx, dtype=float)
    n = fx.shape[-1] - 1
    ext = np.concatenate([fx, fx[..., -2:0:-1]], axis=-1)
    c = np.fft.rfft(ext, axis=-1).real[..., : n + 1] / n
    c[..., n] *= 0.5  # the interpolant's coefficient of T_n
    w = _integrate._cc_rule(n // 2)[1]
    value = 0.5 * np.pi * (fx @ w)
    tail = 0.5 * np.pi * 4.0 / (n**2 - 1) * np.max(np.abs(c[..., [n - 4, n - 2, n]]), axis=-1)
    resasc = 0.5 * np.pi * (np.abs(fx - value[..., None] / np.pi) @ w)
    d = np.abs(value - coarse)
    guard = d * np.minimum(1.0, 200.0 * d / resasc) ** 1.5
    floor = 50.0 * np.finfo(float).eps * (resasc + np.abs(value))
    return value, np.maximum(tail + guard, floor)


def _shifted_moment(degree, shift=0.3):
    # int_{-1}^{1} (x + shift)^d dx; the shift keeps odd degrees from being
    # exact by symmetry alone.
    return ((1.0 + shift) ** (degree + 1) - (shift - 1.0) ** (degree + 1)) / (degree + 1)


def kronrod_jacobi(n):
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


def derive_gauss_kronrod(n_high):
    """The (2n+1)-point Kronrod extension of the n-point Gauss rule on
    [-1, 1], n_high = 2n+1, derived apart from the engine's table: the
    nodes ascending, the Kronrod weight column and the Gauss weight column
    of the odd-indexed (Gauss) nodes.

    The nodes are the eigenvalues of the Jacobi-Kronrod matrix (Laurie,
    1997; QUADPACK, Piessens et al., 1983), Newton-polished on its
    characteristic polynomial; the weights are its Christoffel numbers
    1 / sum_k p_k(x)^2 over the orthonormal recurrence polynomials. The
    Gauss nodes and weights are taken exactly from ``leggauss`` and the
    rule is made exactly symmetric.
    """
    n = (n_high - 1) // 2
    if n_high != 2 * n + 1 or n < 1:
        raise ValueError("n_high must be 2n+1 for an n-point Gauss rule, n >= 1")
    x_g, w_g = np.polynomial.legendre.leggauss(n)
    b = kronrod_jacobi(n)
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


class TestGaussKronrodRule:
    def test_table_matches_derivation_bit_for_bit(self):
        for table, derived in zip(GK17_TABLE, derive_gauss_kronrod(17)):
            assert table.shape == derived.shape
            assert np.array_equal(table, derived)

    def test_layout(self):
        nodes, w_k, w_g = GK17_TABLE
        assert nodes.shape == (17,) and w_k.shape == (17, 1) and w_g.shape == (8, 1)
        assert np.all(np.diff(nodes) > 0.0)
        assert np.array_equal(nodes, -nodes[::-1])
        assert np.array_equal(w_k, w_k[::-1])
        x_g, w_g8 = np.polynomial.legendre.leggauss(8)
        assert np.array_equal(nodes[1::2], x_g)
        assert np.array_equal(w_g.ravel(), w_g8)
        assert np.all(w_k > 0.0)
        assert -1.0 < nodes[0] and nodes[-1] < 1.0

    def test_kronrod_exact_through_degree_25_and_gauss_through_15(self):
        nodes, w_k, w_g = GK17_TABLE
        k_err = []
        g_err = []
        for degree in range(27):
            exact = _shifted_moment(degree)
            k_sum = float(np.dot(w_k.ravel(), (nodes + 0.3) ** degree))
            g_sum = float(np.dot(w_g.ravel(), (nodes[1::2] + 0.3) ** degree))
            k_err.append(abs(k_sum - exact) / exact)
            g_err.append(abs(g_sum - exact) / exact)
        assert max(k_err[:26]) < 1e-14
        assert k_err[26] > 1e-12
        assert max(g_err[:16]) < 1e-14
        assert g_err[16] > 1e-8

    def test_g7k15_matches_quadpack(self):
        # The 15-point rule of QUADPACK's dqk15 (Piessens et al., 1983),
        # tabulated to 33 digits: abscissae from -1 up to the centre. It
        # checks the derivation that checks the table.
        xgk = [
            0.991455371120812639206854697526329,
            0.949107912342758524526189684047851,
            0.864864423359769072789712788640926,
            0.741531185599394439863864773280788,
            0.586087235467691130294144845693013,
            0.405845151377397166906606412076961,
            0.207784955007898467600689403773245,
            0.0,
        ]
        wgk = [
            0.022935322010529224963732008058970,
            0.063092092629978553290700663189204,
            0.104790010322250183839876322541518,
            0.140653259715525918745189590510238,
            0.169004726639267902826583426598550,
            0.190350578064785409913256402421014,
            0.204432940075298892414161999234649,
            0.209482141084727828012999174891714,
        ]
        nodes, w_k, _ = derive_gauss_kronrod(15)
        assert nodes[:8] == pytest.approx(-np.array(xgk), abs=4e-16)
        assert w_k.ravel()[:8] == pytest.approx(wgk, rel=4e-15)

    @pytest.mark.parametrize("n_high", [16, 1, 0])
    def test_rejects_even_or_empty_rule(self, n_high):
        with pytest.raises(ValueError):
            derive_gauss_kronrod(n_high)

    def test_rule_tables_are_read_only(self):
        # The tables are shared by every caller (the Clenshaw-Curtis ones
        # through a cache), so a write anywhere would change every later
        # integral.
        tables = [*GK17_TABLE, *_integrate._cc_rule(8), *_integrate._cc_tail(16)]
        for table in tables:
            with pytest.raises(ValueError):
                table[0] = 1.0


class TestAdaptiveGauss:
    @pytest.mark.parametrize("initial", [4, 7])
    def test_one_call_per_step(self, monkeypatch, initial):
        log = EstimateLog(monkeypatch)
        f = Recorder(lambda x: 1.0 / (x + 0.01))
        val, _ = adaptive_gauss(f, 0.0, 1.0, 1e-12, initial_panels=initial)
        splits = log.split_parents([[0]] * len(log.panels))
        assert val == pytest.approx(math.log(101.0), rel=1e-11)
        assert len(splits) > 0
        assert len(f.sizes) == 1 + len(splits)
        assert f.sizes[0] == initial * NODES_PER_PANEL
        assert f.sizes[1:] == [2 * NODES_PER_PANEL] * len(splits)

    @pytest.mark.parametrize("degree", range(16))
    def test_polynomials_up_to_degree_15_are_exact(self, degree):
        f = Recorder(lambda x: x**degree)
        val, err = adaptive_gauss(f, -1.0, 2.0, 1e-13)
        exact = (2.0 ** (degree + 1) - (-1.0) ** (degree + 1)) / (degree + 1)
        assert val == pytest.approx(exact, rel=1e-13)
        assert err <= 1e-13 * abs(exact)
        assert len(f.sizes) == 1

    def test_panels_match_unbatched_estimate_bit_for_bit(self):
        los = np.array([0.0, 0.3, 0.35, 0.9])
        his = np.array([0.3, 0.35, 0.9, 1.7])

        def f(x):
            return np.exp(-3.0 * x) * np.sin(7.0 * x) + np.sqrt(x)

        values, errors = _integrate._panel_estimates(f, los, his)
        batched = list(zip(values.tolist(), errors.tolist()))
        assert batched == [reference_estimate(f, a, b) for a, b in zip(los, his)]

    def test_equal_errors_split_the_earliest_made_panel(self, monkeypatch):
        # Every panel sees the same 17 samples, so panels of one width tie
        # bit for bit on value and error, and a half has exactly half its
        # parent's error. The four initial panels split in the order they
        # were made, then the halves of the first two, in theirs.
        pattern = np.random.default_rng(3).uniform(size=NODES_PER_PANEL)
        log = EstimateLog(monkeypatch)
        with pytest.raises(ConvergenceError):
            adaptive_gauss(
                lambda x: np.tile(pattern, x.size // NODES_PER_PANEL),
                0.0, 4.0, 1e-12, max_panels=12,
            )
        parents = log.split_parents([[0]] * len(log.panels))
        assert [(lo, hi) for _, lo, hi in parents] == [
            (0.0, 1.0), (1.0, 2.0), (2.0, 3.0), (3.0, 4.0),
            (0.0, 0.5), (0.5, 1.0), (1.0, 1.5), (1.5, 2.0),
        ]

    def test_converged_component_is_refined_until_all_converge(self):
        # exp(x) meets 1e-10 on the initial panels; 1 / (x + 1e-3) needs many
        # bisections. Together, the peaked component picks every split, and
        # both end within their own tolerance.
        def smooth(x):
            return np.exp(x)

        def peaked(x):
            return 1.0 / (x + 1e-3)

        f = Recorder(lambda x: np.stack((smooth(x), peaked(x))))
        values, errors = adaptive_gauss(f, 0.0, 1.0, 1e-10)
        smooth_alone, peaked_alone = Recorder(smooth), Recorder(peaked)
        adaptive_gauss(smooth_alone, 0.0, 1.0, 1e-10)
        assert len(smooth_alone.sizes) == 1
        alone = adaptive_gauss(peaked_alone, 0.0, 1.0, 1e-10)
        assert len(f.sizes) == len(peaked_alone.sizes) > 1
        assert (values[1], errors[1]) == alone
        assert values.shape == errors.shape == (2,)
        assert np.all(errors <= 1e-10 * np.abs(values))
        assert values == pytest.approx([math.e - 1.0, math.log(1001.0)], rel=1e-11)

    def test_zero_component_leaves_the_splits_to_the_other(self):
        # A component that is 0 everywhere has a zero target and zero
        # errors: it is met at once and never steers a split.
        peaked = Recorder(lambda x: 1.0 / (x + 1e-3))
        alone = adaptive_gauss(peaked, 0.0, 1.0, 1e-10)
        both = Recorder(lambda x: np.stack((np.zeros_like(x), 1.0 / (x + 1e-3))))
        values, errors = adaptive_gauss(both, 0.0, 1.0, 1e-10)
        assert (values[0], errors[0]) == (0.0, 0.0)
        assert (values[1], errors[1]) == alone
        assert both.sizes == peaked.sizes

    def test_starved_budget_raises_with_progress(self):
        f = Recorder(np.sqrt)
        with pytest.raises(ConvergenceError) as info:
            adaptive_gauss(f, 0.0, 1.0, 1e-15, max_panels=10)
        exc = info.value
        assert exc.value == pytest.approx(2.0 / 3.0, rel=1e-4)
        assert 0.0 < exc.achieved_abs_err < 1e-3
        assert exc.layer is None and exc.xi is None and exc.kp is None
        assert exc.row == 0
        assert len(f.sizes) == 1 + (10 - 4)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.filterwarnings("error")
    def test_non_finite_integrand_stops_at_once(self, bad):
        # Bisection cannot recover a nan or inf panel; without the check a
        # row would spend its whole panel budget before giving up. The
        # check itself raises no numpy warning.
        def f(x):
            y = np.sqrt(x)
            y[np.argmin(np.abs(x - 0.6))] = bad
            return y

        f = Recorder(f)
        with pytest.raises(FloatingPointError):
            adaptive_gauss(f, 0.0, 1.0, 1e-12)
        assert f.sizes == [4 * NODES_PER_PANEL]


# Row r integrates 1 / (x + c_r) over [A_r, B_r]: the pole distance c_r
# sets how many bisections the row needs, so rows finish in different
# rounds.
POLES = np.array([1e-3, 0.3, 1e-2, 5.0, 1e-4])
A = np.array([0.0, -0.2, 0.1, 1.0, 0.0])
B = np.array([1.0, 0.4, 2.5, 3.0, 0.05])


class RowRecorder:
    """Row-aware integrand that records the shape of every call."""

    def __init__(self):
        self.calls = []

    def __call__(self, x, rows):
        self.calls.append((x.shape, rows.ravel().tolist()))
        return 1.0 / (x + POLES[rows])


class TestAdaptiveGaussRows:
    def test_rows_match_one_row_integrals_bit_for_bit(self):
        values, errors = adaptive_gauss_rows(RowRecorder(), A, B, 1e-12)
        for r, (c, a, b) in enumerate(zip(POLES, A, B)):
            alone = adaptive_gauss(lambda x: 1.0 / (x + c), a, b, 1e-12)
            assert (values[r], errors[r]) == alone
            assert values[r] == pytest.approx(math.log((b + c) / (a + c)), rel=1e-11)

    def test_component_rows_match_one_row_integrals_bit_for_bit(self):
        def f(x, rows):
            c = POLES[rows]
            return np.stack((1.0 / (x + c), np.sqrt(x + c)))

        values, errors = adaptive_gauss_rows(f, A, B, 1e-12)
        assert values.shape == errors.shape == (2, POLES.size)
        for r, (c, a, b) in enumerate(zip(POLES, A, B)):
            alone = adaptive_gauss(lambda x: np.stack((1.0 / (x + c), np.sqrt(x + c))), a, b, 1e-12)
            assert np.array_equal(values[:, r], alone[0])
            assert np.array_equal(errors[:, r], alone[1])
            sqrt_exact = 2.0 / 3.0 * ((b + c) ** 1.5 - (a + c) ** 1.5)
            assert values[:, r] == pytest.approx(
                [math.log((b + c) / (a + c)), sqrt_exact], rel=1e-11
            )

    def test_one_call_per_round(self, monkeypatch):
        log = EstimateLog(monkeypatch)
        f = RowRecorder()
        adaptive_gauss_rows(f, A, B, 1e-12, initial_panels=5)
        splits = log.split_parents([rows for _, rows in f.calls])
        (first_shape, first_rows), *rounds = f.calls
        assert first_shape == (5, 5 * NODES_PER_PANEL)
        assert first_rows == [0, 1, 2, 3, 4]
        # Each later call carries one line of two new panels per row
        # still working; rows drop out as they converge and never return.
        assert len(rounds) > 1
        working = [rows for _, rows in rounds]
        assert all(shape == (len(rows), 2 * NODES_PER_PANEL) for (shape, rows) in rounds)
        assert all(set(later) <= set(earlier) for earlier, later in zip(working, working[1:]))
        assert len(set(map(len, working))) > 1
        assert len(splits) == sum(map(len, working))

    def test_scalar_bounds_broadcast_to_rows(self):
        c = np.array([0.5, 2.0])
        values, _ = adaptive_gauss_rows(
            lambda x, rows: 1.0 / (x + c[rows]), np.zeros(2), 1.0, 1e-12
        )
        assert values == pytest.approx(np.log((1.0 + c) / c), rel=1e-12)

    def test_budget_failure_names_lowest_failing_row(self):
        # Rows 1 and 3 cannot meet 1e-15 in 6 panels; row 1 is named.
        c = np.array([10.0, 1e-6, 20.0, 1e-7])
        with pytest.raises(ConvergenceError) as info:
            adaptive_gauss_rows(
                lambda x, rows: 1.0 / (x + c[rows]), np.zeros(4), np.ones(4),
                1e-15, max_panels=6,
            )
        exc = info.value
        assert exc.row == 1
        with pytest.raises(ConvergenceError) as alone:
            adaptive_gauss(lambda x: 1.0 / (x + 1e-6), 0.0, 1.0, 1e-15, max_panels=6)
        assert alone.value.row == 0
        assert (exc.value, exc.achieved_abs_err) == (
            alone.value.value,
            alone.value.achieved_abs_err,
        )

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            adaptive_gauss_rows(lambda x, rows: x, [0.0, 1.0], [1.0, 1.0], 1e-8)


class TestCcBatch:
    def test_integrand_of_phi_alone(self):
        vals, delta = cc_batch(lambda phi: np.cos(phi) ** 2, 1e-12)
        assert float(vals) == pytest.approx(0.5 * math.pi, rel=1e-13)
        assert delta <= 1e-12 * 0.5 * math.pi

    def test_batch_rows_integrate_independently(self):
        n = np.arange(1, 5)[:, None]
        vals, _ = cc_batch(lambda phi: np.sin(n * phi) ** 2, 1e-12)
        assert vals.shape == (4,)
        assert vals == pytest.approx(np.full(4, 0.5 * math.pi), rel=1e-12)

    def test_failure_names_row_with_largest_estimate(self):
        # sin(n phi)^2 needs more nodes as n grows; row 2 has the largest
        # error estimate. Row 4 converges fast, so its tail is small, but
        # its scale gives it the largest change |Q33 - Q17|: the row named
        # must follow the estimate, not the change.
        n = np.array([1, 30, 60, 2])[:, None]

        def f(phi):
            return np.vstack([n * np.sin(n * phi) ** 2, 1e5 * np.exp(8.0 * np.cos(phi))])

        with pytest.raises(ConvergenceError) as info:
            cc_batch(f, 1e-12, max_half=16)
        assert info.value.row == 2

        x33 = _integrate._cc_rule(16)[0]
        f33 = f(0.5 * np.pi * (x33 + 1.0))
        q17 = 0.5 * np.pi * (f33[:, ::2] @ _integrate._cc_rule(8)[1])
        q33, estimate = reference_cc_estimate(f33, q17)
        assert int(np.argmax(estimate)) == 2
        assert int(np.argmax(np.abs(q33 - q17))) == 4
        assert info.value.achieved_abs_err == pytest.approx(estimate[2], rel=1e-12)

    def test_first_check_is_one_call_of_33_points(self):
        # exp(a cos phi) meets 1e-10 at 33 points, although for a = 5 the
        # 17-point value is still 1e-8 off: the rule stops on the estimate
        # of the 33-point value. The single call must give the bits of 17
        # points and then the 16 odd ones.
        a = np.array([[0.25], [1.0], [5.0]])

        def f(phi):
            return np.exp(a * np.cos(phi))

        rec = Recorder(f)
        vals, delta = cc_batch(rec, 1e-10)
        assert rec.sizes == [33]

        x17, w17 = _integrate._cc_rule(8)
        x33, w33 = _integrate._cc_rule(16)
        f17 = f(0.5 * np.pi * (x17 + 1.0))
        f33 = np.empty((3, 33))
        f33[:, ::2] = f17
        f33[:, 1::2] = f(0.5 * np.pi * (x33[1::2] + 1.0))
        q17 = 0.5 * np.pi * (f17 @ w17)
        q33 = 0.5 * np.pi * (f33 @ w33)
        assert np.array_equal(vals, q33)
        assert np.max(np.abs(q33 - q17)) > 1e-10 * np.max(q33)
        _, estimate = reference_cc_estimate(f33, q17)
        assert delta == pytest.approx(float(np.max(estimate)), rel=1e-5)
        assert delta < 1e-3 * float(np.max(np.abs(q33 - q17)))

    def test_aliased_polynomial_is_not_accepted_at_33_points(self):
        # T_40(2 phi / pi - 1) takes the values of T_24 on the 33 nodes, so
        # their Chebyshev tail (coefficients 28, 30, 32) is zero and the
        # 33-point value is 3.5e-3 off; only the change from 17 points
        # (where it aliases onto T_8) shows it. Exact: pi / (1 - 40^2).
        def t40(phi):
            return np.cos(40.0 * np.arccos(np.clip(2.0 * phi / np.pi - 1.0, -1.0, 1.0)))

        rec = Recorder(t40)
        vals, _ = cc_batch(rec, 1e-12)
        assert len(rec.sizes) > 1
        assert abs(float(vals) - math.pi / (1.0 - 40.0**2)) <= 1e-12

        x33 = _integrate._cc_rule(16)[0]
        f33 = t40(0.5 * np.pi * (x33 + 1.0))
        q33 = 0.5 * np.pi * (f33 @ _integrate._cc_rule(16)[1])
        assert abs(q33 - math.pi / (1.0 - 40.0**2)) > 3e-3

    def test_each_doubling_adds_the_odd_nodes(self):
        rec = Recorder(lambda phi: np.sin(20.0 * phi) ** 2)
        vals, _ = cc_batch(rec, 1e-12)
        assert rec.sizes[0] == 33
        assert rec.sizes[1:] == [32 * 2**i for i in range(len(rec.sizes) - 1)]
        assert float(vals) == pytest.approx(0.5 * math.pi, rel=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.filterwarnings("error")
    def test_non_finite_integrand_stops_at_once(self, bad):
        # Doubling cannot recover a nan or inf sample; without the check
        # the batch would run to 1025 points before giving up.
        def f(phi):
            bent = np.cos(phi) ** 2
            bent[5] = bad
            return np.vstack([np.cos(phi) ** 2, bent])

        rec = Recorder(f)
        with pytest.raises(FloatingPointError, match="not finite"):
            cc_batch(rec, 1e-12)
        assert rec.sizes == [33]

    def test_smallest_budget_stops_after_first_check(self):
        rec = Recorder(lambda phi: np.sin(30.0 * phi) ** 2)
        with pytest.raises(ConvergenceError, match="33 points"):
            cc_batch(rec, 1e-12, max_half=8)
        assert rec.sizes == [33]


# Rows of an angular block, two integrands each: at rel_tol 1e-10 rows 0
# and 2 stop at 33 points, row 1 doubles to 65 and row 3 to 129.
BLOCK_ROWS = (
    lambda t: np.vstack([np.exp(0.25 * np.cos(t)), np.exp(np.cos(t))]),
    lambda t: np.vstack([np.exp(np.cos(t)), 3.0 * np.sin(5.0 * t) ** 2]),
    lambda t: np.vstack([np.exp(-np.cos(t)), 3.0 + np.cos(2.0 * t)]),
    lambda t: np.vstack([100.0 * np.sin(10.0 * t) ** 2, np.exp(np.cos(t))]),
)


class RowsRecorder:
    """Row integrand over a choice of BLOCK_ROWS that records, per call,
    the number of angle nodes and the rows handed over."""

    def __init__(self, picks):
        self.picks = picks
        self.calls = []

    def __call__(self, t, rows):
        self.calls.append((t.size, rows.tolist()))
        return np.stack([BLOCK_ROWS[self.picks[r]](t) for r in rows])


class TestCcRows:
    @pytest.mark.parametrize("picks", [[0, 1, 2, 3], [3, 1], [2, 0, 3], [1]])
    def test_rows_match_the_one_row_rule_bit_for_bit(self, picks):
        rec = RowsRecorder(picks)
        vals, deltas = cc_rows(rec, len(picks), 1e-10)
        assert vals.shape == (len(picks), 2) and deltas.shape == (len(picks),)
        for r, pick in enumerate(picks):
            sizes = []

            def alone(t, pick=pick):
                sizes.append(t.size)
                return BLOCK_ROWS[pick](t)

            alone_vals, alone_delta = cc_batch(alone, 1e-10)
            assert np.array_equal(vals[r], alone_vals)
            assert deltas[r] == alone_delta
            # Every call that handed this row over, at its node count.
            assert [size for size, rows in rec.calls if r in rows] == sizes
        assert rec.calls[0] == (33, list(range(len(picks))))

    def test_stopped_rows_are_never_evaluated_again(self):
        rec = RowsRecorder([0, 1, 2, 3])
        vals, _ = cc_rows(rec, 4, 1e-10)
        assert rec.calls == [(33, [0, 1, 2, 3]), (32, [1, 3]), (64, [3])]
        assert vals[1, 1] == pytest.approx(1.5 * math.pi, rel=1e-12)
        assert vals[3, 0] == pytest.approx(50.0 * math.pi, rel=1e-12)

    def test_failure_names_lowest_failing_row_and_its_worst_element(self):
        # At the first check rows 1 and 3 fail. Row 3 has the block's
        # largest estimate, but row 1 is the lowest failing row; its worst
        # element is element 1, flat index 1 * 2 + 1.
        rec = RowsRecorder([0, 1, 2, 3])
        with pytest.raises(ConvergenceError, match="33 points") as info:
            cc_rows(rec, 4, 1e-10, max_half=16)
        exc = info.value
        assert exc.row == 3
        assert rec.calls == [(33, [0, 1, 2, 3])]
        with pytest.raises(ConvergenceError) as alone:
            cc_batch(BLOCK_ROWS[1], 1e-10, max_half=16)
        assert alone.value.row == 1
        assert (exc.value, exc.achieved_abs_err, str(exc)) == (
            alone.value.value,
            alone.value.achieved_abs_err,
            str(alone.value),
        )
        with pytest.raises(ConvergenceError) as worst:
            cc_batch(BLOCK_ROWS[3], 1e-10, max_half=16)
        assert worst.value.achieved_abs_err > exc.achieved_abs_err
