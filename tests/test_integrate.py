import heapq
import math

import numpy as np
import pytest

from cpsurf import _integrate
from cpsurf._integrate import (
    ConvergenceError,
    adaptive_gauss,
    adaptive_gauss_rows,
    cc_batch,
)

NODES_PER_PANEL = 17  # G8/K17: the Kronrod nodes embed the 8 Gauss nodes


class Recorder:
    """Pointwise integrand that records the size of every call."""

    def __init__(self, fn):
        self.fn = fn
        self.sizes = []

    def __call__(self, x):
        self.sizes.append(len(x))
        return self.fn(x)


def reference_estimate(f, a, b, n_high=17):
    # One panel, one rule per call: the unbatched form of the estimate.
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    nodes, w_k, w_g = _integrate._gauss_kronrod(n_high)
    x_g, w_g8 = np.polynomial.legendre.leggauss((n_high - 1) // 2)
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


class TestGaussKronrodRule:
    def test_layout(self):
        nodes, w_k, w_g = _integrate._gauss_kronrod(17)
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
        nodes, w_k, w_g = _integrate._gauss_kronrod(17)
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
        # tabulated to 33 digits: abscissae from -1 up to the centre.
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
        nodes, w_k, _ = _integrate._gauss_kronrod(15)
        assert nodes[:8] == pytest.approx(-np.array(xgk), abs=4e-16)
        assert w_k.ravel()[:8] == pytest.approx(wgk, rel=4e-15)

    @pytest.mark.parametrize("n_high", [16, 1, 0])
    def test_rejects_even_or_empty_rule(self, n_high):
        with pytest.raises(ValueError):
            _integrate._gauss_kronrod(n_high)


class TestAdaptiveGauss:
    @pytest.mark.parametrize("initial", [4, 7])
    def test_one_call_per_step(self, monkeypatch, initial):
        splits = []
        pop = heapq.heappop

        def counting_pop(heap):
            splits.append(1)
            return pop(heap)

        monkeypatch.setattr(_integrate.heapq, "heappop", counting_pop)
        f = Recorder(lambda x: 1.0 / (x + 0.01))
        val, _ = adaptive_gauss(f, 0.0, 1.0, 1e-12, initial_panels=initial)
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

        batched = _integrate._panel_estimates(f, los, his, 17)
        assert batched == [reference_estimate(f, a, b) for a, b in zip(los, his)]

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

    def test_one_call_per_round(self, monkeypatch):
        splits = []
        pop = heapq.heappop

        def counting_pop(heap):
            splits.append(len(heap))
            return pop(heap)

        monkeypatch.setattr(_integrate.heapq, "heappop", counting_pop)
        f = RowRecorder()
        adaptive_gauss_rows(f, A, B, 1e-12, initial_panels=5)
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
