import heapq
import math

import numpy as np
import pytest

from cpsurf import _integrate
from cpsurf._integrate import ConvergenceError, adaptive_gauss, cc_batch

NODES_PER_PANEL = 8 + 16


class Recorder:
    """Pointwise integrand that records the size of every call."""

    def __init__(self, fn):
        self.fn = fn
        self.sizes = []

    def __call__(self, x):
        self.sizes.append(len(x))
        return self.fn(x)


def reference_estimate(f, a, b, n_low=8, n_high=16):
    # One panel, one rule per call: the unbatched form of the estimate.
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    x_lo, w_lo = np.polynomial.legendre.leggauss(n_low)
    x_hi, w_hi = np.polynomial.legendre.leggauss(n_high)
    i_lo = half * float(np.dot(w_lo, f(mid + half * x_lo)))
    i_hi = half * float(np.dot(w_hi, f(mid + half * x_hi)))
    return i_hi, abs(i_hi - i_lo)


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

        batched = _integrate._panel_estimates(f, los, his, 8, 16)
        assert batched == [reference_estimate(f, a, b) for a, b in zip(los, his)]

    def test_starved_budget_raises_with_progress(self):
        f = Recorder(np.sqrt)
        with pytest.raises(ConvergenceError) as info:
            adaptive_gauss(f, 0.0, 1.0, 1e-15, max_panels=10)
        exc = info.value
        assert exc.value == pytest.approx(2.0 / 3.0, rel=1e-4)
        assert 0.0 < exc.achieved_abs_err < 1e-3
        assert exc.layer is None and exc.xi is None
        assert len(f.sizes) == 1 + (10 - 4)


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
