import math

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from cpsurf import atomics
from cpsurf.constants import C_LIGHT, EPS0, HBAR, RB87_OMEGA_A


class TestPolarizabilityModels:
    def test_static_is_flat(self):
        model = atomics.StaticPolarizability(5e-39)
        assert model.alpha(0.0) == 5e-39
        assert model.alpha(1e16) == 5e-39

    def test_single_oscillator_profile(self):
        model = atomics.SingleOscillatorPolarizability(5e-39, 2e15)
        assert model.alpha(0.0) == 5e-39
        assert model.alpha(2e15) == pytest.approx(2.5e-39, rel=1e-14)
        xi = np.array([0.0, 1e15, 1e16])
        out = model.alpha(xi)
        assert out.shape == (3,) and np.all(np.diff(out) < 0.0)

    def test_rb87_preset(self):
        rb = atomics.rubidium_single_oscillator()
        assert rb.alpha0 == pytest.approx(4.0 * math.pi * EPS0 * 47.3e-30, rel=1e-14)
        assert rb.omega_a == pytest.approx(2.0 * math.pi * C_LIGHT / 780e-9, rel=1e-14)

    def test_multilevel_matches_oscillator(self):
        # A single transition (omega, d) is an oscillator with
        # alpha0 = 2 d^2 / (3 hbar omega).
        omega, d = 2.4e15, 2.6e-29
        ml = atomics.MultilevelPolarizability(((omega, d),))
        osc = atomics.SingleOscillatorPolarizability(
            2.0 * d**2 / (3.0 * HBAR * omega), omega
        )
        for xi in (0.0, 1e14, 3e15, 8e16):
            assert ml.alpha(xi) == pytest.approx(osc.alpha(xi), rel=1e-13)

    def test_multilevel_superposes(self):
        t1, t2 = (2.4e15, 2.6e-29), (5.9e15, 1.1e-29)
        both = atomics.MultilevelPolarizability((t1, t2))
        for xi in (0.0, 1e15, 1e16):
            want = (
                atomics.MultilevelPolarizability((t1,)).alpha(xi)
                + atomics.MultilevelPolarizability((t2,)).alpha(xi)
            )
            assert both.alpha(xi) == pytest.approx(want, rel=1e-13)

    def test_transitions_round_trip(self):
        rb = atomics.rubidium_single_oscillator()
        ((omega, d),) = atomics.transitions_for_vdw(rb)
        assert omega == rb.omega_a
        assert 2.0 * d**2 / (3.0 * HBAR * omega) == pytest.approx(rb.alpha0, rel=1e-13)

    def test_polarizability_dispatch(self):
        rb = atomics.rubidium_single_oscillator()
        assert atomics.polarizability(rb, 1e15) == rb.alpha(1e15)

    @given(xi=st.floats(min_value=0.0, max_value=1e17))
    @hyp_settings(max_examples=60, deadline=None)
    def test_positive_and_bounded_by_static(self, xi):
        rb = atomics.rubidium_single_oscillator()
        assert 0.0 < rb.alpha(xi) <= rb.alpha0

    def test_tabulated(self):
        xi = np.geomspace(1e12, 1e17, 40)
        rb = atomics.rubidium_single_oscillator()
        tab = atomics.TabulatedPolarizability(xi, rb.alpha(xi))
        assert tab.alpha(xi[3]) == pytest.approx(rb.alpha(xi[3]), rel=1e-12)
        mid = math.sqrt(xi[0] * xi[1])
        assert tab.alpha(mid) == pytest.approx(rb.alpha(mid), rel=1e-4)
        with pytest.raises(ValueError):
            tab.alpha(1e18)

    def test_validation(self):
        with pytest.raises(ValueError):
            atomics.StaticPolarizability(0.0)
        with pytest.raises(ValueError):
            atomics.SingleOscillatorPolarizability(5e-39, -1.0)
        with pytest.raises(ValueError):
            atomics.MultilevelPolarizability(())
        with pytest.raises(ValueError):
            atomics.MultilevelPolarizability(((2e15, 0.0),))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize(
        "make, field",
        [
            (lambda v: atomics.StaticPolarizability(v), "alpha0"),
            (lambda v: atomics.SingleOscillatorPolarizability(v, 2e15), "alpha0"),
            (lambda v: atomics.SingleOscillatorPolarizability(5e-39, v), "omega_a"),
            (lambda v: atomics.MultilevelPolarizability(((v, 2.6e-29),)), "transition"),
            (lambda v: atomics.MultilevelPolarizability(((2.4e15, v),)), "transition"),
        ],
    )
    def test_rejects_non_finite(self, make, field, bad):
        with pytest.raises(ValueError, match=f"{field}.* must be finite"):
            make(bad)
