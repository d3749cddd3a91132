import math

import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given, settings as hyp_settings, strategies as st

from cpsurf import closedforms as cf
from cpsurf.atomics import transitions_for_vdw
from cpsurf.constants import (
    EPS0,
    EV,
    GOLD_OMEGA_P,
    RB87_OMEGA_A,
    SILICON_EPS_STATIC,
    SILICON_OMEGA_DL,
)

RB_ALPHA0 = 4.0 * math.pi * EPS0 * 47.3e-30

# 21-digit reference values (arbitrary-precision arithmetic), spanning the
# series/Chebyshev seam at x = 2.
_BESSEL_REFERENCE = [
    (1e-06, 13.9314420736264194134, 999999.999992784278963),
    (0.0001, 9.32627191345027492089, 9999.99950868640495725),
    (0.01, 4.72124473016109496514, 99.973894118296247643),
    (0.5, 0.924419071227665861782, 1.6564411200033008937),
    (1.0, 0.421024438240708333336, 0.601907230197234574738),
    (1.999, 0.114033830589232924139, 0.140049842077109682898),
    (2.0, 0.113893872749533435653, 0.139865881816522427285),
    (2.001, 0.113754098736684611598, 0.139682188301767534961),
    (5.0, 0.00369109833404259427474, 0.00404461344545216420837),
    (12.0, 0.00000220082539731149140052, 0.00000229075746476718781592),
    (30.0, 2.13247749646305637117e-14, 2.16773200189154942487e-14),
    (50.0, 3.41016774978949551392e-23, 3.44410222671755561259e-23),
]


class TestBessel:
    def test_reference_values(self):
        for x, k0_ref, k1_ref in _BESSEL_REFERENCE:
            k0, k1 = cf.bessel_k0_k1(x)
            assert k0 == pytest.approx(k0_ref, rel=1e-13)
            assert k1 == pytest.approx(k1_ref, rel=1e-13)

    def test_against_library_grid(self):
        x = np.geomspace(1e-6, 50.0, 400)
        k0, k1 = cf.bessel_k0_k1(x)
        assert np.max(np.abs(k0 / sp.k0(x) - 1.0)) < 1e-10
        assert np.max(np.abs(k1 / sp.k1(x) - 1.0)) < 1e-10

    def test_scaled_consistency(self):
        x = np.geomspace(1e-4, 40.0, 60)
        k0e, k1e = cf.bessel_k0e_k1e(x)
        k0, k1 = cf.bessel_k0_k1(x)
        assert np.allclose(k0e * np.exp(-x), k0, rtol=1e-12)
        assert np.allclose(k1e * np.exp(-x), k1, rtol=1e-12)

    def test_scalar_matches_array(self):
        k0s, k1s = cf.bessel_k0_k1(0.37)
        k0a, k1a = cf.bessel_k0_k1(np.array([0.37]))
        assert k0s == k0a[0] and k1s == k1a[0]
        assert isinstance(k0s, float)

    @given(st.floats(min_value=1e-5, max_value=45.0))
    @hyp_settings(max_examples=80, deadline=None)
    def test_wronskian(self, x):
        # K1(x) I0(x) + K0(x) I1(x) = 1/x, with I0, I1 from the library.
        k0, k1 = cf.bessel_k0_k1(x)
        lhs = k1 * sp.i0(x) + k0 * sp.i1(x)
        assert lhs * x == pytest.approx(1.0, rel=1e-11)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            cf.bessel_k0_k1(0.0)
        with pytest.raises(ValueError):
            cf.bessel_k0_k1(-1.0)


class TestRetardedMirrorFamily:
    def test_rho_endpoints(self):
        assert cf.rho_cp_perf(0.0) == 1.0
        assert cf.rho_cp_perf(1.0) == pytest.approx(
            math.exp(-1.0) * 107.0 / 45.0, rel=1e-14
        )

    def test_rho_monotone_decay(self):
        big_z = np.linspace(0.0, 25.0, 200)
        vals = cf.rho_cp_perf(big_z)
        assert np.all(np.diff(vals) < 0.0)
        assert np.all(vals > 0.0) and np.all(vals <= 1.0)

    def test_rho_zero_slope_at_origin(self):
        h = 1e-5
        assert abs(cf.rho_cp_perf(h) - cf.rho_cp_perf(0.0)) < h

    def test_rho_rejects_negative(self):
        with pytest.raises(ValueError):
            cf.rho_cp_perf(-0.1)

    def test_force_potential_relation(self):
        # F = -dU/dz for U ~ z^-4 means f_cp0 = 4 u_cp0 / z.
        for z in (5e-9, 1e-6, 3e-5):
            assert cf.f_cp0(z, RB_ALPHA0) == pytest.approx(
                4.0 * cf.u_cp0(z, RB_ALPHA0) / z, rel=1e-14
            )

    def test_scaling_laws(self):
        assert cf.f_cp0(2e-6, RB_ALPHA0) == pytest.approx(
            cf.f_cp0(1e-6, RB_ALPHA0) / 32.0, rel=1e-14
        )
        assert cf.u_cp0(2e-6, RB_ALPHA0) == pytest.approx(
            cf.u_cp0(1e-6, RB_ALPHA0) / 16.0, rel=1e-14
        )
        assert cf.f_cp0(1e-6, 2.0 * RB_ALPHA0) == pytest.approx(
            2.0 * cf.f_cp0(1e-6, RB_ALPHA0), rel=1e-14
        )
        assert cf.f_cp0(1e-6, RB_ALPHA0) < 0.0
        assert cf.u_cp0(1e-6, RB_ALPHA0) < 0.0

    def test_g_reduces_to_force_at_zero_k(self):
        z = 2e-6
        assert cf.g_cp_perf(0.0, z, RB_ALPHA0) == cf.f_cp0(z, RB_ALPHA0)

    def test_g_factorizes(self):
        z, k = 2e-6, 5e5
        assert cf.g_cp_perf(k, z, RB_ALPHA0) == pytest.approx(
            cf.f_cp0(z, RB_ALPHA0) * cf.rho_cp_perf(k * z), rel=1e-14
        )

    def test_headline_amplitude(self):
        # 100 nm sinusoid, 10 um period, 2 um distance, static Rb, mirror.
        k_c = 2.0 * math.pi / 10e-6
        amp = 100e-9 * abs(cf.g_cp_perf(k_c, 2e-6, RB_ALPHA0)) / EV
        assert amp == pytest.approx(1.1344603465e-14, rel=1e-9)


@pytest.fixture(scope="module")
def rb_transitions(osc_rb):
    return transitions_for_vdw(osc_rb)


# The k = 0 limits of the g_vdw_* family in their explicit forms, with
# x = omega_p / omega_n (omega_dl / omega_n for the dielectric).
def _zero_k_perfect(z, transitions):
    return -sum(d * d for _, d in transitions) / (16.0 * math.pi * EPS0 * z**4)


def _zero_k_plasma(z, transitions, omega_p):
    total = 0.0
    for omega, d in transitions:
        x = omega_p / omega
        total -= d**2 * x / (16.0 * math.pi * EPS0 * z**4 * (x + math.sqrt(2.0)))
    return total


def _zero_k_plasmon(z, transitions, omega_p):
    total = 0.0
    for omega, d in transitions:
        x = omega_p / omega
        total -= d**2 * x / (16.0 * math.sqrt(2.0) * math.pi * EPS0 * z**4)
    return total


def _zero_k_drude_lorentz(z, transitions, omega_dl, eps_static):
    gm = eps_static - 1.0
    w = math.sqrt(gm + 2.0)
    total = 0.0
    for omega, d in transitions:
        x = omega_dl / omega
        total -= gm * d**2 * x / (16.0 * math.pi * EPS0 * z**4 * w * (w * x + math.sqrt(2.0)))
    return total


TWO_TRANSITIONS = ((RB87_OMEGA_A, 2.5e-29), (3.1 * RB87_OMEGA_A, 0.9e-29))


class TestNonretardedFamily:
    Z, K = 5e-9, 1e8 / 3.0

    def test_zero_k_limits_continuous(self, rb_transitions):
        cases = [
            (cf.g_vdw_perfect, ()),
            (cf.g_vdw_plasma, (GOLD_OMEGA_P,)),
            (cf.g_vdw_plasmon, (GOLD_OMEGA_P,)),
            (cf.g_vdw_drude_lorentz, (SILICON_OMEGA_DL, SILICON_EPS_STATIC)),
        ]
        for fn, extra in cases:
            g0 = fn(0.0, self.Z, rb_transitions, *extra)
            ramp = fn(1e-4 / self.Z, self.Z, rb_transitions, *extra)
            assert ramp == pytest.approx(g0, rel=1e-3)
            assert g0 < 0.0

    @pytest.mark.parametrize(
        "fn, reference, extra",
        [
            (cf.g_vdw_perfect, _zero_k_perfect, ()),
            (cf.g_vdw_plasma, _zero_k_plasma, (GOLD_OMEGA_P,)),
            (cf.g_vdw_plasma, _zero_k_plasma, (1e-3 * RB87_OMEGA_A,)),
            (cf.g_vdw_plasmon, _zero_k_plasmon, (GOLD_OMEGA_P,)),
            (cf.g_vdw_drude_lorentz, _zero_k_drude_lorentz, (SILICON_OMEGA_DL, SILICON_EPS_STATIC)),
            (cf.g_vdw_drude_lorentz, _zero_k_drude_lorentz, (0.4 * RB87_OMEGA_A, 3.0)),
        ],
    )
    def test_zero_k_matches_explicit_limit(self, fn, reference, extra):
        for z in (5e-9, 1e-7):
            got = fn(0.0, z, TWO_TRANSITIONS, *extra)
            assert got == pytest.approx(reference(z, TWO_TRANSITIONS, *extra), rel=1e-14)

    def test_plasma_reaches_perfect_mirror(self, rb_transitions):
        gp = cf.g_vdw_perfect(self.K, self.Z, rb_transitions)
        devs = [
            abs(cf.g_vdw_plasma(self.K, self.Z, rb_transitions, x * RB87_OMEGA_A) / gp - 1.0)
            for x in (1e2, 1e4, 1e6)
        ]
        assert devs == sorted(devs, reverse=True)
        assert devs[-1] < 1e-5

    def test_plasma_reaches_plasmon(self, rb_transitions):
        om_p = 1e-3 * RB87_OMEGA_A
        gpl = cf.g_vdw_plasma(self.K, self.Z, rb_transitions, om_p)
        gsp = cf.g_vdw_plasmon(self.K, self.Z, rb_transitions, om_p)
        assert gpl == pytest.approx(gsp, rel=2e-3)

    def test_drude_lorentz_reaches_plasma(self, rb_transitions):
        # eps_s -> inf at fixed omega_dl sqrt(eps_s - 1) recovers the metal.
        om_p = GOLD_OMEGA_P
        gref = cf.g_vdw_plasma(self.K, self.Z, rb_transitions, om_p)
        for eps_s, tol in ((1e4, 1e-2), (1e6, 1e-4)):
            gdl = cf.g_vdw_drude_lorentz(
                self.K, self.Z, rb_transitions, om_p / math.sqrt(eps_s - 1.0), eps_s
            )
            assert gdl == pytest.approx(gref, rel=tol)

    def test_drude_lorentz_transparent_limit(self, rb_transitions):
        assert cf.g_vdw_drude_lorentz(
            self.K, self.Z, rb_transitions, SILICON_OMEGA_DL, 1.0
        ) == 0.0

    def test_metal_weaker_than_mirror(self, rb_transitions):
        for k in (0.0, 0.3 / self.Z, 1.0 / self.Z):
            gp = cf.g_vdw_perfect(k, self.Z, rb_transitions)
            gm = cf.g_vdw_plasma(k, self.Z, rb_transitions, GOLD_OMEGA_P)
            assert 0.0 < abs(gm) < abs(gp)

    def test_plasmon_is_small_ratio_slope(self, rb_transitions):
        # At k = 0 the plasmon form is plasma times (x + sqrt 2)/sqrt 2,
        # i.e. the exact leading small-(omega_p/omega_a) behavior.
        ((omega_a, _),) = rb_transitions
        x = GOLD_OMEGA_P / omega_a
        gm = cf.g_vdw_plasma(0.0, self.Z, rb_transitions, GOLD_OMEGA_P)
        gs = cf.g_vdw_plasmon(0.0, self.Z, rb_transitions, GOLD_OMEGA_P)
        assert gs == pytest.approx(gm * (x + math.sqrt(2.0)) / math.sqrt(2.0), rel=1e-12)

    def test_drude_lorentz_regular_at_internal_root(self, rb_transitions):
        # The factored form stays smooth where w x crosses sqrt 2.
        w = math.sqrt(SILICON_EPS_STATIC + 1.0)
        x_star = math.sqrt(2.0) / w
        xs = np.linspace(0.8 * x_star, 1.2 * x_star, 9)
        vals = np.array([
            cf.g_vdw_drude_lorentz(
                self.K, self.Z, rb_transitions, x * RB87_OMEGA_A, SILICON_EPS_STATIC
            )
            for x in xs
        ])
        assert np.all(np.isfinite(vals))
        assert np.all(np.diff(vals) > 0.0) or np.all(np.diff(vals) < 0.0)

    def test_zero_k_z_scaling(self, rb_transitions):
        # g(0, z) ~ z^-4 in the nonretarded regime.
        g1 = cf.g_vdw_plasma(0.0, 5e-9, rb_transitions, GOLD_OMEGA_P)
        g2 = cf.g_vdw_plasma(0.0, 10e-9, rb_transitions, GOLD_OMEGA_P)
        assert g1 == pytest.approx(16.0 * g2, rel=1e-12)

    @given(scale=st.floats(min_value=0.1, max_value=10.0))
    @hyp_settings(max_examples=40, deadline=None)
    def test_dipole_square_linearity(self, rb_transitions, scale):
        base = tuple((w, d) for w, d in rb_transitions)
        scaled = tuple((w, d * math.sqrt(scale)) for w, d in base)
        g_base = cf.g_vdw_plasma(self.K, self.Z, base, GOLD_OMEGA_P)
        g_scaled = cf.g_vdw_plasma(self.K, self.Z, scaled, GOLD_OMEGA_P)
        assert g_scaled == pytest.approx(scale * g_base, rel=1e-12)

    def test_validation(self, rb_transitions):
        with pytest.raises(ValueError):
            cf.g_vdw_perfect(-1.0, self.Z, rb_transitions)
        with pytest.raises(ValueError):
            cf.g_vdw_perfect(self.K, 0.0, rb_transitions)
        with pytest.raises(ValueError):
            cf.g_vdw_perfect(self.K, self.Z, ())
        with pytest.raises(ValueError):
            cf.g_vdw_plasma(self.K, self.Z, ((RB87_OMEGA_A, -1e-29),), GOLD_OMEGA_P)
        with pytest.raises(ValueError):
            cf.g_vdw_plasma(self.K, self.Z, rb_transitions, 0.0)
        with pytest.raises(ValueError):
            cf.g_vdw_drude_lorentz(self.K, self.Z, rb_transitions, SILICON_OMEGA_DL, 0.5)
