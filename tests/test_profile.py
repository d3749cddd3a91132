import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from cpsurf import closedforms as cf, profile as prof, quadrature as quad
from cpsurf.constants import EV, HBAR
from cpsurf.quadrature import IntegralResult

K_C = 2.0 * math.pi / 10e-6
Z_A = 2e-6


def decaying_g(z_atom: float, scale: float = 1e-28):
    """Closed-form stand-in response: smooth, negative, decaying in k."""

    def g_of_k(k: float) -> IntegralResult:
        return IntegralResult(-scale * math.exp(-k * z_atom), 0.0)

    return g_of_k


class TestProfiles:
    def test_sinusoid_height_and_measures(self):
        s = prof.Sinusoid(100e-9, K_C, phase=0.3, direction=(0.0, 1.0))
        assert s.height((0.5e-6, 0.0)) == pytest.approx(100e-9 * math.cos(0.3))
        assert s.amplitude == 100e-9
        assert s.steepness == pytest.approx(100e-9 * K_C)

    def test_spectrum_height_is_real_part_of_mode_sum(self):
        modes = [((K_C, 0.0), 20e-9 + 10e-9j), ((0.0, 2 * K_C), 5e-9)]
        sp = prof.Spectrum(modes)
        r = (1.3e-6, -0.4e-6)
        ref = sum(
            (a * cmath.exp(1j * (kx * r[0] + ky * r[1]))).real
            for (kx, ky), a in modes
        )
        assert sp.height(r) == pytest.approx(ref, rel=1e-14)
        assert sp.amplitude == pytest.approx(abs(20e-9 + 10e-9j) + 5e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            prof.Sinusoid(-1e-9, K_C)
        with pytest.raises(ValueError):
            prof.Sinusoid(1e-9, -K_C)
        with pytest.raises(ValueError):
            prof.Sinusoid(1e-9, K_C, direction=(0.0, 0.0))
        with pytest.raises(ValueError):
            prof.Spectrum([])
        for field in ("h0", "k_c", "phase"):
            for bad in (math.nan, math.inf):
                with pytest.raises(ValueError, match=f"^{field} must be finite"):
                    prof.Sinusoid(**{"h0": 1e-9, "k_c": K_C, field: bad})


class TestFirstOrderAssembly:
    def test_sinusoid_matches_hand_assembly(self):
        g = decaying_g(Z_A)
        s = prof.Sinusoid(100e-9, K_C, phase=0.7)
        for x in (0.0, 1.1e-6, -3.7e-6):
            u = prof.first_order_potential(s, (x, 0.0), Z_A, g_of_k=g)
            ref = 100e-9 * g(K_C).value * math.cos(K_C * x + 0.7)
            assert u.value == pytest.approx(ref, rel=1e-14)

    def test_spectrum_matches_cosine_expansion(self):
        # Hermitian pair H(k), H(-k) = conj with independent cos oracle.
        g = decaying_g(Z_A)
        amp = 30e-9 * cmath.exp(0.4j)
        sp = prof.Spectrum(
            [((K_C, 0.0), amp), ((-K_C, 0.0), amp.conjugate())]
        )
        x = 0.9e-6
        u = prof.first_order_potential(sp, (x, 0.0), Z_A, g_of_k=g)
        ref = 2.0 * abs(amp) * math.cos(K_C * x + 0.4) * g(K_C).value
        assert u.value == pytest.approx(ref, rel=1e-13)

    def test_spectrum_pair_equals_sinusoid(self):
        g = decaying_g(Z_A)
        s = prof.Sinusoid(80e-9, K_C, phase=0.25)
        sp = prof.Spectrum(
            [
                ((K_C, 0.0), 40e-9 * cmath.exp(0.25j)),
                ((-K_C, 0.0), 40e-9 * cmath.exp(-0.25j)),
            ]
        )
        for x in (0.0, 2.3e-6):
            us = prof.first_order_potential(s, (x, 0.0), Z_A, g_of_k=g)
            up = prof.first_order_potential(sp, (x, 0.0), Z_A, g_of_k=g)
            assert up.value == pytest.approx(us.value, rel=1e-12)

    @given(h0=st.floats(1e-10, 2e-7))
    @hyp_settings(max_examples=30, deadline=None)
    def test_linear_in_amplitude(self, h0):
        g = decaying_g(Z_A)
        u1 = prof.first_order_potential(
            prof.Sinusoid(h0, K_C), (0.3e-6, 0.0), Z_A, g_of_k=g
        )
        u2 = prof.first_order_potential(
            prof.Sinusoid(2.0 * h0, K_C), (0.3e-6, 0.0), Z_A, g_of_k=g
        )
        assert u2.value == pytest.approx(2.0 * u1.value, rel=1e-12)

    @given(angle=st.floats(0.0, 2.0 * math.pi))
    @hyp_settings(max_examples=30, deadline=None)
    def test_rotation_invariance(self, angle):
        # Rotating corrugation direction and atom position together must
        # leave U1 unchanged: only |k| and r . direction enter.
        g = decaying_g(Z_A)
        d = (math.cos(angle), math.sin(angle))
        x_par = 1.7e-6
        u_rot = prof.first_order_potential(
            prof.Sinusoid(50e-9, K_C, direction=d),
            (x_par * d[0], x_par * d[1]),
            Z_A,
            g_of_k=g,
        )
        u_ref = prof.first_order_potential(
            prof.Sinusoid(50e-9, K_C), (x_par, 0.0), Z_A, g_of_k=g
        )
        assert u_rot.value == pytest.approx(u_ref.value, rel=1e-10)

    def test_superposition(self):
        g = decaying_g(Z_A)
        m1 = ((K_C, 0.0), 20e-9 + 0j)
        m2 = ((0.0, 3 * K_C), 10e-9 - 4e-9j)
        m1c = ((-K_C, 0.0), 20e-9 - 0j)
        m2c = ((0.0, -3 * K_C), 10e-9 + 4e-9j)
        r = (0.6e-6, -1.1e-6)
        u12 = prof.first_order_potential(
            prof.Spectrum([m1, m1c, m2, m2c]), r, Z_A, g_of_k=g
        )
        u1 = prof.first_order_potential(prof.Spectrum([m1, m1c]), r, Z_A, g_of_k=g)
        u2 = prof.first_order_potential(prof.Spectrum([m2, m2c]), r, Z_A, g_of_k=g)
        assert u12.value == pytest.approx(u1.value + u2.value, rel=1e-12)

    def test_non_hermitian_spectrum_raises(self):
        g = decaying_g(Z_A)
        sp = prof.Spectrum([((K_C, 0.0), 30e-9 + 10e-9j)])
        with pytest.raises(ValueError, match="Hermitian"):
            prof.first_order_potential(sp, (0.37e-6, 0.0), Z_A, g_of_k=g)

    def test_atom_below_crest_raises(self):
        s = prof.Sinusoid(100e-9, K_C)
        with pytest.raises(ValueError):
            prof.first_order_potential(s, (0.0, 0.0), 80e-9, g_of_k=decaying_g(Z_A))

    def test_steep_profile_warns_but_returns(self):
        g = decaying_g(Z_A)
        steep = prof.Sinusoid(0.5e-6, 2.0 * math.pi / 5e-6)
        with pytest.warns(UserWarning, match="validity"):
            prof.first_order_potential(steep, (0.0, 0.0), 3e-6, g_of_k=g)
        tall = prof.Sinusoid(0.9e-6, 2e4)
        with pytest.warns(UserWarning, match="validity"):
            prof.first_order_potential(tall, (0.0, 0.0), 2e-6, g_of_k=g)

    def test_shallow_profile_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            prof.first_order_potential(
                prof.Sinusoid(100e-9, K_C), (0.0, 0.0), Z_A, g_of_k=decaying_g(Z_A)
            )


class TestQuadratureRoute:
    def test_headline_amplitude(self, static_rb, mirror, fast_settings):
        # 100 nm sinusoid, 10 um period, 2 um distance, static Rb, mirror.
        s = prof.Sinusoid(100e-9, K_C)
        u1 = prof.first_order_potential(s, (0.0, 0.0), Z_A, static_rb, mirror, fast_settings)
        assert u1.value < 0.0
        assert abs(u1.value) / EV == pytest.approx(1.1344603465e-14, rel=1e-6)

    def test_trough_flips_sign(self, static_rb, mirror, fast_settings):
        s = prof.Sinusoid(100e-9, K_C)
        crest = prof.first_order_potential(s, (0.0, 0.0), Z_A, static_rb, mirror, fast_settings)
        trough = prof.first_order_potential(
            s, (math.pi / K_C, 0.0), Z_A, static_rb, mirror, fast_settings
        )
        assert trough.value == pytest.approx(-crest.value, rel=1e-9)

    def test_exact_to_pfa_ratio_is_rho(self, static_rb, mirror, fast_settings):
        s = prof.Sinusoid(100e-9, K_C)
        r = (0.8e-6, 0.0)
        u1 = prof.first_order_potential(s, r, Z_A, static_rb, mirror, fast_settings)
        pfa = prof.pfa_first_order(s, r, Z_A, static_rb, mirror, fast_settings)
        # U1 = h(r) g(k_c) vs PFA = h(r) g(0) and force = potential slope
        # reuse the same quadrature, so the ratio is exactly rho(k_c).
        rho = quad.rho(static_rb, mirror, Z_A, K_C, fast_settings)
        assert u1.value / pfa.value == pytest.approx(rho.value, rel=1e-10)

    def test_long_wavelength_limit_is_pfa(self, static_rb, mirror, fast_settings):
        s = prof.Sinusoid(100e-9, 2.0 * math.pi / 1.0)
        r = (0.1, 0.0)
        u1 = prof.first_order_potential(s, r, Z_A, static_rb, mirror, fast_settings)
        pfa = prof.pfa_first_order(s, r, Z_A, static_rb, mirror, fast_settings)
        assert u1.value == pytest.approx(pfa.value, rel=1e-6)


class TestLateralForce:
    def test_zero_at_crest(self, static_rb, mirror):
        s = prof.Sinusoid(100e-9, K_C)
        f = prof.lateral_force(s, (0.0, 0.0), Z_A, g_of_k=decaying_g(Z_A))
        assert f.value == 0.0

    def test_quarter_wave_amplitude(self):
        g = decaying_g(Z_A)
        s = prof.Sinusoid(100e-9, K_C)
        f = prof.lateral_force(s, (0.5 * math.pi / K_C, 0.0), Z_A, g_of_k=g)
        assert f.value == pytest.approx(100e-9 * K_C * g(K_C).value, rel=1e-14)

    def test_matches_potential_slope(self):
        g = decaying_g(Z_A)
        s = prof.Sinusoid(100e-9, K_C, phase=0.3)
        x, h = 1.2e-6, 1e-9
        up = prof.first_order_potential(s, (x + h, 0.0), Z_A, g_of_k=g).value
        um = prof.first_order_potential(s, (x - h, 0.0), Z_A, g_of_k=g).value
        f = prof.lateral_force(s, (x, 0.0), Z_A, g_of_k=g).value
        assert f == pytest.approx(-(up - um) / (2.0 * h), rel=1e-4)

    def test_spectrum_vector_matches_sinusoid_along_x(self):
        g = decaying_g(Z_A)
        s = prof.Sinusoid(80e-9, K_C, phase=0.25)
        sp = prof.Spectrum(
            [
                ((K_C, 0.0), 40e-9 * cmath.exp(0.25j)),
                ((-K_C, 0.0), 40e-9 * cmath.exp(-0.25j)),
            ]
        )
        r = (0.9e-6, 0.2e-6)
        fs = prof.lateral_force(s, r, Z_A, g_of_k=g)
        fx, fy = prof.lateral_force(sp, r, Z_A, g_of_k=g)
        assert fx.value == pytest.approx(fs.value, rel=1e-12)
        assert fy.value == 0.0


class TestBecProbe:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            prof.BecProbeConfig(0.0, 1e-9, 1e-25, 1.0, 1e-6, 1e-6)

    def test_zero_density_gives_trap_zero_point(self):
        cfg = prof.rb87_bec_probe()
        assert prof.bec_density_to_potential(0.0, cfg) == -HBAR * cfg.omega_tr

    def test_round_trip(self):
        cfg = prof.rb87_bec_probe()
        n = 3.2e6
        v = prof.bec_density_to_potential(n, cfg)
        assert prof.bec_potential_to_density(v, cfg) == pytest.approx(n, rel=1e-12)

    def test_inverse_rejects_unreachable_potential(self):
        cfg = prof.rb87_bec_probe()
        with pytest.raises(ValueError):
            prof.bec_potential_to_density(-0.5 * HBAR * cfg.omega_tr, cfg)

    def test_sensitivity_assembles_from_coupling(self):
        cfg = prof.rb87_bec_probe()
        gamma = 2.0 * HBAR**2 * cfg.a_scat / cfg.mass
        ref = gamma * cfg.delta_n / (cfg.rho0**2 * cfg.x0)
        assert prof.bec_coupling(cfg) == pytest.approx(gamma, rel=1e-14)
        assert prof.bec_sensitivity(cfg) == pytest.approx(ref, rel=1e-14)
        assert 1e-14 < ref / EV < 1e-13

    def test_sensitivity_frozen_value(self):
        ref_ev = prof.bec_sensitivity(prof.rb87_bec_probe()) / EV
        assert ref_ev == pytest.approx(1.748413234109658e-14, rel=1e-12)


class TestDetectability:
    def _report(self, z_atom, alpha0):
        def g_of_k(k):
            return IntegralResult(cf.g_cp_perf(k, z_atom, alpha0), 0.0)

        s = prof.Sinusoid(100e-9, K_C)
        return prof.detectability_report(s, z_atom, g_of_k=g_of_k)

    def test_marginal_at_headline_distance(self, static_rb):
        rep = self._report(2e-6, static_rb.alpha0)
        expected = (
            100e-9
            * abs(cf.g_cp_perf(K_C, 2e-6, static_rb.alpha0))
            / prof.bec_sensitivity(prof.rb87_bec_probe())
        )
        assert rep.ratio == pytest.approx(expected, rel=1e-12)
        assert rep.ratio == pytest.approx(0.648851383851919, rel=1e-9)
        assert rep.classification == "marginal"

    def test_detectable_when_close(self, static_rb):
        rep = self._report(1e-6, static_rb.alpha0)
        assert rep.ratio > 3.0 and rep.classification == "detectable"

    def test_undetectable_when_far(self, static_rb):
        rep = self._report(10e-6, static_rb.alpha0)
        assert rep.ratio < 1.0 / 3.0 and rep.classification == "undetectable"

    def test_quadrature_route_agrees(self, static_rb, mirror, fast_settings):
        s = prof.Sinusoid(100e-9, K_C)
        rep = prof.detectability_report(s, 2e-6, static_rb, mirror, settings=fast_settings)
        assert rep.ratio == pytest.approx(0.648851383851919, rel=1e-6)
        assert rep.classification == "marginal"
