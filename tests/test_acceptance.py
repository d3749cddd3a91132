"""End-to-end acceptance gate.

One test per shipped criterion; each prints a single PASS/FAIL line with
the measured numbers so the final report is self-contained. Tolerances
are asserted exactly as stated, including the two known-tight legs
(criterion 5 roll-off window, criterion 6 gold short-distance slope).
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest
import scipy.special as sp

from cpsurf import closedforms as cf, kernel, optics, profile as prof, quadrature as quad
from cpsurf.atomics import (
    StaticPolarizability,
    rubidium_single_oscillator,
    transitions_for_vdw,
)
from cpsurf.constants import C_LIGHT, EV
from cpsurf.optics import SILICON_EPS_STATIC, SILICON_OMEGA_DL
from cpsurf.quadrature import IntegralResult, QuadratureSettings

RB = rubidium_single_oscillator()
STATIC = StaticPolarizability(RB.alpha0)
MIRROR = optics.PerfectConductor()
GOLD = optics.gold_plasma()
SILICON = optics.silicon_drude_lorentz()
SETTINGS = QuadratureSettings()
TRANSITIONS = transitions_for_vdw(RB)


def _line(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n:02d}: {'PASS' if ok else 'FAIL'}  {detail}")


def test_criterion_01_headline_amplitude():
    # 100 nm sinusoid, 10 um period, 2 um distance, static Rb, mirror:
    # first-order amplitude 1.13e-14 eV within 1% by both routes, < 10 s.
    t0 = time.monotonic()
    k_c = 2.0 * math.pi / 10e-6
    z = 2e-6
    amp_cf = 100e-9 * abs(cf.g_cp_perf(k_c, z, STATIC.alpha0)) / EV
    amp_quad = 100e-9 * abs(quad.response_g(STATIC, MIRROR, z, k_c, SETTINGS).value) / EV
    elapsed = time.monotonic() - t0
    dev_cf = abs(amp_cf / 1.13e-14 - 1.0)
    dev_quad = abs(amp_quad / 1.13e-14 - 1.0)
    ok = dev_cf < 0.01 and dev_quad < 0.01 and elapsed < 10.0
    _line(
        1,
        ok,
        f"closed form {amp_cf:.4e} eV (dev {dev_cf:.2%}), "
        f"quadrature {amp_quad:.4e} eV (dev {dev_quad:.2%}), {elapsed:.1f} s",
    )
    assert dev_cf < 0.01
    assert dev_quad < 0.01
    assert elapsed < 10.0


def test_criterion_02_quadrature_matches_mirror_closed_form():
    t0 = time.monotonic()
    z = 2e-6
    devs = {}
    for big_z in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
        got = quad.response_g(STATIC, MIRROR, z, big_z / z, SETTINGS).value
        want = cf.g_cp_perf(big_z / z, z, STATIC.alpha0)
        devs[big_z] = abs(got / want - 1.0)
    elapsed = time.monotonic() - t0
    worst = max(devs.values())
    ok = worst < 1e-4 and elapsed < 120.0
    _line(2, ok, f"worst |quad/closed-1| = {worst:.2e} over Z=0.1..10, {elapsed:.1f} s")
    assert worst < 1e-4
    assert elapsed < 120.0


def test_criterion_03_proximity_force_theorem():
    devs = []
    for surface, name in ((GOLD, "gold"), (SILICON, "silicon")):
        for z in (0.1e-6, 1e-6, 10e-6):
            g = quad.response_g(RB, surface, z, 1e-3 / z, SETTINGS).value
            f0 = quad.plane_force(RB, surface, z, SETTINGS).value
            devs.append(abs(g / f0 - 1.0))
    worst = max(devs)
    ok = worst < 1e-3
    _line(3, ok, f"worst |g(k->0)/F0 - 1| = {worst:.2e} over 2 materials x 3 distances")
    assert worst < 1e-3


def test_criterion_04_rho_slope_vanishes_at_zero_k():
    # The response depends on the corrugation mode only through |k|, so
    # the symmetric-difference slope across k = 0 vanishes identically;
    # the curvature exponent p (rho ~ 1 - c (k z)^p) must come out 2,
    # ruling out any linear term hiding in the quadrature route.
    z = 1e-6
    details = []
    ok = True
    for surface, name in ((GOLD, "gold"), (SILICON, "silicon")):
        g0 = quad.response_g(RB, surface, z, 0.0, SETTINGS).value
        delta = 0.05 / z
        rho_p = quad.response_g(RB, surface, z, delta, SETTINGS).value / g0
        rho_m = quad.response_g(RB, surface, z, abs(-delta), SETTINGS).value / g0
        slope = abs(rho_p - rho_m) / (2.0 * delta)
        rho_2 = quad.response_g(RB, surface, z, 2.0 * delta, SETTINGS).value / g0
        p = math.log((1.0 - rho_2) / (1.0 - rho_p)) / math.log(2.0)
        ok = ok and slope < 1e-3 * z and 1.8 < p < 2.2
        details.append(f"{name}: slope {slope:.1e} m (bound {1e-3 * z:.1e}), p={p:.3f}")
        assert slope < 1e-3 * z
        assert 1.8 < p < 2.2
    _line(4, ok, "; ".join(details))


def test_criterion_05_rho_tracks_cp_then_vdw():
    kz_grid = (0.3, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
    cp_devs = {}
    for z in (1e-6, 10e-6):
        g0 = quad.response_g(RB, SILICON, z, 0.0, SETTINGS).value
        for kz in kz_grid:
            rho = quad.response_g(RB, SILICON, z, kz / z, SETTINGS).value / g0
            cp_devs[(z, kz)] = abs(rho / cf.rho_cp_perf(kz) - 1.0)
    worst_cp = max(cp_devs.values())

    z = 100e-9
    g0 = quad.response_g(RB, SILICON, z, 0.0, SETTINGS).value
    v0 = cf.g_vdw_drude_lorentz(0.0, z, TRANSITIONS, SILICON_OMEGA_DL, SILICON_EPS_STATIC)
    vdw_devs = []
    for kz in kz_grid:
        rho = quad.response_g(RB, SILICON, z, kz / z, SETTINGS).value / g0
        ref = (
            cf.g_vdw_drude_lorentz(kz / z, z, TRANSITIONS, SILICON_OMEGA_DL, SILICON_EPS_STATIC)
            / v0
        )
        vdw_devs.append(abs(rho / ref - 1.0))
    worst_vdw = max(vdw_devs)

    ok = worst_cp < 0.02 and worst_vdw < 0.10
    _line(
        5,
        ok,
        f"silicon rho vs rho_CP worst dev {worst_cp:.1%} (require <2%, kz 0.3..6); "
        f"100 nm vs vdW form worst dev {worst_vdw:.1%} (require <10%)",
    )
    assert worst_vdw < 0.10
    assert worst_cp < 0.02


def test_criterion_06_eta_f_asymptotics():
    eta_si = quad.eta_f(RB, SILICON, 20e-6, SETTINGS).value
    eta_au = quad.eta_f(RB, GOLD, 20e-6, SETTINGS).value
    slope_au = quad.eta_f(RB, GOLD, 20e-9, SETTINGS).value / 0.02
    slope_si = quad.eta_f(RB, SILICON, 20e-9, SETTINGS).value / 0.02
    ok = (
        0.62 <= eta_si <= 0.72
        and 0.93 <= eta_au <= 1.0
        and abs(slope_au / 5.8 - 1.0) < 0.15
        and abs(slope_si / 5.1 - 1.0) < 0.15
    )
    _line(
        6,
        ok,
        f"eta_F(20um): silicon {eta_si:.4f} (in [0.62,0.72]), gold {eta_au:.4f} "
        f"(in [0.93,1.0]); slope(20nm): gold {slope_au:.3f}/um (5.8 +-15%), "
        f"silicon {slope_si:.3f}/um (5.1 +-15%)",
    )
    assert 0.62 <= eta_si <= 0.72
    assert 0.93 <= eta_au <= 1.0
    assert abs(slope_si / 5.1 - 1.0) < 0.15
    assert abs(slope_au / 5.8 - 1.0) < 0.15


def test_criterion_07_vdw_plasma_closed_form():
    z = 5e-9
    devs = []
    for kz in (0.5, 1.0, 2.0):
        got = quad.response_g(RB, GOLD, z, kz / z, SETTINGS).value
        want = cf.g_vdw_plasma(kz / z, z, TRANSITIONS, GOLD.omega_p)
        devs.append(abs(got / want - 1.0))
    worst_quad = max(devs)

    k = 1.0 / z
    perfect_dev = abs(
        cf.g_vdw_plasma(k, z, TRANSITIONS, GOLD.omega_p * 1e4)
        / cf.g_vdw_perfect(k, z, TRANSITIONS)
        - 1.0
    )
    plasmon_dev = abs(
        cf.g_vdw_plasma(k, z, TRANSITIONS, GOLD.omega_p * 1e-4)
        / cf.g_vdw_plasmon(k, z, TRANSITIONS, GOLD.omega_p * 1e-4)
        - 1.0
    )
    ok = worst_quad < 0.05 and perfect_dev < 2e-3 and plasmon_dev < 2e-3
    _line(
        7,
        ok,
        f"quadrature vs plasma form worst dev {worst_quad:.2%} (<5%); ramp limits: "
        f"mirror {perfect_dev:.1e}, plasmon {plasmon_dev:.1e} (<0.2%)",
    )
    assert worst_quad < 0.05
    assert perfect_dev < 2e-3
    assert plasmon_dev < 2e-3


def test_criterion_08_bessel_accuracy():
    x = np.geomspace(1e-6, 50.0, 100)
    k0, k1 = cf.bessel_k0_k1(x)
    worst = max(
        float(np.max(np.abs(k0 / sp.k0(x) - 1.0))),
        float(np.max(np.abs(k1 / sp.k1(x) - 1.0))),
    )
    ok = worst < 1e-10
    _line(8, ok, f"worst K0/K1 relative error {worst:.2e} on 100 points in [1e-6, 50]")
    assert worst < 1e-10


def test_criterion_09_property_suite():
    # Specular kernel identity against the plane reflection moment.
    worst_spec = 0.0
    for surface in (GOLD, SILICON):
        for xi in (1e13, 1e15, 3e16):
            for kp in (1e5, 3e6):
                pt = kernel.kernel_point(surface, xi, kp, kp, 1.0, 0.0)
                fs = optics.fresnel(surface, kp, xi)
                q = (xi / C_LIGHT) ** 2 * (fs.r_te - fs.r_tm) - 2.0 * kp**2 * fs.r_tm
                want = math.exp(-2.0 * fs.kappa * 1e-6) * q
                worst_spec = max(worst_spec, abs(kernel.a_exact(pt, 1e-6) / want - 1.0))
    assert worst_spec < 1e-10

    # Rotation invariance and h0 linearity of the first-order assembly.
    z = 2e-6
    g_of_k = lambda k: IntegralResult(cf.g_cp_perf(k, z, STATIC.alpha0), 0.0)
    k_c = 2.0 * math.pi / 10e-6
    base = prof.first_order_potential(
        prof.Sinusoid(50e-9, k_c), (1.3e-6, 0.0), z, g_of_k=g_of_k
    ).value
    d = (math.cos(0.77), math.sin(0.77))
    rotated = prof.first_order_potential(
        prof.Sinusoid(50e-9, k_c, direction=d),
        (1.3e-6 * d[0], 1.3e-6 * d[1]),
        z,
        g_of_k=g_of_k,
    ).value
    doubled = prof.first_order_potential(
        prof.Sinusoid(100e-9, k_c), (1.3e-6, 0.0), z, g_of_k=g_of_k
    ).value
    assert rotated == pytest.approx(base, rel=1e-10)
    assert doubled == pytest.approx(2.0 * base, rel=1e-12)

    # Linearity in the polarizability.
    u1 = quad.plane_potential(STATIC, MIRROR, 1e-6, SETTINGS).value
    u2 = quad.plane_potential(
        StaticPolarizability(2.0 * STATIC.alpha0), MIRROR, 1e-6, SETTINGS
    ).value
    assert u2 == pytest.approx(2.0 * u1, rel=1e-12)

    # Negativity of potential, force, and response.
    assert u1 < 0.0
    assert quad.plane_force(RB, GOLD, 1e-6, SETTINGS).value < 0.0
    assert quad.response_g(RB, SILICON, 1e-6, 2e6, SETTINGS).value < 0.0

    # Deterministic CSV output, byte for byte across repeat runs.
    args = [
        sys.executable, "-m", "cpsurf", "response",
        "--atom", "rb87-static", "--surface", "perfect",
        "--rel-tol", "1e-5", "--z", "1e-6,2e-6", "--kz", "0,1",
    ]
    run1 = subprocess.run(args, capture_output=True, text=True)
    run2 = subprocess.run(args, capture_output=True, text=True)
    assert run1.returncode == 0
    assert run1.stdout == run2.stdout and run1.stdout

    _line(
        9,
        True,
        f"specular identity worst dev {worst_spec:.1e}; rotation/linearity/negativity "
        "hold; CSV runs byte-identical",
    )
