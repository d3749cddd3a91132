import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from cpsurf import kernel, optics, quadrature
from cpsurf.constants import C_LIGHT

GOLD = optics.gold_plasma()
SILICON = optics.silicon_drude_lorentz()
MIRROR = optics.PerfectConductor()

_XI = st.floats(min_value=1e12, max_value=1e17)
_K = st.floats(min_value=1e4, max_value=1e7)
_PHI = st.floats(min_value=0.01, max_value=math.pi - 0.01)
_ZA = st.floats(min_value=1e-7, max_value=3e-6)


def _point(surface, xi, kp, kpp, phi):
    return kernel.kernel_point(surface, xi, kp, kpp, math.cos(phi), math.sin(phi))


# Independent assembly of the premultiplied kernel from the polarization
# overlaps, the Fresnel amplitudes and the first-order reflection block;
# a_exact must match it. It reads nothing of the KernelPoint: the decay
# constants and reflection amplitudes come from optics.fresnel, eps from
# the model, and the transmission amplitudes are built here.


def _legs(surface, xi, kp, kpp):
    """Fresnel sets of both legs, eps and the transmission amplitudes
    t_te = 2 kappa / (kappa + kappa_t), t_tm = 2 sqrt(eps) kappa / (eps kappa + kappa_t)."""
    eps = surface.eps(xi)
    sqrt_eps = math.sqrt(eps)
    legs = []
    for k in (kp, kpp):
        fs = optics.fresnel(surface, k, xi)
        t_te = 2.0 * fs.kappa / (fs.kappa + fs.kappa_t)
        t_tm = 2.0 * sqrt_eps * fs.kappa / (eps * fs.kappa + fs.kappa_t)
        legs.append((fs, t_te, t_tm))
    return eps, legs


def polarization_overlaps(xi, kp, kpp, cos_d, sin_d, kappa_p, kappa_pp):
    """The four overlaps eps_hat^+_p(k') . eps_hat^-_p'(k'').

    TE.TE = C, TE.TM = c kappa'' S / xi, TM.TE = c kappa' S / xi,
    TM.TM = -(c^2/xi^2)(k' k'' + kappa' kappa'' C). These carry the raw
    c/xi factors that the premultiplied kernel cancels symbolically.
    """
    c_xi = C_LIGHT / xi
    return {
        "te_te": cos_d,
        "te_tm": c_xi * kappa_pp * sin_d,
        "tm_te": c_xi * kappa_p * sin_d,
        "tm_tm": -(c_xi**2) * (kp * kpp + kappa_p * kappa_pp * cos_d),
    }


def lambda_matrix(eps, xi, kp, kpp, cos_d, sin_d, fs_p, fs_pp):
    """Non-specular polarization-mixing matrix, rows (TE, TM) out, columns in.

    Entries (C = cos_d, S = sin_d, primes as in the legs):

      [TE,TE] = 2 kappa' C
      [TE,TM] = 2 kappa' S c kappa''_t / (sqrt(eps) xi)
      [TM,TE] = 2 S sqrt(eps) (xi/c) kappa' kappa'_t / d_tm
      [TM,TM] = -2 kappa' (eps k' k'' + kappa'_t kappa''_t C) / d_tm

    with d_tm = xi^2/c^2 - kappa'^2 (eps + 1). In the specular limit
    (k'' = k', C = 1, S = 0) the diagonal reduces to 2 kappa' exactly.
    """
    sqrt_eps = math.sqrt(eps)
    c = C_LIGHT
    kappa_p = fs_p.kappa
    d_tm = (xi / c) ** 2 - kappa_p**2 * (eps + 1.0)
    return {
        "te_te": 2.0 * kappa_p * cos_d,
        "te_tm": 2.0 * kappa_p * sin_d * c * fs_pp.kappa_t / (sqrt_eps * xi),
        "tm_te": 2.0 * sin_d * sqrt_eps * (xi / c) * kappa_p * fs_p.kappa_t / d_tm,
        "tm_tm": -2.0 * kappa_p * (eps * kp * kpp + fs_p.kappa_t * fs_pp.kappa_t * cos_d) / d_tm,
    }


def nonspecular_block(legs, lam):
    """First-order reflection block R1[p', p''] = u_{p'p''} Lambda_{p'p''},
    u_{p p'} = r^p(k') t^{p'}(k'') / t^p(k').

    Diagonal limit: R1(k', k') = 2 kappa' r^p delta_{p p'}.
    """
    (fs_p, t_te_p, t_tm_p), (_, t_te_pp, t_tm_pp) = legs
    return {
        "te_te": fs_p.r_te * t_te_pp / t_te_p * lam["te_te"],
        "te_tm": fs_p.r_te * t_tm_pp / t_te_p * lam["te_tm"],
        "tm_te": fs_p.r_tm * t_te_pp / t_tm_p * lam["tm_te"],
        "tm_tm": fs_p.r_tm * t_tm_pp / t_tm_p * lam["tm_tm"],
    }


def assemble_a_from_block(surface, xi, kp, kpp, cos_d, sin_d, z_atom):
    """Premultiplied kernel rebuilt from overlaps and the R1 block.

    (xi^2/c^2) e^{-(kappa'+kappa'')z_A} / (2 kappa'')
        sum_{p'p''} overlap_{p'p''} R1_{p'p''}

    Slower than a_exact and not xi -> 0 safe. Arrays broadcast.
    """
    eps, legs = _legs(surface, xi, kp, kpp)
    fs_p, fs_pp = legs[0][0], legs[1][0]
    overlaps = polarization_overlaps(xi, kp, kpp, cos_d, sin_d, fs_p.kappa, fs_pp.kappa)
    r1 = nonspecular_block(legs, lambda_matrix(eps, xi, kp, kpp, cos_d, sin_d, fs_p, fs_pp))
    total = sum(overlaps[p] * r1[p] for p in ("te_te", "te_tm", "tm_te", "tm_tm"))
    envelope = np.exp(-(fs_p.kappa + fs_pp.kappa) * z_atom)
    return (xi / C_LIGHT) ** 2 * envelope / (2.0 * fs_pp.kappa) * total


class TestKernelIdentities:
    @given(xi=_XI, kp=_K, kpp=_K, phi=_PHI, za=_ZA)
    @hyp_settings(max_examples=60, deadline=None)
    def test_exact_matches_block_assembly(self, xi, kp, kpp, phi, za):
        for surface in (GOLD, SILICON):
            pt = _point(surface, xi, kp, kpp, phi)
            direct = kernel.a_exact(pt, za)
            assembled = assemble_a_from_block(
                surface, xi, kp, kpp, math.cos(phi), math.sin(phi), za
            )
            if assembled != 0.0:
                assert direct == pytest.approx(assembled, rel=1e-10)

    @given(xi=_XI, kp=_K, za=_ZA)
    @hyp_settings(max_examples=60, deadline=None)
    def test_specular_reduction(self, xi, kp, za):
        # At k' = k'' and zero angle the kernel collapses to the plane
        # reflection moment: e^{-2 kappa z} [(xi/c)^2 (r_te - r_tm) - 2 k^2 r_tm].
        for surface in (GOLD, SILICON):
            pt = kernel.kernel_point(surface, xi, kp, kp, 1.0, 0.0)
            fs = optics.fresnel(surface, kp, xi)
            q = (xi / C_LIGHT) ** 2 * (fs.r_te - fs.r_tm) - 2.0 * kp**2 * fs.r_tm
            want = math.exp(-2.0 * fs.kappa * za) * q
            assert kernel.a_exact(pt, za) == pytest.approx(want, rel=1e-12)

    @given(xi=_XI, kp=_K, za=_ZA)
    @hyp_settings(max_examples=40, deadline=None)
    def test_specular_reduction_mirror(self, xi, kp, za):
        # Mirror moment: r_te = -1, r_tm = +1 give -2 kappa^2.
        pt = kernel.kernel_point(MIRROR, xi, kp, kp, 1.0, 0.0)
        kappa = math.hypot(kp, xi / C_LIGHT)
        want = math.exp(-2.0 * kappa * za) * (-2.0 * kappa**2)
        assert kernel.a_perfect(pt, za) == pytest.approx(want, rel=1e-12)

    @given(xi=_XI, kp=_K, kpp=_K, phi=_PHI, za=_ZA)
    @hyp_settings(max_examples=60, deadline=None)
    def test_reciprocity(self, xi, kp, kpp, phi, za):
        for surface, fn in ((GOLD, kernel.a_exact), (MIRROR, kernel.a_perfect)):
            a12 = fn(_point(surface, xi, kp, kpp, phi), za)
            a21 = fn(_point(surface, xi, kpp, kp, phi), za)
            assert a12 == pytest.approx(a21, rel=1e-11)

    @given(xi=_XI, kp=_K, kpp=_K, phi=_PHI, za=_ZA)
    @hyp_settings(max_examples=60, deadline=None)
    def test_angle_sign_symmetry(self, xi, kp, kpp, phi, za):
        p_plus = kernel.kernel_point(GOLD, xi, kp, kpp, math.cos(phi), math.sin(phi))
        p_minus = kernel.kernel_point(GOLD, xi, kp, kpp, math.cos(phi), -math.sin(phi))
        assert kernel.a_exact(p_plus, za) == kernel.a_exact(p_minus, za)

    @given(xi=_XI, kp=_K, kpp=_K, phi=_PHI, za=_ZA)
    @hyp_settings(max_examples=80, deadline=None)
    def test_finite_everywhere(self, xi, kp, kpp, phi, za):
        for surface in (GOLD, SILICON):
            val = kernel.a_exact(_point(surface, xi, kp, kpp, phi), za)
            assert math.isfinite(val)
        assert math.isfinite(kernel.a_perfect(_point(MIRROR, xi, kp, kpp, phi), za))


class TestBlockAmplitudes:
    # The transmission amplitudes exist only in the independent assembly;
    # these pin the ones it builds.
    def test_vacuum_is_transparent(self):
        _, legs = _legs(optics.DrudeLorentz(1e15, 1.0), 3e15, 2e6, 2e6)
        for fs, t_te, t_tm in legs:
            assert fs.r_te == 0.0 and fs.r_tm == 0.0
            assert t_te == 1.0 and t_tm == 1.0

    @given(k=st.floats(min_value=1.0, max_value=1e8), xi=_XI)
    @hyp_settings(max_examples=60, deadline=None)
    def test_te_transmission_bounds(self, k, xi):
        for surface in (GOLD, SILICON):
            _, legs = _legs(surface, xi, k, k)
            assert 0.0 < legs[0][1] <= 1.0


# A k' column near k' = k (delta = |k' - k| / sqrt(k' k) down to 1e-7)
# against the angle nodes, through the production angular geometry.
_Z_GRID = 1.05e-6
_K_GRID = 3.0 / _Z_GRID


def _production_grid():
    kp = _K_GRID * (1.0 + np.array([-1e-2, -1e-4, -1e-7, 1e-7, 1e-4, 1e-2]))
    kp_col, kpp, cos_d, sin_d, _ = quadrature._angular_geometry(
        kp, _K_GRID, np.linspace(0.0, np.pi, 65)
    )
    return kp_col, kpp, cos_d, sin_d


class TestProductionGrid:
    @pytest.mark.parametrize("surface", [SILICON, GOLD], ids=["silicon", "gold"])
    @pytest.mark.parametrize("xi", [1e12, 3e14, 5e15, 1e17])
    def test_exact_matches_block_assembly_on_grid(self, surface, xi):
        kp_col, kpp, cos_d, sin_d = _production_grid()
        direct = kernel.a_exact(kernel.kernel_point(surface, xi, kp_col, kpp, cos_d, sin_d), _Z_GRID)
        assembled = assemble_a_from_block(surface, xi, kp_col, kpp, cos_d, sin_d, _Z_GRID)
        assert direct.shape == kpp.shape
        assert np.all(assembled != 0.0)
        np.testing.assert_allclose(direct, assembled, rtol=1e-10, atol=0.0)

    def test_vacuum_gives_zero(self):
        kp_col, kpp, cos_d, sin_d = _production_grid()
        for xi in (1e12, 3e14, 5e15):
            point = kernel.kernel_point(
                optics.DrudeLorentz(1e16, 1.0), xi, kp_col, kpp, cos_d, sin_d
            )
            assert np.all(kernel.a_exact(point, _Z_GRID) == 0.0)

    def test_linear_in_eps_minus_one_near_vacuum(self):
        # A is first order in eps - 1: A / (eps - 1) stays finite and tends
        # to one limit, so 1e-4 and 1e-8 agree to O(1e-4). A kappa' - kappa'_t
        # taken as a difference would lose about 1e-16 kappa'^2 / (eps - 1)
        # (xi/c)^2 of it here.
        kp_col, kpp, cos_d, sin_d = _production_grid()
        xi = 1e14
        ratios = []
        for d in (1e-4, 1e-8):
            surface = optics.DrudeLorentz(1e16, 1.0 + d)
            point = kernel.kernel_point(surface, xi, kp_col, kpp, cos_d, sin_d)
            ratios.append(kernel.a_exact(point, _Z_GRID) / (surface.eps(xi) - 1.0))
        assert np.all(np.isfinite(ratios)) and np.all(ratios[1] != 0.0)
        np.testing.assert_allclose(ratios[0], ratios[1], rtol=5e-4)


class TestSaturatedPlasma:
    # At xi = 1e-140 and 1e-160 the plasma eps = 1 + omega_p^2/xi^2
    # overflows to inf. The kernel takes 1/eps = 0 there and returns the
    # finite static plasma limit, which is the ideal mirror's static kernel
    # -k'k''(1 + C) e^{-(k' + k'')z_A}, continuous with a finite huge eps.
    @pytest.mark.parametrize("xi", [1e-140, 1e-160])
    def test_finite_plasma_limit(self, xi):
        kp, kpp, cos_d, za = 2e6, 1.1e6, 0.3, 1e-6
        sin_d = math.sqrt(1.0 - cos_d**2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isinf(GOLD.eps(xi))
            point = kernel.kernel_point(GOLD, xi, kp, kpp, cos_d, sin_d)
            assert point.inv_eps == 0.0
            saturated = kernel.a_exact(point, za)
        finite = kernel.a_exact(kernel.kernel_point(GOLD, 1e-100, kp, kpp, cos_d, sin_d), za)
        static = -kp * kpp * (1.0 + cos_d) * math.exp(-(kp + kpp) * za)
        assert math.isfinite(saturated)
        assert saturated == pytest.approx(finite, rel=1e-12)
        assert saturated == pytest.approx(static, rel=1e-12)
        mirror = kernel.a_perfect(kernel.kernel_point(MIRROR, xi, kp, kpp, cos_d, sin_d), za)
        assert saturated == pytest.approx(mirror, rel=1e-12)


    def test_table_low_tail_gives_the_same_limit(self):
        # A table with an inverse-square low tail, eps - 1 = A / xi^2 with
        # A = 1e24 rad^2/s^2: eps overflows at xi = 1e-160 but not at
        # 1e-140, and eps xi^2 = xi^2 + A stays finite at both.
        xi = np.geomspace(1e14, 1e16, 10)
        table = optics.TabulatedPermittivity(
            xi, 1.0 + 1e24 / xi**2, extrapolate_low="inverse_square"
        )
        kp, kpp, cos_d, za = 2e6, 1.1e6, 0.3, 1e-6
        sin_d = math.sqrt(1.0 - cos_d**2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isinf(table.eps(1e-160))
            assert table.eps_times_xi2(1e-160) == pytest.approx(1e24, rel=1e-12)
            a = [
                kernel.a_exact(kernel.kernel_point(table, x, kp, kpp, cos_d, sin_d), za)
                for x in (1e-140, 1e-160)
            ]
        assert math.isfinite(a[1])
        assert a[1] == pytest.approx(a[0], rel=1e-12)


class TestPerfectLimit:
    def test_plasma_ramp_approaches_mirror(self):
        xi, kp, kpp, phi, za = 3e14, 2e6, 1.1e6, 1.0, 1e-6
        ref = kernel.a_perfect(_point(MIRROR, xi, kp, kpp, phi), za)
        devs = []
        for fac in (1e3, 1e5, 1e7):
            surface = optics.PlasmaMetal(fac * xi)
            val = kernel.a_exact(_point(surface, xi, kp, kpp, phi), za)
            devs.append(abs(val / ref - 1.0))
        assert devs == sorted(devs, reverse=True)
        assert devs[1] < 1e-4
        assert devs[2] < 1e-6

    def test_vectorized_matches_scalar(self):
        xi, za = 8e14, 6e-7
        kp = np.array([3e5, 1e6, 4e6])
        kpp = np.array([5e5, 2e6, 9e5])
        cos_d = np.array([0.9, -0.2, 0.4])
        sin_d = np.sqrt(1.0 - cos_d**2)
        pt = kernel.kernel_point(GOLD, xi, kp, kpp, cos_d, sin_d)
        batch = kernel.a_exact(pt, za)
        assert batch.shape == (3,)
        for i in range(3):
            single = kernel.a_exact(
                kernel.kernel_point(GOLD, xi, kp[i], kpp[i], cos_d[i], sin_d[i]), za
            )
            assert batch[i] == pytest.approx(single, rel=1e-14)

    @pytest.mark.parametrize("surface", [GOLD, SILICON, MIRROR])
    def test_kp_column_broadcasts_like_full_grid(self, surface):
        xi, za = 8e14, 6e-7
        kp = np.array([[3e5], [1e6], [4e6]])
        kpp = np.array([[5e5, 2e6], [2e6, 9e5], [9e5, 1e5]])
        cos_d = np.array([[0.9, -0.2], [0.4, 0.1], [-0.7, 0.3]])
        sin_d = np.sqrt(1.0 - cos_d**2)
        column = kernel.kernel_point(surface, xi, kp, kpp, cos_d, sin_d)
        full = kernel.kernel_point(
            surface, xi, np.broadcast_to(kp, kpp.shape), kpp, cos_d, sin_d
        )
        assert column.kappa_p.shape == (3, 1)
        a = kernel.a_perfect if surface.is_perfect else kernel.a_exact
        np.testing.assert_array_equal(a(column, za), a(full, za))


class TestKernelPointValidation:
    # kernel_point makes no check of its own: its two optics.decay_constants
    # calls reject these.
    @pytest.mark.parametrize("surface", [GOLD, SILICON, MIRROR], ids=["gold", "silicon", "mirror"])
    @pytest.mark.parametrize(
        "xi, kp, kpp, message",
        [
            (0.0, 1e6, 2e6, "xi must be positive"),
            (-1e15, 1e6, 2e6, "xi must be positive"),
            (math.nan, 1e6, 2e6, "xi must be positive"),
            (1e15, -1e6, 2e6, "wavenumbers must be non-negative"),
            (1e15, 1e6, np.array([2e6, -1.0]), "wavenumbers must be non-negative"),
        ],
        ids=["xi-zero", "xi-negative", "xi-nan", "kp-negative", "kpp-negative"],
    )
    def test_rejects_bad_arguments(self, surface, xi, kp, kpp, message):
        with pytest.raises(ValueError, match=message):
            kernel.kernel_point(surface, xi, kp, kpp, 1.0, 0.0)
