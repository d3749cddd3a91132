import math

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from cpsurf import kernel, optics
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
# overlaps and the first-order reflection block; a_exact must match it.


def polarization_overlaps(point):
    """The four overlaps eps_hat^+_p(k') . eps_hat^-_p'(k'').

    TE.TE = C, TE.TM = c kappa'' S / xi, TM.TE = c kappa' S / xi,
    TM.TM = -(c^2/xi^2)(k' k'' + kappa' kappa'' C). These carry the raw
    c/xi factors that the premultiplied kernel cancels symbolically.
    """
    c_xi = C_LIGHT / point.xi
    kappa_p, kappa_pp = point.fres_p.kappa, point.fres_pp.kappa
    return {
        "te_te": point.cos_dphi,
        "te_tm": c_xi * kappa_pp * point.sin_dphi,
        "tm_te": c_xi * kappa_p * point.sin_dphi,
        "tm_tm": -(c_xi**2) * (point.kp * point.kpp + kappa_p * kappa_pp * point.cos_dphi),
    }


def lambda_matrix(point):
    """Non-specular polarization-mixing matrix, rows (TE, TM) out, columns in.

    Entries (C = cos_dphi, S = sin_dphi, primes as in the point):

      [TE,TE] = 2 kappa' C
      [TE,TM] = 2 kappa' S c kappa''_t / (sqrt(eps) xi)
      [TM,TE] = 2 S sqrt(eps) (xi/c) kappa' kappa'_t / d_tm
      [TM,TM] = -2 kappa' (eps k' k'' + kappa'_t kappa''_t C) / d_tm

    In the specular limit (k'' = k', C = 1, S = 0) the diagonal reduces
    to 2 kappa' exactly.
    """
    eps = point.eps
    sqrt_eps = math.sqrt(eps)
    xi = point.xi
    c = C_LIGHT
    kappa_p = point.fres_p.kappa
    te_te = 2.0 * kappa_p * point.cos_dphi
    te_tm = 2.0 * kappa_p * point.sin_dphi * c * point.fres_pp.kappa_t / (sqrt_eps * xi)
    tm_te = (
        2.0 * point.sin_dphi * sqrt_eps * (xi / c)
        * kappa_p * point.fres_p.kappa_t / point.d_tm
    )
    tm_tm = (
        -2.0 * kappa_p
        * (eps * point.kp * point.kpp + point.fres_p.kappa_t * point.fres_pp.kappa_t * point.cos_dphi)
        / point.d_tm
    )
    return np.array([[te_te, te_tm], [tm_te, tm_tm]], dtype=float)


def nonspecular_block(point):
    """First-order reflection block R1[p', p''] = u_{p'p''} Lambda_{p'p''}.

    Diagonal limit: R1(k', k') = 2 kappa' r^p delta_{p p'}.
    """
    lam = lambda_matrix(point)
    u = kernel._u_factors(point)
    return np.array(
        [
            [u["te_te"] * lam[0, 0], u["te_tm"] * lam[0, 1]],
            [u["tm_te"] * lam[1, 0], u["tm_tm"] * lam[1, 1]],
        ]
    )


def assemble_a_from_block(point, z_atom):
    """Premultiplied kernel rebuilt from overlaps and the R1 block.

    (xi^2/c^2) e^{-(kappa'+kappa'')z_A} / (2 kappa'')
        sum_{p'p''} overlap_{p'p''} R1_{p'p''}

    Slower than a_exact and not xi -> 0 safe.
    """
    overlaps = polarization_overlaps(point)
    r1 = nonspecular_block(point)
    total = (
        overlaps["te_te"] * r1[0, 0]
        + overlaps["te_tm"] * r1[0, 1]
        + overlaps["tm_te"] * r1[1, 0]
        + overlaps["tm_tm"] * r1[1, 1]
    )
    xi_c2 = (point.xi / C_LIGHT) ** 2
    kappa_p, kappa_pp = point.fres_p.kappa, point.fres_pp.kappa
    envelope = math.exp(-(kappa_p + kappa_pp) * z_atom)
    return xi_c2 * envelope / (2.0 * kappa_pp) * total


class TestKernelIdentities:
    @given(xi=_XI, kp=_K, kpp=_K, phi=_PHI, za=_ZA)
    @hyp_settings(max_examples=60, deadline=None)
    def test_exact_matches_block_assembly(self, xi, kp, kpp, phi, za):
        for surface in (GOLD, SILICON):
            pt = _point(surface, xi, kp, kpp, phi)
            direct = kernel.a_exact(pt, za)
            assembled = assemble_a_from_block(pt, za)
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
        assert column.fres_p.kappa.shape == (3, 1)
        a = kernel.a_perfect if surface.is_perfect else kernel.a_exact
        np.testing.assert_array_equal(a(column, za), a(full, za))


class TestKernelPointValidation:
    # kernel_point makes no check of its own: its two fresnel calls reject
    # these.
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
